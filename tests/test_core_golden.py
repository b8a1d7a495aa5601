"""Golden digest of the photonic core's GEMM outputs (paper Fig. 2).

Seeded operands run through ``matmul``, ``matmul_programmed`` and
``matmul_many`` on six cores: the paper's design point, ``bm=3`` at
``k_min`` with ``v=8``, ``bm=5`` with ``g=8``, nearest rounding, the
``bm=8, g=4, k=12`` set whose CRT sum leaves float64's exact range (the
reduce-then-CRT path), and a seeded noisy core.  The operands cover ragged
K groups and row tiles, magnitudes over +-300 decades (products that
overflow to inf and NaN), signed zeros, inf inputs and groups below about
2^(bm - 1023).  Each output's bytes, with NaN made canonical, and its sign
bits are hashed.  The digest was recorded before the noiseless tail of
``PhotonicRnsTensorCore._execute`` was rewritten, so a one-ulp change or a
flipped zero sign anywhere fails here.
"""

import hashlib

import numpy as np

from repro.core import CoreConfig, PhotonicRnsTensorCore
from repro.photonic import NoiseModel

GOLDEN_SHA256 = "702a2b72ae7fa8430951ca11a15a755ac17b323a3f8977cab2fea1a6ba694210"
GOLDEN_OUTPUTS = 720

CONFIGS = (
    ("default", CoreConfig(), None),
    ("bm3-kmin-v8", CoreConfig(bm=3, k=None, v=8), None),
    ("bm5-g8", CoreConfig(bm=5, g=8), None),
    ("nearest", CoreConfig(rounding="nearest"), None),
    ("crt-fallback", CoreConfig(bm=8, g=4, k=12, v=4), None),
    ("noisy", CoreConfig(v=8), 40.0),
)
# (R, K, C): R ragged against v in {4, 8, 32}, K ragged against g in {4, 8, 16}.
SHAPES = ((1, 1, 1), (7, 23, 3), (33, 50, 5), (40, 16, 2), (70, 41, 9))
# (weight kind, input kind) magnitude profiles.
KINDS = (
    ("normal", "normal"),
    ("decades", "decades"),
    ("tiny", "normal"),
    ("decades", "tiny"),
    ("zeros", "zeros"),
    ("inf", "normal"),
)


def operand(gen: np.random.Generator, shape, kind: str) -> np.ndarray:
    """A seeded GEMM operand of one magnitude profile."""
    a = gen.normal(size=shape)
    if kind == "decades":
        # Rows and columns each scaled over +-150 decades: groups mix
        # magnitudes, and some products overflow.
        rows = gen.integers(-150, 151, size=(shape[0], 1))
        a *= 10.0 ** (rows + gen.integers(-150, 151, size=(1, shape[1])))
    elif kind == "tiny":
        # Every row far below 2^(bm - 1023), down to the subnormals.
        a *= 2.0 ** gen.integers(-1074, -1020, size=(shape[0], 1))
    elif kind == "zeros":
        a[gen.random(shape) < 0.3] = 0.0
        a[gen.random(shape) < 0.2] = -0.0
        a[gen.integers(shape[0])] = -0.0
    elif kind == "inf":
        a.flat[gen.integers(a.size, size=2)] = (np.inf, -np.inf)
    return a


def core_outputs():
    """``(label, output)`` for every config, shape, kind and entry point."""
    rows = []
    for name, config, snr in CONFIGS:
        noise = None if snr is None else NoiseModel.from_snr(snr)
        core = PhotonicRnsTensorCore(config, noise, np.random.default_rng(7))
        gen = np.random.default_rng(2024)
        for r, k, c in SHAPES:
            for w_kind, x_kind in KINDS:
                w = operand(gen, (r, k), w_kind)
                x = operand(gen, (k, c), x_kind)
                label = f"{name} {r}x{k}x{c} {w_kind}@{x_kind}"
                with np.errstate(over="ignore", invalid="ignore"):
                    rows.append((f"{label} matmul", core.matmul(w, x)))
                    pw = core.program(w)
                    rows.append((f"{label} programmed", core.matmul_programmed(pw, x)))
                    parts = core.matmul_many(w, [x[:, : c // 2], x[:, c // 2 :]])
                for i, part in enumerate(parts):
                    rows.append((f"{label} many[{i}]", part))
    return rows


def digest(rows) -> str:
    h = hashlib.sha256()
    for label, out in rows:
        canonical = np.where(np.isnan(out), np.nan, out)
        h.update(f"{label}|{out.dtype.str}{out.shape}|".encode())
        h.update(canonical.tobytes())
        h.update(np.signbit(canonical).tobytes())
    return h.hexdigest()


def test_core_outputs_match_the_golden_digest():
    rows = core_outputs()
    assert len(rows) == GOLDEN_OUTPUTS
    assert digest(rows) == GOLDEN_SHA256
