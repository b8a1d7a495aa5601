"""BFP GEMM — integer mantissa matrix multiply under shared exponents.

This is the exact-arithmetic reference the photonic core is validated
against.  For an MVM between an input vector and a weight tile (Fig. 2), the
input vector forms one BFP group and each weight row forms another; the dot
product is then an integer dot of mantissae scaled by
``2^(e_x + e_w - 2 bm)``.

:func:`bfp_matmul_exact` uses per-(row, tile) shared exponents, an integer
mantissa GEMM and exact reconstruction.  It is structurally identical to
what the hardware computes, and what :class:`repro.core.PhotonicRnsTensorCore`
must match bit-for-bit.  The training-time accuracy model instead
fake-quantises both operands with :func:`repro.bfp.quantize_tensor` and
uses a float matmul, which gives the same values for output magnitudes
below 2^53 (float64 holds the integer products exactly).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .format import BFPConfig, _encode_grouped

__all__ = ["bfp_encode_matrix", "bfp_matmul_exact"]


def bfp_encode_matrix(
    matrix: np.ndarray,
    config: BFPConfig,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode a 2-D matrix row-wise into BFP groups along the last axis.

    Returns ``(mantissae, exponents)`` where mantissae has shape
    ``(rows, num_groups, g)`` (zero padded) and exponents ``(rows,
    num_groups)``.  Each (row, group) pair shares one exponent — the paper's
    grouping for weight tiles (each row of the tile is a group) and for
    input vectors (the whole vector slice is a group).
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    g = config.g
    num_groups = max(1, -(-cols // g))
    if cols == num_groups * g:  # whole groups already: no zero-pad copy
        grouped = np.ascontiguousarray(mat).reshape(rows, num_groups, g)
    else:
        padded = np.zeros((rows, num_groups * g), dtype=np.float64)
        padded[:, :cols] = mat
        grouped = padded.reshape(rows, num_groups, g)
    return _encode_grouped(grouped, config, rng)


def bfp_matmul_exact(
    w: np.ndarray,
    x: np.ndarray,
    config: BFPConfig,
) -> np.ndarray:
    """``w @ x`` with both operands quantised to BFP, via integer GEMM.

    ``w`` is ``(R, K)``, ``x`` is ``(K, C)``.  The reduction axis ``K`` is
    cut into ``ceil(K / g)`` groups; each group contributes an integer
    partial dot scaled by its pair of shared exponents, and partials are
    accumulated in float64 (the paper accumulates partial outputs in FP32 —
    step 9 of Fig. 2; float64 here removes accumulation rounding from the
    comparison so tests can check the quantisation path in isolation).
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ValueError(f"bad GEMM shapes {w.shape} @ {x.shape}")
    w_mant, w_exp = bfp_encode_matrix(w, config)
    # x groups run along K: encode columns by transposing.
    x_mant_t, x_exp_t = bfp_encode_matrix(x.T, config)

    r = w.shape[0]
    c = x.shape[1]
    num_groups = w_mant.shape[1]
    out = np.zeros((r, c), dtype=np.float64)
    for gi in range(num_groups):
        # Integer partial dot: (R, g) @ (g, C); values stay < 2^53.
        part = w_mant[:, gi, :] @ x_mant_t[:, gi, :].T.astype(np.int64)
        scale = np.ldexp(
            1.0,
            (w_exp[:, gi][:, None] + x_exp_t[:, gi][None, :]) - 2 * config.bm,
        )
        out += part * scale
    return out
