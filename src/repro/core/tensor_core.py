"""The photonic RNS tensor core — the paper's primary contribution.

:class:`PhotonicRnsTensorCore` executes a full GEMM through the complete
Fig. 2 dataflow, rebuilt as a **one-pass batched engine**: instead of a
Python loop over ``(K-group, row-tile)`` pairs, every stage processes the
whole GEMM at once.

1.  tile the FP operands to the array geometry,
2.  convert tiles to BFP (shared exponents, ``bm``-bit mantissae) — one
    encode per operand (Fig. 2 step 2),
3.  forward-convert *all* signed mantissae to RNS residues in one call
    (step 3),
4.  pack the weight residues into the ``(n, G, T, v, g)`` tile tensor —
    this is :meth:`PhotonicRnsTensorCore.program`, and the result can be
    cached so weight-static workloads (inference, multi-input streaming)
    re-stream activations without re-encoding weights (steps 4),
5.  execute every modular MVM of every tile in one batched pass.  The
    noiseless path folds the CRT weights into the input residues, so the
    ``n`` modular GEMMs *and* the CRT accumulation (steps 5-7) become one
    matmul of the ``(G, R, n*g)`` weight residues with the ``(G, n*g, C)``
    weighted input residues, emitting unreduced sums as a C-contiguous
    ``(G, R, C)`` tensor.  The noise path perturbs the physical phases
    on the device model
    (:meth:`~repro.photonic.mdpu.RnsMMVMU.mvm_grouped`) with the summed
    per-digit variance (step 5),
6.  digitise via the I/Q detectors' ADCs — one vectorised detection over
    the full ``(n, G, T, C, v)`` output (noise path, step 6),
7.  reverse-convert to signed integers: the noiseless path performs every
    2π wrap and the signed range mapping in one step,
    ``ints -= rint(ints / M) * M``; the noise path runs a single CRT call
    and lays its result out as the same ``(G, R, C)`` tensor (step 7),
8.  rebuild FP values with the exponent path: one int32 exponent tensor
    ``e_w + e_x - 2 bm`` scales every group at once (``ints * 2^e``), and
    the groups are then added in ascending order into a zeroed output —
    the float64 operation order of the BFP reference, so accumulation is
    bit-identical (steps 8-9),
9.  (nonlinearities stay outside the core, as in the paper).

In the noiseless configuration the result is **bit-exact** against
:func:`repro.bfp.bfp_matmul_exact` — this is the correctness property that
makes RNS-based analog computing lossless, and the test suite asserts it
property-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bfp.format import BFPConfig
from ..bfp.gemm import bfp_encode_matrix
from ..photonic.mdpu import NoiseModel, RnsMMVMU
from ..rns.conversion import forward_convert_signed, to_signed
from ..rns.moduli import ModuliSet, choose_k_min, special_moduli_set

__all__ = ["CoreConfig", "PhotonicRnsTensorCore", "ProgrammedWeights"]


@dataclass(frozen=True)
class CoreConfig:
    """Functional-core parameters (defaults = the paper's design point)."""

    bm: int = 4
    g: int = 16
    v: int = 32
    k: Optional[int] = 5  # None -> choose_k_min(bm, g)
    rounding: str = "truncate"

    def resolved_k(self) -> int:
        return self.k if self.k is not None else choose_k_min(self.bm, self.g)

    def moduli(self) -> ModuliSet:
        return special_moduli_set(self.resolved_k())

    def bfp(self) -> BFPConfig:
        return BFPConfig(self.bm, self.g, self.rounding)


@dataclass(frozen=True)
class ProgrammedWeights:
    """A weight matrix encoded, converted and laid out for the array.

    Holds everything the weight-static fast path needs: the BFP shared
    exponents, the RNS residues packed as ``(n, G, T, v, g)`` tiles
    (``G`` K-groups, ``T`` row tiles of ``v`` rows), and a copy of the
    source matrix so callers can cheaply validate cache entries.

    ``fused`` additionally holds the residues as a ``(G, R, n*g)`` float64
    tensor (real weight rows only, no padding rows) for the noiseless
    fast path, where the modular GEMMs of all ``n`` channels *and* the
    CRT accumulation collapse into one batched matmul that emits the
    ``(G, R, C)`` output (see ``_execute``); ``None`` when the core is
    noisy or the reduction would leave float64's exact integer range.
    """

    shape: Tuple[int, int]
    residues: np.ndarray  # (n, G, T, v, g) int64
    exponents: np.ndarray  # (R, G) int64
    source: np.ndarray  # (R, K) float64 copy for cache validation
    fused: Optional[np.ndarray] = None  # (G, R, n*g) float64

    @property
    def num_groups(self) -> int:
        return self.residues.shape[1]

    @property
    def row_tiles(self) -> int:
        return self.residues.shape[2]

    def matches(self, w: np.ndarray) -> bool:
        """True when ``w`` is the matrix this programming was built from."""
        return self.source.shape == w.shape and np.array_equal(self.source, w)


class PhotonicRnsTensorCore:
    """Functional model of one RNS-MMVMU executing tiled GEMMs.

    Parameters
    ----------
    config:
        Geometry and number formats.
    noise:
        Analog noise model (None = ideal, bit-exact).
    rng:
        Random generator for the stochastic parts of the noise model.
    """

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config or CoreConfig()
        self.mset = self.config.moduli()
        if not self.mset.supports_bfp(self.config.bm, self.config.g):
            raise ValueError(
                f"Eq. 13 violated: k={self.config.resolved_k()} cannot hold "
                f"bm={self.config.bm}, g={self.config.g} dot products"
            )
        self.engine = RnsMMVMU(
            self.mset, self.config.g, self.config.v, noise, rng
        )
        self._tiles_programmed = 0
        self._mvm_cycles = 0
        # Noiseless fused path: CRT weights folded into the input residues
        # turn the n modular GEMMs + CRT into one batched matmul, valid
        # while the worst-case accumulation Σ_i g (m_i-1)^2 w_i stays an
        # exact float64 integer.
        mi, ti = self.mset.crt_weights
        big_m = self.mset.dynamic_range
        crt_w = [(mi[i] * ti[i]) % big_m for i in range(self.mset.n)]
        bound = sum(
            self.config.g * (m - 1) * (m - 1) * w
            for m, w in zip(self.mset.moduli, crt_w)
        )
        self._fused_ok = bound < (1 << 53)
        self._crt_col = np.array(crt_w, dtype=np.int64).reshape(-1, 1, 1)

    # ------------------------------------------------------------------
    # Stats (consumed by examples / tests)
    # ------------------------------------------------------------------
    @property
    def tiles_programmed(self) -> int:
        return self._tiles_programmed

    @property
    def mvm_cycles(self) -> int:
        return self._mvm_cycles

    def reset_stats(self) -> None:
        self._tiles_programmed = 0
        self._mvm_cycles = 0

    # ------------------------------------------------------------------
    # Weight-static programming (Fig. 2 steps 2-4 for the weight operand)
    # ------------------------------------------------------------------
    def program(self, w: np.ndarray) -> ProgrammedWeights:
        """BFP-encode, forward-convert and tile a weight matrix once.

        The returned :class:`ProgrammedWeights` can be streamed against any
        number of input batches via :meth:`matmul_programmed`, skipping the
        per-call weight encode — the photonic array's weight-static
        operating mode.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        cfg = self.config
        r = w.shape[0]
        w_mant, w_exp = bfp_encode_matrix(w, cfg.bfp())  # (R, G, g), (R, G)
        num_groups = w_mant.shape[1]
        row_tiles = -(-r // cfg.v)
        w_res = forward_convert_signed(w_mant, self.mset)  # (n, R, G, g)
        padded = np.zeros(
            (self.mset.n, row_tiles * cfg.v, num_groups, cfg.g), dtype=np.int64
        )
        padded[:, :r] = w_res
        tiles = np.ascontiguousarray(
            padded.reshape(
                self.mset.n, row_tiles, cfg.v, num_groups, cfg.g
            ).transpose(0, 3, 1, 2, 4)
        )  # (n, G, T, v, g)
        self._tiles_programmed += num_groups * row_tiles
        fused = None
        if self._fused_ok and self.engine.is_ideal:
            # (n, R, G, g) -> (G, R, n*g): channel and digit axes merge
            # into one reduction axis for the fused CRT matmul.
            fused = w_res.transpose(2, 1, 0, 3).astype(
                np.float64, order="C"
            ).reshape(num_groups, r, self.mset.n * cfg.g)
        return ProgrammedWeights(
            (r, w.shape[1]), tiles, w_exp, w.copy(), fused
        )

    # ------------------------------------------------------------------
    # GEMM entry points
    # ------------------------------------------------------------------
    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``w @ x`` through the full photonic RNS dataflow.

        ``w``: (R, K) weights; ``x``: (K, C) inputs; returns (R, C) float64.
        """
        w = np.asarray(w, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
            raise ValueError(f"bad GEMM shapes {w.shape} @ {x.shape}")
        return self._execute(self.program(w), x)

    def matmul_programmed(self, pw: ProgrammedWeights, x: np.ndarray) -> np.ndarray:
        """Stream inputs against already-programmed weights (no re-encode)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != pw.shape[1]:
            raise ValueError(f"bad GEMM shapes {pw.shape} @ {x.shape}")
        return self._execute(pw, x)

    def matmul_many(
        self, w: np.ndarray, xs: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Batched multi-GEMM: program ``w`` once, stream every input.

        All inputs are concatenated column-wise and pushed through the
        engine as one pass — a multi-image conv batch or a multi-request
        inference batch costs one programming and one batched execution.

        Degenerate members are legal: an empty activation batch
        (``x.shape[1] == 0``) yields a correctly shaped ``(R, 0)`` output,
        and a zero-row weight matrix yields ``(0, C)`` outputs, without
        ever reaching the tile packer.
        """
        w = np.asarray(w, dtype=np.float64)
        xs = [np.asarray(x, dtype=np.float64) for x in xs]
        for x in xs:
            if x.ndim != 2 or w.ndim != 2 or w.shape[1] != x.shape[0]:
                raise ValueError(f"bad GEMM shapes {w.shape} @ {x.shape}")
        if not xs:
            return []
        r = w.shape[0]
        if r == 0 or all(x.shape[1] == 0 for x in xs):
            return [np.zeros((r, x.shape[1])) for x in xs]
        pw = self.program(w)
        out = self._execute(pw, np.concatenate(xs, axis=1))
        split = np.cumsum([x.shape[1] for x in xs])[:-1]
        return np.split(out, split, axis=1)

    def mvm(self, w: np.ndarray, x_vec: np.ndarray) -> np.ndarray:
        """Single MVM convenience wrapper: ``w @ x_vec``."""
        return self.matmul(w, np.asarray(x_vec, dtype=np.float64)[:, None])[:, 0]

    # ------------------------------------------------------------------
    # The one-pass batched execution (Fig. 2 steps 2-9 for the inputs)
    # ------------------------------------------------------------------
    def _execute(self, pw: ProgrammedWeights, x: np.ndarray) -> np.ndarray:
        cfg = self.config
        r, _ = pw.shape
        c = x.shape[1]
        # Degenerate GEMMs (no output rows, no streamed columns, or an
        # empty reduction axis) have an exact answer — all zeros — and
        # must not reach the tile packer / device model, whose stages
        # assume non-empty operands.
        if r == 0 or c == 0 or pw.num_groups == 0:
            return np.zeros((r, c))
        num_groups, row_tiles = pw.num_groups, pw.row_tiles

        # Steps 2-3: encode and forward-convert the whole input batch once.
        x_mant, x_exp = bfp_encode_matrix(x.T, cfg.bfp())  # (C, G, g), (C, G)
        x_res = forward_convert_signed(x_mant, self.mset)  # (n, C, G, g)

        # Steps 5-7: every modular MVM of every tile in one batched pass,
        # then one reverse conversion into the (G, R, C) output tensor.
        self._mvm_cycles += num_groups * row_tiles * c
        scratch = np.empty((num_groups, r, c))
        if pw.fused is not None and self.engine.is_ideal:
            # Noiseless fused path.  ``Σ_i r_i M_i T_i ≡ X (mod M)`` holds
            # for *unreduced* ``r_i ≡ x_i (mod m_i)``, so scaling the input
            # residues by their CRT weight and concatenating the channel
            # axes turns the n modular GEMMs + CRT accumulation into one
            # batched matmul of exact, non-negative integers.
            xt = np.multiply(
                x_res.transpose(2, 0, 3, 1), self._crt_col, dtype=np.float64, order="C"
            ).reshape(num_groups, self.mset.n * cfg.g, c)  # (G, n*g, C)
            ints = np.matmul(pw.fused, xt)  # (G, R, C)
            # Every 2π wrap and the signed mapping in one step.  Eq. 13
            # gives |dot| < M/2 with a margin, and the sums are exact below
            # 2^53, so the quotient is off by less than 1/M and ``rint``
            # lands on the true multiple q of M without meeting a tie; q*M,
            # a multiple of 2^k, is exact too.
            big_m = float(self.mset.dynamic_range)
            np.divide(ints, big_m, out=scratch)
            np.rint(scratch, out=scratch)
            scratch *= big_m
            ints -= scratch
        else:
            res_out = self.engine.mvm_grouped(pw.residues, x_res)  # (n, G, C, T, v)
            ints = to_signed(_crt(res_out, self.mset), self.mset).astype(np.float64)
            # (G, C, T, v) -> (G, R, C), dropping the padding rows.
            ints = ints.reshape(num_groups, c, -1)[:, :, :r].transpose(0, 2, 1)

        # Steps 8-9: scale every group by its exponent pair at once, then
        # accumulate the groups in ascending order into zeros — the same
        # float64 operations, in the same order, as bfp_matmul_exact.
        # int32 exponents keep ldexp on its fast loop; both operands are
        # contiguous so the broadcast sum is too.
        w_e = np.ascontiguousarray(pw.exponents.T, dtype=np.int32)  # (G, R)
        x_e = np.ascontiguousarray(x_exp.T, dtype=np.int32) - 2 * cfg.bm  # (G, C)
        np.ldexp(1.0, w_e[:, :, None] + x_e[:, None, :], out=scratch)
        ints *= scratch
        out = np.zeros((r, c))
        for part in ints:
            out += part
        return out


def _crt(residues: np.ndarray, mset: ModuliSet) -> np.ndarray:
    from ..rns.conversion import crt_reverse

    return crt_reverse(residues, mset)
