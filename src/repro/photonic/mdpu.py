"""MDPU, MMVMU and RNS-MMVMU functional models (Fig. 4a).

* An **MDPU** cascades ``g`` MMUs on one waveguide; the phase contributions
  add (Eq. 12) and one I/Q detection at the end reads the modular dot
  product.
* An **MMVMU** stacks ``v`` MDPUs sharing the broadcast input vector — one
  modular MVM per cycle.
* An **RNS-MMVMU** groups ``n`` MMVMUs, one per modulus, executing the
  ``n`` modular MVMs of an RNS GEMM tile in parallel.

Two execution granularities are provided:

* ``mvm`` — one weight tile, a batch of input vectors: the cycle-accurate
  per-tile view.  Phases are materialised per ``(input, row, digit-group)``
  element, summed, wrapped and detected — every analog imperfection (phase
  encoding error, shot/thermal current noise, ADC quantisation) is injected
  exactly where it occurs in hardware.
* ``mvm_grouped`` — the **one-pass batched engine**: all ``(K-group,
  row-tile)`` weight tiles of a GEMM at once.  The phase *sum* of each
  dot product is computed directly as a chunked integer matmul (the
  optical field adds phases; only the wrapped sum reaches the detector),
  so the noiseless path never materialises a per-digit product tensor and
  is a pure modular GEMM — bit-exact against :func:`repro.rns.mod_matmul`.
  The noise path exploits that ``g`` independent per-digit Gaussian phase
  errors sum to a single Gaussian whose variance is the total set-bit
  count of the group's input residues (vectorised popcount), then runs
  detection and ADC once over the whole batched output.

Noiseless, both paths produce identical residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..determinism import RngLike, resolve_rng, spawn_rng
from ..rns.moduli import ModuliSet
from .detection import PhaseDetector
from .mmu import MMU, TWO_PI, popcount, wrap_phase

__all__ = ["MDPU", "MMVMU", "RnsMMVMU", "NoiseModel", "grouped_mod_gemm"]


def grouped_mod_gemm(w_res: np.ndarray, x_res: np.ndarray, modulus: int) -> np.ndarray:
    """Exact modular grouped GEMM for one modulus — the noiseless phase sums.

    ``w_res``: ``(G, T, v, g)`` weight-tile residues (``G`` K-groups,
    ``T`` row tiles); ``x_res``: ``(C, G, g)`` input residues.  Returns the
    ``(G, C, T, v)`` residues of every modular dot product, i.e. the phase
    accumulation of Eq. 12 wrapped once, computed as an integer matmul
    chunked along ``g`` so partial sums cannot overflow int64.  The output
    layout is the matmul-natural one (C-contiguous), so no strided copies
    are made anywhere in the one-pass engine.
    """
    big_g, t, v, g = w_res.shape
    c = x_res.shape[0]
    m = int(modulus)
    xt = np.ascontiguousarray(x_res.transpose(1, 0, 2))  # (G, C, g)
    wt = w_res.reshape(big_g, t * v, g).transpose(0, 2, 1)  # (G, g, T*v)
    if g * (m - 1) * (m - 1) < (1 << 53):
        # The whole reduction fits float64 exactly — use BLAS dgemm.  The
        # products are exact non-negative integers, so the int64 cast is
        # lossless truncation.
        prod = np.matmul(xt.astype(np.float64), wt.astype(np.float64))
        dots = prod.astype(np.int64)
        dots %= m
    else:
        chunk = max(1, (1 << 62) // ((m - 1) * (m - 1)))
        dots = np.zeros((big_g, c, t * v), dtype=np.int64)
        for start in range(0, g, chunk):
            stop = min(g, start + chunk)
            dots += np.matmul(xt[:, :, start:stop], wt[:, start:stop, :])
            dots %= m
    return dots.reshape(big_g, c, t, v)


@dataclass(frozen=True)
class NoiseModel:
    """Bundle of analog imperfections for the photonic path.

    Attributes
    ----------
    phase_error_std:
        Per-digit phase-encoding error std (rad) in the MMUs.
    detector_noise_std:
        Current-domain noise std at each detector, as a fraction of the
        detection amplitude (i.e. ``1 / amplitude-SNR``).
    use_adc:
        Whether detection quantises I/Q at ``ceil(log2 m)`` bits.
    """

    phase_error_std: float = 0.0
    detector_noise_std: float = 0.0
    use_adc: bool = True

    @classmethod
    def ideal(cls) -> "NoiseModel":
        return cls(0.0, 0.0, True)

    @classmethod
    def from_snr(cls, snr: float, use_adc: bool = True) -> "NoiseModel":
        """Detector noise for a given amplitude SNR."""
        if snr <= 0:
            raise ValueError("snr must be positive")
        return cls(0.0, 1.0 / snr, use_adc)


class MDPU:
    """Modular dot-product unit: ``g`` cascaded MMUs + one phase detector."""

    def __init__(
        self,
        modulus: int,
        g: int,
        noise: Optional[NoiseModel] = None,
        rng: RngLike = None,
    ):
        if g < 1:
            raise ValueError(f"g must be >= 1, got {g}")
        self.modulus = modulus
        self.g = g
        self.noise = noise or NoiseModel.ideal()
        self.rng = resolve_rng(rng)
        self.mmu = MMU(modulus, self.noise.phase_error_std, self.rng)
        self.detector = PhaseDetector(
            modulus,
            amplitude=1.0,
            noise_std=self.noise.detector_noise_std,
            use_adc=self.noise.use_adc,
            rng=self.rng,
        )

    def dot(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``| x . w |_m`` for residue vectors of length ``g``.

        Supports batched inputs: the last axis is the ``g`` axis.
        """
        x = np.asarray(x, dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        if x.shape[-1] != self.g or w.shape[-1] != self.g:
            raise ValueError(f"operand g-axis must be {self.g}")
        phase = self.mmu.phase(x, w).sum(axis=-1)
        return self.detector.detect_level(wrap_phase(phase))


class MMVMU:
    """Modular MVM unit: ``v`` MDPUs sharing the broadcast input vector."""

    def __init__(
        self,
        modulus: int,
        g: int,
        v: int,
        noise: Optional[NoiseModel] = None,
        rng: RngLike = None,
    ):
        if v < 1:
            raise ValueError(f"v must be >= 1, got {v}")
        self.modulus = modulus
        self.g = g
        self.v = v
        self.mdpu = MDPU(modulus, g, noise, rng)

    def mvm(self, weight_tile: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Modular MVM: tile ``(v, g)`` times vector ``(..., g)``.

        Returns residues of shape ``(..., v)``.  Batched vectors model the
        cycle-by-cycle streaming of a tiled GEMM.
        """
        weight_tile = np.asarray(weight_tile, dtype=np.int64)
        if weight_tile.shape != (self.v, self.g):
            raise ValueError(
                f"weight tile must be {(self.v, self.g)}, got {weight_tile.shape}"
            )
        x = np.asarray(x, dtype=np.int64)
        # Broadcast: (..., 1, g) against (v, g) -> (..., v, g).
        return self.mdpu.dot(x[..., None, :], weight_tile)

    def mvm_grouped(self, w_res: np.ndarray, x_res: np.ndarray) -> np.ndarray:
        """All tiles of a grouped GEMM through this modulus in one pass.

        ``w_res``: ``(G, T, v, g)`` weight-tile residues; ``x_res``:
        ``(C, G, g)`` input residues.  Returns ``(G, C, T, v)`` output
        residues.  Noiseless this is a pure integer modular GEMM; with
        noise enabled the physical phase of every dot product is rebuilt
        from the integer sum, perturbed (summed per-digit variance), and
        detected through the I/Q + ADC front end in one vectorised call.
        """
        w_res = np.asarray(w_res, dtype=np.int64)
        x_res = np.asarray(x_res, dtype=np.int64)
        if w_res.ndim != 4 or w_res.shape[2:] != (self.v, self.g):
            raise ValueError(
                f"weight tiles must be (G, T, {self.v}, {self.g}), got {w_res.shape}"
            )
        if x_res.ndim != 3 or x_res.shape[1:] != (w_res.shape[0], self.g):
            raise ValueError(
                f"inputs must be (C, {w_res.shape[0]}, {self.g}), got {x_res.shape}"
            )
        dots = grouped_mod_gemm(w_res, x_res, self.modulus)  # (G, C, T, v)
        noise = self.mdpu.noise
        if noise.phase_error_std == 0.0 and noise.detector_noise_std == 0.0:
            # Detection of exact level phases is the identity (the property
            # the per-tile path asserts test-side) — skip the float stage.
            return dots
        phase = dots.astype(np.float64)
        phase *= TWO_PI / self.modulus
        if noise.phase_error_std > 0.0:
            # g independent per-digit errors ~ N(0, std^2 * popcount(x_j))
            # sum to one Gaussian with variance std^2 * total set bits.
            total_bits = popcount(x_res).sum(axis=-1)  # (C, G)
            sigma = noise.phase_error_std * np.sqrt(
                total_bits.T.astype(np.float64)
            )  # (G, C)
            phase += self.mdpu.mmu.rng.normal(
                size=phase.shape
            ) * sigma[:, :, None, None]
        return self.mdpu.detector.detect_level(wrap_phase(phase))


class RnsMMVMU:
    """``n`` MMVMUs — one per modulus — forming the RNS tile engine."""

    def __init__(
        self,
        mset: ModuliSet,
        g: int,
        v: int,
        noise: Optional[NoiseModel] = None,
        rng: RngLike = None,
    ):
        self.mset = mset
        self.g = g
        self.v = v
        self.noise = noise or NoiseModel.ideal()
        rng = resolve_rng(rng)
        self.units = [
            MMVMU(m, g, v, noise, spawn_rng(rng)) for m in mset.moduli
        ]

    @property
    def is_ideal(self) -> bool:
        """True when no stochastic imperfection is modelled (bit-exact)."""
        return (
            self.noise.phase_error_std == 0.0
            and self.noise.detector_noise_std == 0.0
        )

    def mvm(self, weight_residues: np.ndarray, x_residues: np.ndarray) -> np.ndarray:
        """All ``n`` modular MVMs of one tile.

        ``weight_residues``: ``(n, v, g)``; ``x_residues``: ``(n, ..., g)``.
        Returns ``(n, ..., v)``.
        """
        weight_residues = np.asarray(weight_residues, dtype=np.int64)
        x_residues = np.asarray(x_residues, dtype=np.int64)
        if weight_residues.shape[0] != self.mset.n or x_residues.shape[0] != self.mset.n:
            raise ValueError("leading axis must match the number of moduli")
        outs = [
            unit.mvm(weight_residues[i], x_residues[i])
            for i, unit in enumerate(self.units)
        ]
        return np.stack(outs, axis=0)

    def mvm_grouped(self, weight_residues: np.ndarray, x_residues: np.ndarray) -> np.ndarray:
        """One-pass batched GEMM over every tile of every K-group.

        ``weight_residues``: ``(n, G, T, v, g)``; ``x_residues``:
        ``(n, C, G, g)``.  Returns ``(n, G, C, T, v)``.  The loop below is
        over the ``n`` moduli only (3-5 channels); all tile/batch axes are
        vectorised inside each unit.
        """
        weight_residues = np.asarray(weight_residues, dtype=np.int64)
        x_residues = np.asarray(x_residues, dtype=np.int64)
        if (
            weight_residues.shape[0] != self.mset.n
            or x_residues.shape[0] != self.mset.n
        ):
            raise ValueError("leading axis must match the number of moduli")
        out = None
        for i, unit in enumerate(self.units):
            res = unit.mvm_grouped(weight_residues[i], x_residues[i])
            if out is None:
                out = np.empty((self.mset.n,) + res.shape, dtype=np.int64)
            out[i] = res
        return out
