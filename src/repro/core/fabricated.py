"""A tensor core built from *fabricated* (process-varied) devices.

:class:`~repro.core.tensor_core.PhotonicRnsTensorCore` proves the
architecture is lossless on ideal devices;
:class:`~repro.core.fault_tolerant.FaultTolerantCore` adds stochastic
shot/thermal noise.  This module closes the remaining Section VI-E loop:
**static fabrication errors**.  Every MDPU row of every modulus channel
is a :class:`~repro.photonic.variation.VariedMDPU` instance with its own
VπL biases, MRR detuning and DAC-quantised drives; the core optionally
runs the :mod:`repro.photonic.calibration` procedure on each device at
construction and operates through the fitted corrections.

The demonstrable claims:

* an **uncalibrated** fabricated core corrupts GEMM outputs (residue
  decisions flip);
* the **calibrated** core is *bit-exact* against the integer BFP
  reference again — process variations "calibrated away", end to end
  through the full Fig. 2 dataflow.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..bfp.gemm import bfp_encode_matrix
from ..photonic.calibration import CalibratedMDPU, characterize
from ..photonic.variation import VariationModel, VariedMDPU
from ..rns.conversion import crt_reverse, forward_convert_signed, to_signed
from .tensor_core import CoreConfig

__all__ = ["FabricatedTensorCore"]


class FabricatedTensorCore:
    """Tiled-GEMM execution on process-varied photonic devices.

    Parameters
    ----------
    config:
        Geometry / number formats (same knobs as the ideal core).
    variation:
        Fabrication imperfection magnitudes (shared across devices; each
        device draws its own realisation from ``variation.seed`` plus a
        per-device offset).
    calibrate:
        ``None`` (operate raw), ``"per_mmu"`` or ``"per_digit"``.
    measurement_noise / repeats / refine_iters:
        Probe parameters forwarded to
        :func:`repro.photonic.calibration.characterize`.
    """

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        variation: Optional[VariationModel] = None,
        calibrate: Optional[str] = "per_digit",
        measurement_noise: float = 0.002,
        repeats: int = 2,
        refine_iters: int = 1,
    ):
        self.config = config or CoreConfig()
        self.mset = self.config.moduli()
        if not self.mset.supports_bfp(self.config.bm, self.config.g):
            raise ValueError(
                f"Eq. 13 violated: k={self.config.resolved_k()} cannot hold "
                f"bm={self.config.bm}, g={self.config.g} dot products"
            )
        self.variation = variation or VariationModel(
            dac_bits=8, mrr_rel_error=0.01, ps_rel_bias_std=0.02, seed=0
        )
        if calibrate not in (None, "per_mmu", "per_digit"):
            raise ValueError(
                f"calibrate must be None, 'per_mmu' or 'per_digit', "
                f"got {calibrate!r}"
            )
        self.calibrate = calibrate
        self.calibration_probes = 0
        # One fabricated device per (modulus channel, MDPU row), each with
        # its own imperfection realisation.
        self._devices: List[List[object]] = []
        for mi, m in enumerate(self.mset.moduli):
            row_devices = []
            for row in range(self.config.v):
                dev_var = VariationModel(
                    dac_bits=self.variation.dac_bits,
                    mrr_rel_error=self.variation.mrr_rel_error,
                    ps_rel_bias_std=self.variation.ps_rel_bias_std,
                    seed=self.variation.seed + 1000 * mi + row,
                )
                mdpu = VariedMDPU(m, self.config.g, dev_var)
                if calibrate is not None:
                    table = characterize(
                        mdpu, mode=calibrate,
                        measurement_noise=measurement_noise,
                        repeats=repeats, refine_iters=refine_iters,
                        seed=dev_var.seed + 7,
                    )
                    self.calibration_probes += table.probes
                    row_devices.append(CalibratedMDPU(mdpu, table))
                else:
                    row_devices.append(mdpu)
            self._devices.append(row_devices)

    # ------------------------------------------------------------------
    def _tile_mvm(self, tile: np.ndarray, x_res: np.ndarray) -> np.ndarray:
        """One tile's modular MVM on the fabricated devices.

        ``tile``: (n, v, g) weight residues; ``x_res``: (n, C, g) input
        residues; returns (n, C, v) output residues.
        """
        n, v, g = tile.shape
        c = x_res.shape[1]
        out = np.zeros((n, c, v), dtype=np.int64)
        for mi in range(n):
            for row in range(v):
                w_row = np.broadcast_to(tile[mi, row], (c, g))
                out[mi, :, row] = self._devices[mi][row].dot(
                    x_res[mi], w_row
                )
        return out

    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``w @ x`` through the fabricated-device dataflow (Fig. 2)."""
        w = np.asarray(w, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
            raise ValueError(f"bad GEMM shapes {w.shape} @ {x.shape}")
        cfg = self.config
        r, c = w.shape[0], x.shape[1]

        w_mant, w_exp = bfp_encode_matrix(w, cfg.bfp())
        x_mant, x_exp = bfp_encode_matrix(x.T, cfg.bfp())
        num_groups = w_mant.shape[1]

        out = np.zeros((r, c), dtype=np.float64)
        row_tiles = -(-r // cfg.v)
        for gi in range(num_groups):
            w_res = forward_convert_signed(w_mant[:, gi, :], self.mset)
            x_res = forward_convert_signed(x_mant[:, gi, :], self.mset)
            for rt in range(row_tiles):
                lo, hi = rt * cfg.v, min(r, (rt + 1) * cfg.v)
                tile = np.zeros((self.mset.n, cfg.v, cfg.g), dtype=np.int64)
                tile[:, : hi - lo, :] = w_res[:, lo:hi, :]
                res_out = self._tile_mvm(tile, x_res)
                ints = to_signed(
                    crt_reverse(res_out, self.mset), self.mset
                ).astype(np.float64)
                scale = np.ldexp(
                    1.0,
                    (x_exp[:, gi][:, None] + w_exp[lo:hi, gi][None, :])
                    - 2 * cfg.bm,
                )
                out[lo:hi, :] += (ints[:, : hi - lo] * scale).T
        return out
