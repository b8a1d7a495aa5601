"""Fault-tolerant photonic core with Redundant RNS (Section VI-E).

The paper points to RRNS [17] as the path to noise resilience: run the
modular GEMMs over ``n + r`` moduli instead of ``n`` (throughput is
unchanged, component count grows ~linearly) and majority-decode every
output, correcting up to ``floor(r / 2)`` corrupted residue channels.

:class:`FaultTolerantCore` implements exactly that on top of the photonic
device model: each modulus gets its own (noisy) MMVMU, outputs are decoded
with :class:`~repro.rns.rrns.RRNSCodec`, and per-GEMM telemetry reports
how many outputs were corrected or lost — the quantities the Section VI-E
discussion trades off against the extra moduli.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Optional, Sequence

import numpy as np

from ..bfp.format import BFPConfig
from ..determinism import resolve_rng, spawn_rng
from ..bfp.gemm import bfp_encode_matrix
from ..photonic.mdpu import MMVMU, NoiseModel
from ..rns.rrns import RRNSCodec

__all__ = ["FaultTolerantCore", "FaultTolerantStats", "rrns_fault_rates"]


def rrns_fault_rates(codec: RRNSCodec, p_channel: float) -> Dict[str, float]:
    """Analytic per-output fault probabilities of an RRNS code.

    With each of the ``n + r`` residue channels independently corrupted
    with probability ``p_channel``, a code with ``r`` redundant moduli
    detects any ``1..r`` corrupted channels and corrects up to
    ``floor(r / 2)`` of them (majority subset decode).  Per decoded
    output:

    * ``detected``      — ≥ 1 channel corrupted: ``1 - (1 - p)^(n+r)``
      (faults beyond ``r`` simultaneous channels are vanishingly rare at
      the operating points of interest and counted here too);
    * ``correctable``   — 1..floor(r/2) channels corrupted (binomial);
    * ``uncorrectable`` — detected but past the correction bound.

    These are the rates the serving layer's fault injector uses to turn
    a physical per-channel error rate into a stream of transient faults
    (:meth:`repro.serve.faults.FaultPlan.from_rrns_rates`), keeping the
    injected fault mix tied to the paper's RRNS fault model instead of
    hand-picked constants.
    """
    if not 0.0 <= p_channel <= 1.0:
        raise ValueError(f"p_channel must be in [0, 1], got {p_channel}")
    n_ch = codec.n + codec.r
    p = float(p_channel)
    detected = 1.0 - (1.0 - p) ** n_ch
    correctable = sum(
        comb(n_ch, k) * p**k * (1.0 - p) ** (n_ch - k)
        for k in range(1, codec.max_correctable() + 1)
    )
    return {
        "p_channel": p,
        "channels": n_ch,
        "max_correctable_channels": codec.max_correctable(),
        "detected": detected,
        "correctable": correctable,
        "uncorrectable": max(0.0, detected - correctable),
    }


@dataclass
class FaultTolerantStats:
    """Telemetry for one (or accumulated) fault-tolerant GEMM."""

    outputs: int = 0
    corrected: int = 0
    uncorrectable: int = 0


class FaultTolerantCore:
    """RRNS-protected photonic tensor core.

    Parameters
    ----------
    info_moduli / redundant_moduli:
        The RRNS code (defaults: the paper's k=5 set plus two redundant
        primes, tolerating one corrupted channel per output).
    bm, g, v:
        BFP configuration and array geometry.
    noise:
        Analog noise applied to *every* channel's MMVMU.
    """

    def __init__(
        self,
        info_moduli: Sequence[int] = (31, 32, 33),
        redundant_moduli: Sequence[int] = (37, 41),
        bm: int = 4,
        g: int = 16,
        v: int = 32,
        noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.codec = RRNSCodec(info_moduli, redundant_moduli)
        self.bfp = BFPConfig(bm, g)
        if not self.codec.info_set.supports_bfp(bm, g):
            raise ValueError(
                f"information moduli {tuple(info_moduli)} violate Eq. 13 "
                f"for bm={bm}, g={g}"
            )
        self.g, self.v = g, v
        rng = resolve_rng(rng)
        self.units = [
            MMVMU(m, g, v, noise, spawn_rng(rng))
            for m in self.codec.full_set.moduli
        ]
        self.stats = FaultTolerantStats()

    # ------------------------------------------------------------------
    def matmul(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``w @ x`` through the noisy RRNS-protected dataflow.

        Executes as one batched pass: all ``(K-group, row-tile)`` weight
        tiles are packed per channel and pushed through each channel's
        MMVMU in a single grouped call, then the whole output tensor is
        decoded at once (vectorised fast-accept, scalar decode only for
        the suspect outputs).  Uncorrectable outputs fall back to the raw
        information-moduli CRT reconstruction (the best available
        estimate) and are counted in the stats.
        """
        w = np.asarray(w, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if w.ndim != 2 or x.ndim != 2 or w.shape[1] != x.shape[0]:
            raise ValueError(f"bad GEMM shapes {w.shape} @ {x.shape}")
        r, _ = w.shape
        c = x.shape[1]
        w_mant, w_exp = bfp_encode_matrix(w, self.bfp)
        x_mant, x_exp = bfp_encode_matrix(x.T, self.bfp)
        num_groups = w_mant.shape[1]
        full = self.codec.full_set

        # Pack weight mantissae as (G, T, v, g) tiles (zero row padding).
        row_tiles = -(-r // self.v)
        padded = np.zeros((row_tiles * self.v, num_groups, self.g), dtype=np.int64)
        padded[:r] = w_mant
        tiles = padded.reshape(row_tiles, self.v, num_groups, self.g).transpose(
            2, 0, 1, 3
        )  # (G, T, v, g)

        # One grouped pass per residue channel (the only per-channel loop).
        res_out = np.stack(
            [
                unit.mvm_grouped(np.mod(tiles, m), np.mod(x_mant, m))
                for unit, m in zip(self.units, full.moduli)
            ]
        )  # (n+r, G, C, T, v)

        # Fold (T, v) into the padded row axis, drop padding, decode once.
        n_ch = res_out.shape[0]
        rows = res_out.reshape(n_ch, num_groups, c, row_tiles * self.v)[..., :r]
        signed = self._decode_batch(
            np.ascontiguousarray(rows).reshape(n_ch, -1)
        ).reshape(num_groups, c, r)

        out = np.zeros((r, c), dtype=np.float64)
        for gi in range(num_groups):
            scale = np.ldexp(
                1.0,
                (x_exp[:, gi][:, None] + w_exp[:, gi][None, :]) - 2 * self.bfp.bm,
            )  # (C, R)
            out += (signed[gi] * scale).T
        return out

    # ------------------------------------------------------------------
    def _decode_batch(self, flat: np.ndarray) -> np.ndarray:
        """Decode ``(n+r, N)`` residue columns to signed integers.

        Fast path: accept outputs whose full-set CRT already lands in the
        signed legal region (no channel error) — fully vectorised; the
        expensive per-output subset decode runs only on the suspects.
        """
        from ..rns.conversion import crt_reverse

        full_vals = np.asarray(crt_reverse(flat, self.codec.full_set))
        psi = self.codec.info_set.psi
        m_full = self.codec.full_set.dynamic_range
        lo_ok = full_vals <= psi
        hi_ok = full_vals >= m_full - psi
        signed = np.where(hi_ok, full_vals - m_full, full_vals).astype(np.float64)
        self.stats.outputs += flat.shape[1]
        suspects = np.nonzero(~(lo_ok | hi_ok))[0]
        if suspects.size == 0:
            return signed
        info_idx = [
            i for i, m in enumerate(self.codec.full_set.moduli)
            if m in self.codec.info_moduli
        ]
        for j in suspects:
            result = self.codec.decode_scalar_signed(flat[:, j])
            if result.ok:
                self.stats.corrected += 1
                signed[j] = result.value
            else:
                self.stats.uncorrectable += 1
                info_res = flat[info_idx, j][:, None]
                raw = int(np.asarray(crt_reverse(info_res, self.codec.info_set))[0])
                signed[j] = raw if raw <= psi else raw - self.codec.legal_range
        return signed
