"""Redundant Residue Number System (RRNS) error detection and correction.

Section VI-E of the paper points to RRNS as the fault-tolerance extension:
augmenting the ``n`` information moduli with ``r`` redundant moduli lets the
system *detect* up to ``r`` corrupted residue channels and *correct* up to
``floor(r / 2)`` of them by majority-logic decoding — every subset of ``n``
channels reconstructs a candidate value, and the candidate agreeing with the
most channels wins.

This module implements that scheme generically so that noisy photonic
channels (see :mod:`repro.photonic.noise`) can be plugged in front of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .conversion import forward_convert
from .moduli import ModuliSet

__all__ = ["RRNSCodec", "DecodeResult"]


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of an RRNS decode.

    Attributes
    ----------
    value:
        Reconstructed representative in ``[0, M_info)`` (``None`` when
        decoding failed, i.e. no candidate was consistent enough).
    agreeing_channels:
        Number of residue channels consistent with ``value``.
    corrected_channels:
        Indices of channels whose received residue disagreed with ``value``
        (the errors that were corrected).
    """

    value: Optional[int]
    agreeing_channels: int
    corrected_channels: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.value is not None


class RRNSCodec:
    """Encoder/decoder for a redundant RNS code.

    Parameters
    ----------
    info_moduli:
        The ``n`` information moduli; their product bounds the legal range.
    redundant_moduli:
        The ``r`` redundant moduli.  All ``n + r`` moduli must be pairwise
        co-prime, and each redundant modulus must exceed every information
        modulus (the standard RRNS validity condition that keeps any
        ``n``-subset's range at least ``M_info``).
    """

    def __init__(self, info_moduli: Iterable[int], redundant_moduli: Iterable[int]):
        info = tuple(sorted(int(m) for m in info_moduli))
        red = tuple(sorted(int(m) for m in redundant_moduli))
        if not red:
            raise ValueError("RRNS needs at least one redundant modulus")
        if max(info) >= min(red):
            raise ValueError(
                "every redundant modulus must exceed every information modulus; "
                f"got info={info}, redundant={red}"
            )
        self.full_set = ModuliSet(info + red)
        self.info_set = ModuliSet(info)
        self.info_moduli = info
        self.redundant_moduli = red
        # Positions of the information/redundant moduli in the (sorted)
        # full set — sorting keeps ModuliSet layouts deterministic.
        full = self.full_set.moduli
        self._index_of = {m: i for i, m in enumerate(full)}

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.info_moduli)

    @property
    def r(self) -> int:
        return len(self.redundant_moduli)

    @property
    def legal_range(self) -> int:
        """Values must lie in ``[0, M_info)`` to be a legal codeword."""
        return self.info_set.dynamic_range

    def max_correctable(self) -> int:
        """Up to ``floor(r / 2)`` channel errors are correctable."""
        return self.r // 2

    # ------------------------------------------------------------------
    def encode(self, values) -> np.ndarray:
        """Encode non-negative representatives in ``[0, M_info)``.

        Returns residues over all ``n + r`` channels (full-set order).
        """
        arr = np.asarray(values)
        if arr.size and (int(np.min(arr)) < 0 or int(np.max(arr)) >= self.legal_range):
            raise OverflowError(
                f"values must be in [0, {self.legal_range}) for a legal codeword"
            )
        return forward_convert(arr, self.full_set)

    def decode_scalar(self, residues: Sequence[int]) -> DecodeResult:
        """Majority-logic decode of one received residue vector.

        Every ``n``-subset of channels proposes a CRT reconstruction; a
        proposal is accepted when (a) it is a legal codeword
        (``< M_info``) and (b) at least ``n + ceil(r/2)`` channels agree
        with it — which uniquely identifies the codeword when at most
        ``floor(r/2)`` channels are corrupted.
        """
        res = [int(v) for v in residues]
        full = self.full_set.moduli
        if len(res) != len(full):
            raise ValueError(f"expected {len(full)} residues, got {len(res)}")
        needed = self.n + (self.r + 1) // 2
        best: Optional[DecodeResult] = None
        for subset in itertools.combinations(range(len(full)), self.n):
            sub_mods = ModuliSet(tuple(full[i] for i in subset))
            sub_res = np.array([[res[i]] for i in subset], dtype=np.int64)
            candidate = int(np.asarray(_crt(sub_res, sub_mods))[0])
            if candidate >= self.legal_range:
                continue
            agree = [i for i, m in enumerate(full) if candidate % m == res[i]]
            if len(agree) >= needed:
                wrong = tuple(i for i in range(len(full)) if i not in agree)
                cand_result = DecodeResult(candidate, len(agree), wrong)
                if best is None or cand_result.agreeing_channels > best.agreeing_channels:
                    best = cand_result
        if best is None:
            return DecodeResult(None, 0, ())
        return best

    def decode_scalar_signed(self, residues: Sequence[int]) -> DecodeResult:
        """Majority-logic decode for *signed* values in ``[-ψ, ψ]``.

        Hardware computes residues of the true signed integer ``y``
        directly (``y mod m_i``), so the full-set representative is
        ``y mod M_full`` and legal codewords occupy ``[0, ψ]`` together
        with ``[M_sub - ψ, M_sub)`` for every reconstruction modulus.
        The returned ``value`` is the signed integer itself.
        """
        res = [int(v) for v in residues]
        full = self.full_set.moduli
        if len(res) != len(full):
            raise ValueError(f"expected {len(full)} residues, got {len(res)}")
        psi = self.info_set.psi
        needed = self.n + (self.r + 1) // 2
        best: Optional[DecodeResult] = None
        for subset in itertools.combinations(range(len(full)), self.n):
            sub_mods = ModuliSet(tuple(full[i] for i in subset))
            sub_res = np.array([[res[i]] for i in subset], dtype=np.int64)
            candidate = int(np.asarray(_crt(sub_res, sub_mods))[0])
            big_m = sub_mods.dynamic_range
            if candidate <= psi:
                signed = candidate
            elif candidate >= big_m - psi:
                signed = candidate - big_m
            else:
                continue
            agree = [i for i, m in enumerate(full) if signed % m == res[i]]
            if len(agree) >= needed:
                wrong = tuple(i for i in range(len(full)) if i not in agree)
                cand = DecodeResult(signed, len(agree), wrong)
                if best is None or cand.agreeing_channels > best.agreeing_channels:
                    best = cand
        if best is None:
            return DecodeResult(None, 0, ())
        return best

    def decode(self, residues) -> Tuple[np.ndarray, List[DecodeResult]]:
        """Vector decode; returns reconstructed values and per-element results.

        Failed elements are returned as ``-1`` in the value array.
        """
        res = np.asarray(residues)
        flat = res.reshape(res.shape[0], -1)
        out = np.empty(flat.shape[1], dtype=np.int64)
        details: List[DecodeResult] = []
        for j in range(flat.shape[1]):
            d = self.decode_scalar(flat[:, j])
            details.append(d)
            out[j] = d.value if d.ok else -1
        return out.reshape(res.shape[1:]), details

    # ------------------------------------------------------------------
    def detect(self, residues: Sequence[int]) -> bool:
        """Pure detection: True when the received vector is NOT a legal
        codeword (i.e. some channel is corrupted)."""
        res = [int(v) for v in residues]
        candidate = int(np.asarray(_crt(np.array([[v] for v in res]), self.full_set))[0])
        if candidate < self.legal_range:
            return False
        return True


def _crt(res: np.ndarray, mset: ModuliSet) -> np.ndarray:
    # Local import indirection keeps rrns importable without cycles.
    from .conversion import crt_reverse

    return crt_reverse(res, mset)
