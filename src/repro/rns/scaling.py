"""RNS scaling, magnitude comparison and sign detection.

The related-work discussion (Section VII) contrasts Mirage's hybrid
RNS+FP approach with accelerators that *stay* in the RNS domain, which
must periodically scale values back into range and need magnitude
comparison / sign detection — operations that are awkward in pure RNS.
This module implements those classical algorithms so the trade-off is
executable:

* :func:`mrc_compare` / :func:`mrc_sign` — comparison and sign detection
  through mixed-radix digits (the standard division-free method);
* :func:`scale_by_modulus` — exact scaling by one modulus ``m_j`` (divide
  by ``m_j`` and stay in residue form), the building block of in-RNS
  rescaling;
* :func:`approximate_scale` — scaling by an arbitrary power of two via
  reconstruct-shift-reencode, the fallback Mirage's hybrid design makes
  unnecessary.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .arithmetic import mod_add
from .conversion import (
    crt_reverse,
    forward_convert,
    mixed_radix_digits,
    to_signed,
)
from .moduli import ModuliSet

__all__ = [
    "mrc_compare",
    "mrc_sign",
    "scale_by_modulus",
    "approximate_scale",
    "exact_power_of_two_scale",
]


def mrc_compare(a_res: np.ndarray, b_res: np.ndarray, mset: ModuliSet) -> np.ndarray:
    """Compare RNS representatives without full reconstruction.

    Returns -1 / 0 / +1 per element (a < b / a == b / a > b), comparing
    the ``[0, M)`` representatives via their mixed-radix digits, most
    significant first — no value ever leaves residue-sized arithmetic.
    """
    da = mixed_radix_digits(a_res, mset)
    db = mixed_radix_digits(b_res, mset)
    shape = da.shape[1:]
    result = np.zeros(shape, dtype=np.int64)
    # Mixed-radix digit i has weight m_1 * ... * m_{i-1}: compare from the
    # most significant digit down, keeping the first difference.
    for i in reversed(range(mset.n)):
        diff = np.sign(da[i].astype(np.int64) - db[i].astype(np.int64))
        result = np.where(result == 0, diff, result)
    return result


def mrc_sign(res: np.ndarray, mset: ModuliSet) -> np.ndarray:
    """Sign of a symmetrically-mapped RNS value (-1, 0, +1).

    A representative ``X`` encodes a negative value when ``X > M - 1 - ψ``,
    detected by comparing against that constant in mixed radix.
    """
    bound = mset.dynamic_range - 1 - mset.psi
    bound_res = forward_convert(np.full(res.shape[1:], bound, dtype=np.int64), mset)
    cmp = mrc_compare(res, bound_res, mset)
    zero = np.all(res == 0, axis=0)
    # X <= M-1-psi -> non-negative;  X > M-1-psi -> negative.
    return np.where(zero, 0, np.where(cmp <= 0, 1, -1))


def scale_by_modulus(res: np.ndarray, mset: ModuliSet, j: int) -> Tuple[np.ndarray, ModuliSet]:
    """Exact division by modulus ``m_j`` within the RNS.

    Computes ``floor(X / m_j)`` represented in the *reduced* moduli set
    (``m_j`` removed) — the classical base-extension-free scaling step.
    Returns ``(residues, reduced_set)``.

    The algorithm: ``(X - |X|_{m_j}) / m_j`` is exact, and division by
    ``m_j`` modulo ``m_i`` is multiplication by the inverse.
    """
    if not 0 <= j < mset.n:
        raise IndexError(f"modulus index {j} out of range for n={mset.n}")
    mods = mset.moduli
    m_j = mods[j]
    reduced = ModuliSet(tuple(m for i, m in enumerate(mods) if i != j))
    x_mod_mj = res[j]
    out = []
    for i, m in enumerate(mods):
        if i == j:
            continue
        inv = pow(m_j % m, -1, m)
        out.append(np.mod((res[i].astype(np.int64) - x_mod_mj) * inv, m))
    return np.stack(out, axis=0), reduced


def approximate_scale(res: np.ndarray, mset: ModuliSet, shift_bits: int) -> np.ndarray:
    """Scale by ``2^-shift_bits`` (arithmetic shift of the signed value).

    Performed by reconstruct → shift → re-encode, i.e. what a pure-RNS
    accelerator must approximate with dedicated hardware and what Mirage
    avoids by returning to BFP after every GEMM.  See
    :func:`exact_power_of_two_scale` for the genuine in-RNS algorithm
    (division by the power-of-two channel plus base extension).
    """
    if shift_bits < 0:
        raise ValueError("shift_bits must be >= 0")
    signed = to_signed(crt_reverse(res, mset), mset)
    shifted = np.right_shift(signed.astype(np.int64), shift_bits)
    return forward_convert(np.mod(shifted, mset.dynamic_range), mset)


def exact_power_of_two_scale(res: np.ndarray, mset: ModuliSet) -> np.ndarray:  # repro: waive[dead-public-name] -- Sec. VII exact in-RNS rescaling that Mirage avoids by returning to BFP
    """True in-RNS arithmetic shift by the set's power-of-two channel.

    For a set containing a modulus ``2^k`` (e.g. the special family),
    ``floor(X / 2^k)`` of the *signed* value is computed without ever
    reconstructing ``X`` — the textbook pure-RNS rescale:

    1. add an offset ``O`` (a multiple of ``2^k`` just above ψ) so the
       representative is the value itself, non-negative;
    2. divide exactly by the ``2^k`` channel
       (:func:`scale_by_modulus` — multiply-by-inverse per channel);
    3. regenerate the dropped ``2^k`` channel by base extension
       (:func:`repro.rns.base_extension.mrc_base_extend`);
    4. subtract ``O / 2^k``.

    Requires signed inputs within ``[-ψ + 2^k, ψ - 2^k]`` (the offset
    needs that headroom); returns residues over the full original set.
    This is what :func:`approximate_scale` models functionally; the
    related-work analysis charges pure-RNS pipelines for *this* circuit.
    """
    from .base_extension import mrc_base_extend

    pow2 = [(i, m) for i, m in enumerate(mset.moduli)
            if m >= 2 and (m & (m - 1)) == 0]
    if not pow2:
        raise ValueError(f"moduli set {mset.moduli} has no power-of-two channel")
    j, m_j = pow2[-1]
    k = m_j.bit_length() - 1
    # Offset: the smallest multiple of 2^k >= psi.
    offset = -(-mset.psi // m_j) * m_j
    off_res = forward_convert(
        np.full(np.asarray(res).shape[1:], offset % mset.dynamic_range,
                dtype=np.int64),
        mset,
    )
    shifted_rep = mod_add(res, off_res, mset)
    scaled_reduced, reduced = scale_by_modulus(shifted_rep, mset, j)
    regenerated = mrc_base_extend(scaled_reduced, reduced, (m_j,))[0]
    # Reassemble the full-set residue tensor in the original channel order.
    out = np.empty_like(np.asarray(res, dtype=np.int64))
    ri = 0
    for i, m in enumerate(mset.moduli):
        if i == j:
            out[i] = regenerated % m
        else:
            out[i] = scaled_reduced[ri]
            ri += 1
    # Subtract the scaled offset (offset / 2^k), back in signed terms.
    back = forward_convert(
        np.full(out.shape[1:], (-(offset >> k)) % mset.dynamic_range,
                dtype=np.int64),
        mset,
    )
    return mod_add(out, back, mset)
