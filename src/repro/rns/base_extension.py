"""Base extension: recomputing residues for moduli outside the base set.

A pure-RNS accelerator (the Section VII alternatives, Res-DNN / RNSnet)
cannot avoid base extension: after scaling by one modulus the value lives
in a *reduced* base and the dropped channel must be regenerated before the
next multiplication, and overflow-safe rescaling needs the value expressed
in an *extended* base first.  Mirage sidesteps all of this by returning to
binary/BFP after every GEMM; this module implements the classical
algorithms so that the cost Mirage avoids is executable.

Three methods, in increasing hardware friendliness:

* :func:`mrc_base_extend` — Szabo–Tanaka: exact, via mixed-radix digits;
  ``O(n^2)`` sequential modular steps (the mixed-radix recursion is a
  carry chain, so it is slow in hardware).
* :func:`sk_base_extend` — Shenoy–Kumaresan: exact and parallel, but
  requires a *redundant* channel ``x_r = X mod m_r`` (``m_r >= n``) to
  have been carried through every preceding operation.
* :func:`approx_crt_rank` / :func:`approx_base_extend` — the approximate
  CRT method: parallel and redundancy-free, but wrong by one multiple of
  ``M`` for values within ``M / 2^frac_bits`` of a wrap boundary.

All functions are vectorised over trailing axes: residue tensors have
shape ``(n, ...)`` matching :mod:`repro.rns.conversion`.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .conversion import mixed_radix_digits
from .moduli import ModuliSet, pairwise_coprime

__all__ = [
    "mrc_base_extend",
    "sk_base_extend",
    "approx_crt_rank",
    "approx_base_extend",
    "extension_op_counts",
]


def _check_target(mset: ModuliSet, new_moduli: Sequence[int]) -> Tuple[int, ...]:
    target = tuple(int(m) for m in new_moduli)
    if any(m < 2 for m in target):
        raise ValueError(f"target moduli must be >= 2, got {target}")
    if not pairwise_coprime(tuple(mset.moduli) + target):
        raise ValueError(
            f"target moduli {target} must be co-prime with the base {mset.moduli}"
        )
    return target


def mrc_base_extend(
    residues: np.ndarray, mset: ModuliSet, new_moduli: Sequence[int]
) -> np.ndarray:
    """Szabo–Tanaka base extension through mixed-radix digits.

    Converts ``X`` (given by ``residues`` over ``mset``) into residues for
    ``new_moduli`` without ever reconstructing ``X``: the mixed-radix
    expansion ``X = a_1 + a_2 m_1 + a_3 m_1 m_2 + ...`` is evaluated
    modulo each target modulus.

    Returns an array of shape ``(len(new_moduli), ...)``.
    """
    target = _check_target(mset, new_moduli)
    digits = mixed_radix_digits(residues, mset)  # (n, ...)
    out = []
    for p in target:
        # Weight of digit i modulo p: prod_{j<i} m_j mod p.
        acc = np.zeros(digits.shape[1:], dtype=np.int64)
        weight = 1
        for i, m in enumerate(mset.moduli):
            acc = (acc + (digits[i] % p) * weight) % p
            weight = (weight * m) % p
        out.append(acc)
    return np.stack(out, axis=0)


def sk_base_extend(  # repro: waive[dead-public-name] -- Sec. VII pure-RNS base extension that Mirage avoids; kept executable beside mrc_base_extend
    residues: np.ndarray,
    mset: ModuliSet,
    redundant_residue: np.ndarray,
    redundant_modulus: int,
    new_moduli: Sequence[int],
) -> np.ndarray:
    """Shenoy–Kumaresan base extension using a redundant channel.

    ``X = sum_i |x_i T_i|_{m_i} M_i - alpha M`` with rank ``alpha < n``.
    The redundant residue pins the rank::

        alpha = | M^{-1} ( sum_i |x_i T_i|_{m_i} |M_i|_{m_r} - x_r ) |_{m_r}

    after which every target residue is a parallel weighted sum — no
    mixed-radix carry chain.  Requires ``m_r > n - 1`` and ``x_r`` to be
    exact (i.e. carried alongside the base channels through every
    preceding operation — the hidden tax on pure-RNS designs).
    """
    target = _check_target(mset, new_moduli)
    m_r = int(redundant_modulus)
    if m_r <= mset.n - 1:
        raise ValueError(f"redundant modulus {m_r} must exceed n-1={mset.n - 1}")
    if math.gcd(m_r, mset.dynamic_range) != 1:
        raise ValueError("redundant modulus must be co-prime with the base")
    mi, ti = mset.crt_weights
    res = np.asarray(residues, dtype=np.int64)
    x_r = np.asarray(redundant_residue, dtype=np.int64) % m_r

    # v_i = |x_i T_i|_{m_i}  (the CRT summand scale factors, < m_i).
    v = np.stack(
        [(res[i] * (ti[i] % m)) % m for i, m in enumerate(mset.moduli)], axis=0
    )

    # Rank from the redundant channel.
    s_r = np.zeros(v.shape[1:], dtype=np.int64)
    for i in range(mset.n):
        s_r = (s_r + v[i] * (mi[i] % m_r)) % m_r
    m_inv_r = pow(mset.dynamic_range % m_r, -1, m_r)
    alpha = ((s_r - x_r) * m_inv_r) % m_r

    out = []
    for p in target:
        s_p = np.zeros(v.shape[1:], dtype=np.int64)
        for i in range(mset.n):
            s_p = (s_p + v[i] * (mi[i] % p)) % p
        out.append((s_p - alpha * (mset.dynamic_range % p)) % p)
    return np.stack(out, axis=0)


def approx_crt_rank(
    residues: np.ndarray, mset: ModuliSet, frac_bits: int = 24
) -> np.ndarray:
    """Approximate CRT rank ``alpha ~= floor(sum_i v_i / m_i)``.

    The fractional sum is evaluated in ``frac_bits``-bit fixed point (what
    a hardware implementation tabulates); values of ``X`` within
    ``~ M * n / 2^frac_bits`` of a multiple-of-``M`` boundary may round to
    the wrong rank — the approximation error the exact methods avoid.
    """
    if frac_bits < 1:
        raise ValueError("frac_bits must be >= 1")
    mi, ti = mset.crt_weights
    res = np.asarray(residues, dtype=np.int64)
    scale = 1 << frac_bits
    acc = np.zeros(res.shape[1:], dtype=np.int64)
    for i, m in enumerate(mset.moduli):
        v = (res[i] * (ti[i] % m)) % m
        # floor(v * 2^frac / m): tabulated per residue value in hardware.
        acc = acc + (v * scale) // m
    return acc >> frac_bits


def approx_base_extend(
    residues: np.ndarray,
    mset: ModuliSet,
    new_moduli: Sequence[int],
    frac_bits: int = 24,
) -> np.ndarray:
    """Base extension with the approximate rank (no redundant channel).

    Exact except for inputs whose fractional CRT sum lands within the
    fixed-point rounding window of an integer — the error probability is
    measured by the related-work bench.
    """
    target = _check_target(mset, new_moduli)
    mi, ti = mset.crt_weights
    res = np.asarray(residues, dtype=np.int64)
    alpha = approx_crt_rank(residues, mset, frac_bits)
    v = np.stack(
        [(res[i] * (ti[i] % m)) % m for i, m in enumerate(mset.moduli)], axis=0
    )
    out = []
    for p in target:
        s_p = np.zeros(v.shape[1:], dtype=np.int64)
        for i in range(mset.n):
            s_p = (s_p + v[i] * (mi[i] % p)) % p
        out.append((s_p - alpha * (mset.dynamic_range % p)) % p)
    return np.stack(out, axis=0)


def extension_op_counts(mset: ModuliSet, num_targets: int = 1) -> dict:
    """Modular-operation counts per extended value, by method.

    The digital-cost yardstick used by the related-work analysis: one
    entry is one modular multiply-accumulate-sized operation.  MRC is
    ``O(n^2)`` *sequential*; SK and approximate CRT are ``O(n)`` deep but
    SK charges every prior operation for the redundant channel.
    """
    n = mset.n
    return {
        "mrc": n * (n - 1) // 2 + n * num_targets,
        "shenoy_kumaresan": 2 * n + (n + 1) * num_targets,
        "approx_crt": 2 * n + (n + 1) * num_targets,
        "mrc_sequential_depth": n,
        "sk_sequential_depth": 2,
    }
