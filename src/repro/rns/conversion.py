"""Forward (BNS→RNS) and reverse (RNS→BNS) conversions.

Three reverse converters are provided and cross-checked in the test suite:

* :func:`crt_reverse` — the textbook Chinese Remainder Theorem (Eq. 5).
* :func:`mixed_radix_reverse` — sequential mixed-radix digits, useful for
  magnitude comparison and as an independent oracle.
* :func:`special_set_reverse` — the shift/add converter for the
  ``{2^k - 1, 2^k, 2^k + 1}`` set in the style of Hiasat [26], which is what
  Mirage's 1 GHz digital circuitry implements.

All converters are vectorised over numpy arrays and also accept Python ints.
Signed values are handled by the symmetric mapping around zero
(``[-ψ, M - 1 - ψ]`` with ``ψ = (M - 1) // 2``).
"""

from __future__ import annotations

import numpy as np

from .moduli import ModuliSet, special_moduli_set

__all__ = [
    "forward_convert",
    "forward_convert_signed",
    "special_set_forward",
    "crt_reverse",
    "crt_reverse_signed",
    "mixed_radix_digits",
    "mixed_radix_reverse",
    "special_set_reverse",
    "to_signed",
    "from_signed",
]

# Python-int object arrays are used whenever intermediate products can
# overflow int64 (M can exceed 2^63 for large moduli sets).
_INT64_SAFE_BITS = 62


def _as_int_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype == object:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"expected integer values, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# Signed <-> unsigned range mapping
# ----------------------------------------------------------------------
def from_signed(values, mset: ModuliSet) -> np.ndarray:
    """Map signed integers in ``[-ψ, M-1-ψ]`` onto ``[0, M)``."""
    arr = _as_int_array(values)
    psi, big_m = mset.psi, mset.dynamic_range
    lo, hi = -psi, big_m - 1 - psi
    if arr.size and (int(arr.min()) < lo or int(arr.max()) > hi):
        raise OverflowError(
            f"signed values outside RNS range [{lo}, {hi}] for M={big_m}"
        )
    if big_m.bit_length() <= _INT64_SAFE_BITS and arr.dtype != object:
        return np.mod(arr, np.int64(big_m))
    flat = np.array([int(v) % big_m for v in arr.ravel()], dtype=object)
    return flat.reshape(arr.shape)


def to_signed(values, mset: ModuliSet) -> np.ndarray:
    """Map ``[0, M)`` representatives back to signed ``[-ψ, M-1-ψ]``."""
    arr = np.asarray(values)
    psi, big_m = mset.psi, mset.dynamic_range
    if big_m.bit_length() <= _INT64_SAFE_BITS and arr.dtype != object:
        arr = arr.astype(np.int64, copy=False)
        return np.where(arr > big_m - 1 - psi, arr - big_m, arr)
    flat = np.array(
        [int(v) - big_m if int(v) > big_m - 1 - psi else int(v) for v in arr.ravel()],
        dtype=object,
    )
    return flat.reshape(arr.shape)


# ----------------------------------------------------------------------
# Forward conversion
# ----------------------------------------------------------------------
def forward_convert(values, mset: ModuliSet) -> np.ndarray:
    """BNS → RNS for non-negative representatives in ``[0, M)``.

    Returns an array with a leading axis of length ``n`` (one residue
    channel per modulus): ``out[i] = values mod m_i``.
    """
    arr = _as_int_array(values)
    if arr.dtype != object:
        return np.mod(arr, mset.as_array().reshape((-1,) + (1,) * arr.ndim))
    out = np.empty((mset.n,) + arr.shape, dtype=np.int64)
    for i, m in enumerate(mset.moduli):
        flat = np.array([int(v) % m for v in arr.ravel()], dtype=np.int64)
        out[i] = flat.reshape(arr.shape)
    return out


def forward_convert_signed(values, mset: ModuliSet) -> np.ndarray:
    """BNS → RNS for signed integers (maps through ``[0, M)`` first)."""
    return forward_convert(from_signed(values, mset), mset)


def special_set_forward(values, k: int) -> np.ndarray:  # repro: waive[dead-public-name] -- Sec. IV-B shift-based forward conversion for the special set
    """Shift-based forward conversion for ``{2^k-1, 2^k, 2^k+1}``.

    Implements the Section IV-B identities on non-negative inputs:

    * ``|A|_{2^k}`` keeps the low ``k`` bits,
    * ``|A|_{2^k - 1}`` sums ``k``-bit chunks (end-around carry),
    * ``|A|_{2^k + 1}`` alternates-signs of ``k``-bit chunks.

    Only shifts, masks and small adds are used — no division — mirroring
    the hardware fast path.  Output channel order matches
    ``special_moduli_set(k)`` (ascending moduli).
    """
    arr = _as_int_array(values)
    if arr.dtype == object:
        mset = special_moduli_set(k)
        return forward_convert(arr, mset)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("special_set_forward expects non-negative representatives")
    mask = np.int64((1 << k) - 1)
    m_minus = np.int64((1 << k) - 1)
    m_plus = np.int64((1 << k) + 1)

    r_pow2 = arr & mask

    # mod 2^k - 1: end-around addition of k-bit chunks.
    acc_minus = np.zeros_like(arr)
    # mod 2^k + 1: alternating-sign addition of k-bit chunks.
    acc_plus = np.zeros_like(arr)
    chunk = arr.copy()
    sign = 1
    while np.any(chunk != 0):
        low = chunk & mask
        acc_minus = acc_minus + low
        acc_plus = acc_plus + sign * low
        chunk >>= k
        sign = -sign
    r_minus = np.mod(acc_minus, m_minus)
    r_plus = np.mod(acc_plus, m_plus)
    return np.stack([r_minus, r_pow2, r_plus], axis=0)


# ----------------------------------------------------------------------
# Reverse conversion
# ----------------------------------------------------------------------
def crt_reverse(residues, mset: ModuliSet) -> np.ndarray:
    """RNS → BNS via the Chinese Remainder Theorem (Eq. 5).

    ``X = | sum_i x_i * M_i * T_i |_M`` with ``M_i = M / m_i`` and ``T_i``
    the multiplicative inverse of ``M_i`` modulo ``m_i``.
    Returns representatives in ``[0, M)``; dtype is int64 when ``M`` fits,
    otherwise Python-int object arrays.
    """
    res = np.asarray(residues)
    if res.shape[0] != mset.n:
        raise ValueError(
            f"expected leading axis of {mset.n} residue channels, got {res.shape}"
        )
    big_m = mset.dynamic_range
    mi, ti = mset.crt_weights
    # int64 fast path whenever every partial ``acc + x_i * w_i`` fits:
    # acc < M and x_i * w_i < m_max * M, so m_max * M + M must stay < 2^63.
    max_m = mset.moduli[-1]
    if (max_m + 1) * big_m < (1 << 63) and res.dtype != object:
        # Defer the expensive modulo while the running worst-case bound
        # fits int64 — for small sets (e.g. the special 3-moduli sets) the
        # whole sum reduces with a single ``%``.
        acc = None
        bound = 0
        for i in range(mset.n):
            weight = (mi[i] * ti[i]) % big_m
            term_bound = (mset.moduli[i] - 1) * weight
            if acc is None:
                acc = res[i].astype(np.int64) * np.int64(weight)
                bound = term_bound
            else:
                if bound + term_bound >= (1 << 63):
                    acc %= np.int64(big_m)
                    bound = big_m - 1
                acc += res[i].astype(np.int64, copy=False) * np.int64(weight)
                bound += term_bound
        acc %= np.int64(big_m)
        return acc
    # Big-M fallback: channel-wise accumulation on Python-int object arrays
    # (one vectorised op per modulus instead of a per-element double loop).
    acc = np.zeros(res.shape[1:], dtype=object)
    for i in range(mset.n):
        weight = (mi[i] * ti[i]) % big_m
        acc = acc + res[i].astype(object) * weight
    out = acc % big_m
    if big_m.bit_length() <= _INT64_SAFE_BITS:
        return out.astype(np.int64)
    return out


def crt_reverse_signed(residues, mset: ModuliSet) -> np.ndarray:
    """RNS → signed BNS (CRT followed by the symmetric range mapping)."""
    return to_signed(crt_reverse(residues, mset), mset)


def mixed_radix_digits(residues, mset: ModuliSet) -> np.ndarray:
    """Mixed-radix digits ``a_1..a_n`` such that
    ``X = a_1 + a_2 m_1 + a_3 m_1 m_2 + ...``.

    Mixed-radix conversion is the classical division-free alternative to
    CRT; it is sequential per channel but allows magnitude comparison.
    """
    res = np.asarray(residues)
    if res.shape[0] != mset.n:
        raise ValueError(f"expected {mset.n} residue channels, got {res.shape}")
    mods = mset.moduli
    inv_table = mset.mixed_radix_inverses
    digits = np.zeros_like(res, dtype=np.int64)
    work = [res[i].astype(np.int64).copy() for i in range(mset.n)]
    for i in range(mset.n):
        digits[i] = np.mod(work[i], mods[i])
        for j in range(i + 1, mset.n):
            work[j] = np.mod((work[j] - digits[i]) * inv_table[i][j], mods[j])
    return digits


def mixed_radix_reverse(residues, mset: ModuliSet) -> np.ndarray:  # repro: waive[dead-public-name] -- independent CRT oracle for the reverse converters
    """RNS → BNS through mixed-radix digits (independent CRT oracle)."""
    digits = mixed_radix_digits(residues, mset)
    big_m = mset.dynamic_range
    use_object = big_m.bit_length() > _INT64_SAFE_BITS
    weight = 1
    if use_object:
        acc = np.zeros(digits.shape[1:], dtype=object)
    else:
        acc = np.zeros(digits.shape[1:], dtype=np.int64)
    for i, m in enumerate(mset.moduli):
        acc = acc + digits[i] * weight
        weight *= m
    return acc


def special_set_reverse(residues, k: int) -> np.ndarray:
    """Shift/add reverse converter for ``{2^k-1, 2^k, 2^k+1}`` (Hiasat [26]).

    Writing ``X = x2 + 2^k * Y`` with ``Y in [0, 2^{2k} - 1)``, the residues
    give ``Y ≡ x1 - x2 (mod 2^k - 1)`` and ``Y ≡ x2 - x3 (mod 2^k + 1)``,
    whose CRT solution is

    ``Y = | (x1 - x2) * 2^{k-1} (2^k + 1)
           + (x2 - x3) * 2^{k-1} (2^k - 1) |_{2^{2k} - 1}``

    — every multiply is a shift plus one add, matching the hardware fast
    path.  Channel order follows ``special_moduli_set(k)``:
    ``x1 = |X|_{2^k-1}``, ``x2 = |X|_{2^k}``, ``x3 = |X|_{2^k+1}``.
    Returns representatives in ``[0, M)``.
    """
    res = np.asarray(residues)
    if res.shape[0] != 3:
        raise ValueError(f"special set has 3 channels, got {res.shape}")
    x1 = res[0].astype(np.int64)
    x2 = res[1].astype(np.int64)
    x3 = res[2].astype(np.int64)
    mod_22k = np.int64((1 << (2 * k)) - 1)
    w1 = (1 << (k - 1)) * ((1 << k) + 1) % int(mod_22k)
    w3 = (1 << (k - 1)) * ((1 << k) - 1) % int(mod_22k)
    y = np.mod((x1 - x2) * np.int64(w1) + (x2 - x3) * np.int64(w3), mod_22k)
    return x2 + (y << k)
