"""DNNARA-style one-hot RNS photonic arithmetic — the Section VII comparator.

DNNARA (Peng et al. [45]) also computes modular arithmetic with photonics
but encodes *no* information in an analog property: a residue ``a``
activates one of ``m`` waveguides (one-hot), and a network of 2x2 optical
switches — configured from the second operand ``b`` — routes the light so
that it exits on port ``|a op b|_m``.  The result is digital-in/digital-out
(no DACs/ADCs), at the price of ``O(m log m)`` switches *per operation*
versus Mirage's ``O(log m)`` devices per MAC.  This module builds the
switching networks functionally and puts both cost scalings side by side.

Construction (the standard one-hot modular unit):

* **addition** — a barrel rotator: stage ``d`` rotates all ``m`` lines by
  ``2^d mod m`` when bit ``d`` of ``b`` is set; ``ceil(log2 m)`` stages of
  ``m`` switches each.
* **multiplication** — index mapping: for a *prime* modulus the nonzero
  residues form a cyclic group, so ``|a b|_m`` becomes index addition
  through the same rotator on ``m - 1`` lines (discrete-log in, power-of-
  generator out), with a dedicated zero line.  This is why one-hot RNS
  designs want prime moduli, while Mirage's special set
  ``{2^k-1, 2^k, 2^k+1}`` needs no such restriction.

:class:`OneHotModularUnit` simulates the stage-by-stage routing;
:func:`scaling_comparison` tabulates DNNARA vs Mirage device counts as the
modulus grows (the paper's scalability argument).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "is_prime",
    "find_generator",
    "OneHotModularUnit",
    "mirage_mmu_device_count",
    "dnnara_mac_device_count",
    "scaling_comparison",
]


def is_prime(n: int) -> bool:
    """Deterministic primality for the small moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def find_generator(p: int) -> int:
    """Smallest generator of the multiplicative group mod prime ``p``."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime; one-hot multiplication needs "
                         "a cyclic multiplicative group")
    if p == 2:
        return 1
    order = p - 1
    factors = set()
    n, f = order, 2
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 1
    if n > 1:
        factors.add(n)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise ArithmeticError(f"no generator found for {p}")  # pragma: no cover


class OneHotModularUnit:
    """Functional model of one DNNARA routing network for modulus ``m``.

    ``op`` is ``"add"`` or ``"mul"``.  The unit is exercised through
    :meth:`route`, which walks the light through every switch stage the
    way the hardware would; :attr:`switch_count` and
    :attr:`stages` expose the hardware footprint.
    """

    def __init__(self, modulus: int, op: str = "add"):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if op not in ("add", "mul"):
            raise ValueError(f"op must be 'add' or 'mul', got {op!r}")
        self.modulus = modulus
        self.op = op
        if op == "mul":
            # Index-mapped multiplication: log/antilog tables + rotator
            # over the m-1 nonzero lines.
            g = find_generator(modulus)
            self._exp = [pow(g, i, modulus) for i in range(modulus - 1)]
            self._log = {v: i for i, v in enumerate(self._exp)}
            self._lines = modulus - 1
        else:
            self._lines = modulus
        self.stages = max(1, math.ceil(math.log2(self._lines)))

    # ------------------------------------------------------------------
    @property
    def switch_count(self) -> int:
        """2x2 switches in the network: ``lines`` per stage."""
        return self._lines * self.stages

    # ------------------------------------------------------------------
    def _rotate(self, index: np.ndarray, amount: np.ndarray) -> np.ndarray:
        """Stage-by-stage barrel rotation of one-hot line indices."""
        index = index.copy()
        for d in range(self.stages):
            take = ((amount >> d) & 1).astype(bool)
            rotated = (index + (1 << d)) % self._lines
            index = np.where(take, rotated, index)
        return index

    def route(self, a, b) -> np.ndarray:
        """Route one-hot operand ``a`` through switches set by ``b``.

        Returns ``|a + b|_m`` or ``|a * b|_m`` element-wise; inputs are
        integer arrays of residues in ``[0, m)``.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if np.any((a < 0) | (a >= self.modulus) | (b < 0) | (b >= self.modulus)):
            raise ValueError(f"residues must lie in [0, {self.modulus})")
        if self.op == "add":
            return self._rotate(a, b % self._lines)
        zero = (a == 0) | (b == 0)
        log = np.vectorize(lambda v: self._log.get(int(v), 0))
        idx = self._rotate(log(np.where(zero, 1, a)),
                           log(np.where(zero, 1, b)))
        exp = np.asarray(self._exp, dtype=np.int64)
        return np.where(zero, 0, exp[idx])


def mirage_mmu_device_count(modulus: int) -> Dict[str, int]:
    """Optical devices in one Mirage MMU (one modular MAC per cycle)."""
    digits = max(1, math.ceil(math.log2(modulus)))
    return {"phase_shifters": digits, "mrr_switches": 2 * digits,
            "total": 3 * digits}


def dnnara_mac_device_count(modulus: int) -> Dict[str, int]:
    """Switches for one DNNARA MAC (one multiply network + one add network)."""
    mul = OneHotModularUnit(modulus, "mul") if is_prime(modulus) else None
    add = OneHotModularUnit(modulus, "add")
    mul_count = mul.switch_count if mul else (modulus - 1) * max(
        1, math.ceil(math.log2(max(2, modulus - 1))))
    return {"mul_switches": mul_count, "add_switches": add.switch_count,
            "total": mul_count + add.switch_count}


def scaling_comparison(moduli: Optional[Sequence[int]] = None) -> List[Dict[str, float]]:
    """Device-count scaling rows: DNNARA ``O(m log m)`` vs Mirage ``O(log m)``.

    Default moduli ladder: primes near successive powers of two, the
    fairest like-for-like growth axis.
    """
    if moduli is None:
        moduli = (7, 13, 31, 61, 127, 251)
    rows = []
    for m in moduli:
        dnnara = dnnara_mac_device_count(m)["total"]
        mirage = mirage_mmu_device_count(m)["total"]
        rows.append({
            "modulus": m,
            "dnnara_devices": dnnara,
            "mirage_devices": mirage,
            "ratio": dnnara / mirage,
        })
    return rows
