"""Deterministic relative-error quantile sketch (DDSketch-style).

A :class:`QuantileSketch` summarises an arbitrary stream of finite
floats in bounded memory while answering any quantile to within a
declared *relative* error ``alpha`` (Masson, Lee & Law, "DDSketch",
VLDB '19).  Values are binned by logarithm: with ``gamma = (1 + alpha)
/ (1 - alpha)``, bucket ``k`` covers ``(gamma**(k-1), gamma**k]`` and
reports the midpoint estimate ``2 * gamma**k / (gamma + 1)``, which is
within a factor ``1 ± alpha`` of every value in the bucket.  The bucket
index ``ceil(log(v) / log(gamma))`` is monotone in ``v`` (correctly
rounded log and division preserve order), so bucket counts partition
the sorted multiset in value order and the nearest-rank walk lands in
the bucket that *contains* the exact nearest-rank value — the error
bound is a theorem, not a heuristic.

Everything else is exact: ``count`` is an integer, ``min``/``max`` are
the observed floats, and ``sum`` is kept as a canonical dyadic rational
(integer mantissa over a power of two — every finite float is one, via
``float.as_integer_ratio``), so merging is *lossless*: merge is exactly
associative and commutative, and a merged sketch is bit-identical to
the sketch of the concatenated stream.  Serialization
(:meth:`to_dict`) is canonical, which is what makes sketch-carrying
artifacts byte-identical across seeded replays.

Determinism: pure integer/float arithmetic on the inputs — no clocks,
no randomness, no iteration-order dependence (bins serialize sorted).

Memory: the bin count is bounded by the stream's dynamic range, not its
length — ``log(max/min) / log(gamma)`` bins (~290 for 5 decades at
``alpha = 0.02``) no matter how many values are folded in.  Magnitudes
below :data:`MIN_INDEXABLE` are indistinguishable from zero at any
practical ``alpha`` (their bucket estimate would underflow through the
denormal range, voiding the relative-error bound) and are counted in
the exact zero bucket instead.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MIN_INDEXABLE", "QuantileSketch"]

# Magnitudes below this are binned as zero: gamma**k for their index
# would land in (or below) the denormal range, where the bucket
# midpoint itself loses relative precision and the alpha bound breaks.
MIN_INDEXABLE = 1e-300


class QuantileSketch:
    """Log-bucketed quantile sketch with relative-error bound ``alpha``."""

    __slots__ = (
        "alpha",
        "gamma",
        "_log_gamma",
        "_bins",
        "_neg_bins",
        "_zero",
        "_count",
        "_sum_num",
        "_sum_shift",
        "_min",
        "_max",
    )

    def __init__(self, alpha: float = 0.01):
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self._bins: Dict[int, int] = {}       # k -> count, value > 0
        self._neg_bins: Dict[int, int] = {}   # k -> count, |value|, value < 0
        self._zero = 0
        self._count = 0
        # Exact running sum as a canonical dyadic rational num / 2**shift.
        self._sum_num = 0
        self._sum_shift = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def add(self, value: float, weight: int = 1) -> None:
        """Fold ``value`` in ``weight`` times.  Non-finite values raise:
        a NaN/Inf would silently corrupt every quantile downstream."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"sketch values must be finite, got {value!r}")
        weight = int(weight)
        if weight < 1:
            raise ValueError(f"weight must be a positive int, got {weight}")
        if value > MIN_INDEXABLE:
            k = self._key(value)
            self._bins[k] = self._bins.get(k, 0) + weight
        elif value < -MIN_INDEXABLE:
            k = self._key(-value)
            self._neg_bins[k] = self._neg_bins.get(k, 0) + weight
        else:
            self._zero += weight
        self._count += weight
        num, den = value.as_integer_ratio()
        self._fold_sum(num * weight, den.bit_length() - 1)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def _fold_sum(self, num: int, shift: int) -> None:
        """Add ``num / 2**shift`` to the exact sum; keep it canonical."""
        if shift > self._sum_shift:
            self._sum_num <<= shift - self._sum_shift
            self._sum_shift = shift
        else:
            num <<= self._sum_shift - shift
        self._sum_num += num
        # Canonical form: num odd or zero.  Because the representation
        # is a function of the exact rational value alone, merge order
        # can never leak into the serialized state.
        if self._sum_num == 0:
            self._sum_shift = 0
        else:
            while self._sum_num % 2 == 0 and self._sum_shift > 0:
                self._sum_num //= 2
                self._sum_shift -= 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Lossless in-place merge; requires identical ``alpha``."""
        if not isinstance(other, QuantileSketch):
            raise ValueError(f"cannot merge {type(other).__name__}")
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches with alpha {self.alpha} and "
                f"{other.alpha}: bucket boundaries differ"
            )
        for k, n in other._bins.items():
            self._bins[k] = self._bins.get(k, 0) + n
        for k, n in other._neg_bins.items():
            self._neg_bins[k] = self._neg_bins.get(k, 0) + n
        self._zero += other._zero
        self._count += other._count
        self._fold_sum(other._sum_num, other._sum_shift)
        if other._min is not None and (
            self._min is None or other._min < self._min
        ):
            self._min = other._min
        if other._max is not None and (
            self._max is None or other._max > self._max
        ):
            self._max = other._max
        return self

    # ------------------------------------------------------------------
    # Exact accessors
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        """The exact stream sum, correctly rounded to float once."""
        return self._sum_num / (1 << self._sum_shift)

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    @property
    def zero_count(self) -> int:
        return self._zero

    @property
    def bin_count(self) -> int:
        """Occupied buckets (the memory footprint driver)."""
        return len(self._bins) + len(self._neg_bins) + (1 if self._zero else 0)

    def bin_upper(self, k: int) -> float:
        """Upper boundary of positive bucket ``k`` (``gamma**k``)."""
        return self.gamma ** k

    def positive_bin_items(self) -> List[Tuple[int, int]]:
        """Positive ``(bucket index, count)`` pairs, ascending index."""
        return sorted(self._bins.items())

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def _estimate(self, k: int, negative: bool) -> float:
        est = 2.0 * self.gamma ** k / (self.gamma + 1.0)
        return -est if negative else est

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank ``q``-th percentile estimate (``q`` in [0, 100]).

        ``None`` on an empty sketch.  The estimate is within relative
        error ``alpha`` of the exact nearest-rank value of the folded
        stream (plus float rounding in ``gamma**k``); zeros (and
        sub-:data:`MIN_INDEXABLE` magnitudes) report exactly ``0.0``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self._count == 0:
            return None
        # Nearest-rank index, then a walk in value order: negative
        # buckets from most-negative, the zero bucket, then positive.
        rank = max(0, math.ceil(q / 100.0 * self._count) - 1)
        acc = 0
        for k in sorted(self._neg_bins, reverse=True):
            acc += self._neg_bins[k]
            if rank < acc:
                return self._estimate(k, negative=True)
        acc += self._zero
        if rank < acc:
            return 0.0
        for k in sorted(self._bins):
            acc += self._bins[k]
            if rank < acc:
                return self._estimate(k, negative=False)
        # Unreachable: bucket counts sum to _count.
        raise RuntimeError("sketch bucket counts diverged from count")

    def cdf(self, threshold: float) -> Optional[float]:
        """Approximate fraction of folded values ``<= threshold``.

        Exact up to bucket resolution: values in the threshold's own
        bucket (within relative ``alpha`` of it) may land on either
        side.  ``None`` on an empty sketch.
        """
        threshold = float(threshold)
        if not math.isfinite(threshold):
            raise ValueError(f"cdf threshold must be finite, got {threshold!r}")
        if self._count == 0:
            return None
        neg_total = 0
        for n in self._neg_bins.values():
            neg_total += n
        if threshold < -MIN_INDEXABLE:
            k_t = self._key(-threshold)
            acc = 0
            for k, n in self._neg_bins.items():
                if k >= k_t:
                    acc += n
            return acc / self._count
        acc = neg_total + self._zero
        if threshold > MIN_INDEXABLE:
            k_t = self._key(threshold)
            for k, n in self._bins.items():
                if k <= k_t:
                    acc += n
        return acc / self._count

    # ------------------------------------------------------------------
    # Canonical serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-safe state: two equal-valued sketches
        serialize identically."""
        return {
            "kind": "ddsketch",
            "alpha": self.alpha,
            "count": self._count,
            "zero": self._zero,
            "bins": {str(k): self._bins[k] for k in sorted(self._bins)},
            "neg_bins": {
                str(k): self._neg_bins[k] for k in sorted(self._neg_bins)
            },
            "sum": [self._sum_num, self._sum_shift],
            "min": self._min,
            "max": self._max,
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def byte_size(self) -> int:
        """Bytes of the canonical serialization — the budget the scale
        gate holds fixed while session counts grow."""
        return len(self.to_json().encode("utf-8"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self._count}, "
            f"bins={self.bin_count})"
        )
