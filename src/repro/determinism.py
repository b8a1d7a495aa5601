"""RNG discipline for the simulation stack.

Every stochastic component (photonic noise models, nn init,
stochastic BFP rounding, traffic generators) takes an ``rng`` argument
and resolves it through :func:`resolve_rng`:

* a :class:`numpy.random.Generator` is used as-is (callers thread one
  stream through a whole experiment);
* an ``int`` (or any numpy seed spec) builds a seeded generator, so the
  component is bit-reproducible in isolation;
* ``None`` is the **documented nondeterministic opt-in**: a fresh
  OS-entropy generator.  This is the single sanctioned seedless
  ``default_rng()`` call in the codebase — the determinism linter
  (``repro.checks``, rule ``determinism-seedless-rng``) flags every
  other one, and this one carries the waiver.

:func:`spawn_rng` derives an independent child stream from a parent
generator; with a seeded parent the children are deterministic, so
multi-unit components (one RNG per modulus lane) stay bit-reproducible.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

__all__ = ["RngLike", "resolve_rng", "spawn_rng"]

# What components accept for their ``rng`` argument.
RngLike = Union[None, int, np.random.Generator]


def resolve_rng(
    rng: RngLike = None, *, seed: Optional[int] = None
) -> np.random.Generator:
    """Resolve an ``rng`` argument to a :class:`numpy.random.Generator`.

    Precedence: an explicit generator/seed in ``rng``, then ``seed``,
    then the nondeterministic fallback (``rng=None, seed=None`` — fresh
    OS entropy, run-to-run irreproducible *by choice*).
    """
    if rng is not None:
        if isinstance(rng, np.random.Generator):
            return rng
        return np.random.default_rng(rng)
    if seed is not None:
        return np.random.default_rng(seed)
    return np.random.default_rng()  # repro: waive[determinism-seedless-rng] -- the one documented seed=None => fresh-OS-entropy opt-in


def spawn_rng(rng: np.random.Generator) -> np.random.Generator:
    """Independent child stream, deterministic given a seeded parent."""
    return np.random.default_rng(rng.integers(2**63))
