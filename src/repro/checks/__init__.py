"""Self-hosted static analysis for the repro codebase.

Every gate this repo ships — bit-exact decode vs batch-1, byte-identical
seeded fault-storm replays, exact analytic cross-checks — rests on
properties no runtime test asserts directly: nothing on a simulated path
reads the wall clock or an unseeded RNG, layers only import downward,
timestamp comparisons in ``serve/`` go through the relative-tolerance
clock helpers, every public name in ``src/`` has a caller, and every
import is read.  This package machine-checks those invariants on every
``pytest`` run (see ``tests/test_checks_gate.py``) and from the command
line::

    PYTHONPATH=src python -m repro.checks src               # strict
    PYTHONPATH=src python -m repro.checks tests benchmarks --profile relaxed
    PYTHONPATH=src python -m repro.checks --list-rules
    PYTHONPATH=src python -m repro.checks src --format json

The framework is dependency-free (stdlib :mod:`ast` + :mod:`tomllib`
only) so the bottom-to-top layer order it enforces never depends on the
code it checks.

Architecture
------------
``config``
    ``[tool.repro-checks]`` in pyproject.toml: layer order, clock paths
    and helper names, wall-clock allowlist, excludes, per-profile rule
    disables.  Defaults mirror the committed file; an unknown key is an
    error.
``registry`` / ``astutil``
    Rule registration (``@rule(id, description, scope)``) and the
    per-file :class:`~repro.checks.registry.ModuleContext` handed to
    module-scope rules; project-scope rules (layering, dead code) see
    all files at once.
``rules``
    The rule set, one module per category:

    * **determinism** — no stdlib ``random``; no seedless
      ``np.random.default_rng()`` (the single sanctioned call sits in
      :func:`repro.determinism.resolve_rng` under a waiver); no legacy
      ``np.random.*`` global-state calls; no wall-clock reads outside
      the ``repro/analysis`` allowlist.
    * **layering** — the import DAG of ``repro`` must match the
      declared order ``determinism/rns/bfp/quant -> photonic -> nn ->
      core -> arch -> serve -> analysis/checks`` (upward imports,
      undeclared packages and cycles are findings).
    * **clock discipline** — raw ``==``/``<=``/``>=`` on simulated
      timestamps in ``serve/`` must go through
      ``serve.clock.time_at_or_before`` (PR 3's epsilon bug, encoded).
    * **hygiene** — mutable default args, bare ``except``, assert-as-
      input-validation, module-level side effects, shadowed builtins.
    * **dead code** — ``dead-public-name``: a public top-level function
      or class under ``src/``, or a public method of a top-level class,
      whose name nothing in ``src/``, ``benchmarks/``, ``examples/`` or
      ``perfbench/`` references.  A reference is a ``Name``, an
      attribute, the original name in an aliased import, or a segment of
      a dotted-identifier string (perfbench boundary targets,
      ``getattr`` names); ``__all__``, plain re-exports, docstrings and
      ``tests/`` are not callers, and ``@rule(...)``-style call
      decorators count as use.  It matches by name only: one use of a
      name keeps every definition of that name alive.
    * **imports** — ``unused-import``: a top-level ``import`` or ``from
      ... import`` binding that nothing in its module reads (a ``Name``,
      a name in a quoted annotation, or an ``__all__`` string).
      ``from __future__`` and package ``__init__.py`` re-exports are
      exempt.
``waivers``
    The only way to suppress a finding: ``# repro: waive[rule-id] --
    reason`` on the offending line.  The reason is mandatory
    (``waiver-missing-reason``) and stale waivers are findings too
    (``waiver-unused``).
``runner`` / ``cli``
    File collection, rule execution, waiver application, text/JSON
    reports, exit codes (0 clean / 1 findings / 2 usage).
"""

from .config import CheckConfig, load_config
from .findings import Finding, Report
from .registry import all_rules
from .runner import run_checks

__all__ = [
    "CheckConfig",
    "Finding",
    "Report",
    "all_rules",
    "load_config",
    "run_checks",
]
