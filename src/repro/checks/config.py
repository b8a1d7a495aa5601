"""Configuration for :mod:`repro.checks`.

Settings live in the repo's ``pyproject.toml`` under
``[tool.repro-checks]`` and are parsed with stdlib :mod:`tomllib`.
Every key has a default mirroring the committed configuration, so the
checker also runs against trees that carry no pyproject (e.g. fixture
directories in tests).

Profiles
--------
``strict``
    Everything on.  Used for ``src/``.
``relaxed``
    Drops the rules that are wrong for test/benchmark code: wall-clock
    reads (benchmarks time things), seedless RNG (test scaffolding may
    draw entropy), and assert-as-validation (pytest tests *are*
    asserts).  Used for ``tests/`` and ``benchmarks/``.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["CheckConfig", "load_config", "find_pyproject", "PROFILES"]

# Layer order of src/repro, bottom (imported by everyone) to top.  A
# package may import same-layer and lower-layer packages only.  ``core``
# sits *above* nn/photonic — the tensor core composes device models and
# quantised layers into the full Fig. 2 dataflow — and ``arch`` prices
# what ``core`` executes without importing it.
DEFAULT_LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("determinism", "rns", "bfp", "quant"),
    ("photonic",),
    ("nn",),
    ("core",),
    ("arch",),
    ("serve",),
    ("analysis", "checks"),
)

# Rule ids removed from the relaxed profile.
RELAXED_DISABLED: Tuple[str, ...] = (
    "determinism-wall-clock",
    "determinism-seedless-rng",
    "determinism-legacy-np-random",
    "hygiene-assert-validation",
)

PROFILES = ("strict", "relaxed")


@dataclass
class CheckConfig:
    """Resolved checker configuration (defaults == committed pyproject)."""

    # Repo root all reported paths are made relative to.
    root: Path = field(default_factory=Path.cwd)
    # Import-layer order for the layering rules.
    layers: Tuple[Tuple[str, ...], ...] = DEFAULT_LAYERS
    # Top-level package the layer order applies to.
    layer_root: str = "repro"
    # Path fragments (repo-relative, '/'-separated) under which the
    # clock-discipline rule is active.
    clock_paths: Tuple[str, ...] = ("src/repro/serve",)
    # Helper callables whose presence in a comparison marks it as
    # tolerance-aware (the sanctioned way to compare simulated times).
    clock_helpers: Tuple[str, ...] = ("time_at_or_before", "time_tolerance")
    # Path fragments where wall-clock reads are allowed (host-timing
    # tables in analysis; benchmarks run under the relaxed profile).
    wallclock_allow: Tuple[str, ...] = ("src/repro/analysis",)
    # Path fragments excluded from checking entirely (lint fixtures).
    exclude: Tuple[str, ...] = ("tests/checks_fixtures",)
    # Extra rule ids disabled per profile (on top of built-in sets).
    strict_disable: Tuple[str, ...] = ()
    relaxed_disable: Tuple[str, ...] = RELAXED_DISABLED

    def layer_rank(self, package: str) -> Optional[int]:
        """Rank of a first-level package in the layer order (0 = bottom)."""
        for rank, group in enumerate(self.layers):
            if package in group:
                return rank
        return None

    def disabled_for(self, profile: str) -> Tuple[str, ...]:
        if profile == "strict":
            return self.strict_disable
        if profile == "relaxed":
            return self.relaxed_disable
        raise ValueError(f"unknown profile {profile!r}; expected {PROFILES}")

    def is_excluded(self, rel_path: str) -> bool:
        return any(frag in rel_path for frag in self.exclude)


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest pyproject.toml."""
    for parent in [start, *start.parents]:
        candidate = parent / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


# ``[tool.repro-checks]`` keys holding a list of strings, by attribute.
_LIST_KEYS = {
    "clock-paths": "clock_paths",
    "clock-helpers": "clock_helpers",
    "wallclock-allow": "wallclock_allow",
    "exclude": "exclude",
    "strict-disable": "strict_disable",
    "relaxed-disable": "relaxed_disable",
}
_KNOWN_KEYS = frozenset(_LIST_KEYS) | {"layers", "layer-root"}


def _str_tuple(value: object, key: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"[tool.repro-checks] {key} must be a list of strings")
    return tuple(value)


def load_config(pyproject: Optional[Path] = None, root: Optional[Path] = None) -> CheckConfig:
    """Load ``[tool.repro-checks]``; missing file or table means defaults.

    ``root`` (default: the pyproject's directory, else cwd) anchors all
    relative paths in reports and the exclude list.  An unknown key is a
    ``ValueError``: a misspelt setting must not leave a default in force.
    """
    table: Dict[str, object] = {}
    if pyproject is None:
        pyproject = find_pyproject(Path.cwd())
    if pyproject is not None and pyproject.is_file():
        with open(pyproject, "rb") as fh:
            table = tomllib.load(fh).get("tool", {}).get("repro-checks", {})
        if root is None:
            root = pyproject.parent
    unknown = sorted(set(table) - _KNOWN_KEYS)
    if unknown:
        raise ValueError(
            f"[tool.repro-checks] unknown key(s) {', '.join(unknown)}; "
            f"expected {', '.join(sorted(_KNOWN_KEYS))}"
        )
    cfg = CheckConfig(root=(root or Path.cwd()).resolve())
    if "layers" in table:
        layers = table["layers"]
        if not isinstance(layers, list):
            raise ValueError("[tool.repro-checks] layers must be a list of lists")
        cfg.layers = tuple(_str_tuple(group, "layers") for group in layers)
    for toml_key, attr in _LIST_KEYS.items():
        if toml_key in table:
            setattr(cfg, attr, _str_tuple(table[toml_key], toml_key))
    if "layer-root" in table:
        if not isinstance(table["layer-root"], str):
            raise ValueError("[tool.repro-checks] layer-root must be a string")
        cfg.layer_root = table["layer-root"]
    return cfg
