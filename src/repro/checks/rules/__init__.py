"""Rule modules; importing this package registers every rule."""

from . import clockdiscipline, deadcode, determinism, hygiene, imports, layering  # noqa: F401
