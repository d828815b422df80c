"""Desk-scale resource ceilings.

All enumeration in this package is exact and therefore exponential in the
worst case.  The limits below keep runs at interactive scale; every limit is
configurable per call site.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Limits:
    max_order: int = 5000
    max_p_subgroup_classes: int = 10_000
    max_chain_orbits: int = 100_000

    def __post_init__(self) -> None:
        for name in ("max_order", "max_p_subgroup_classes", "max_chain_orbits"):
            value = getattr(self, name)
            if value < 1:
                raise InputError(f"ceiling {name} must be at least 1, got {value}")


DEFAULT_LIMITS = Limits()
