"""Name-based lookup for the built-in algebra catalog, and the suite names.

Canonical names: ``h3``, ``sl2``, ``so3``, ``abelian(N)``, and
``free-nilpotent(M,C)``.  Bare ``free-nilpotent`` / ``abelian`` pick up the
explicit ``generators`` / ``nilpotency_class`` arguments (CLI flags).  The
Hall-basis builder is imported only when a free-nilpotent name is resolved,
so that resolving the other names loads no more than ``liejets.algebras``.
"""

from __future__ import annotations

import re

from .algebras import AlgebraError, LieAlgebraSpec, abelian, heisenberg3, sl2, so3

__all__ = [
    "resolve_algebra",
    "default_verification_algebras",
    "UnknownAlgebraError",
    "BUILTIN_NAMES",
    "SUITE_NAMES",
]

BUILTIN_NAMES = ("h3", "sl2", "so3", "abelian(3)", "free-nilpotent(2,3)")

#: The suites ``liejets.checks.build_checks`` accepts.
SUITE_NAMES = ("all", "s4", "s6", "s7")


class UnknownAlgebraError(AlgebraError):
    """Raised for a name that matches no built-in algebra, as opposed to a
    built-in family asked for parameters out of its bounds."""


_ABELIAN = re.compile(r"abelian\((\d+)\)$")
_FREE = re.compile(r"free-nilpotent\((\d+),(\d+)\)$")


def resolve_algebra(
    name: str,
    generators: int | None = None,
    nilpotency_class: int | None = None,
) -> LieAlgebraSpec:
    key = name.strip().lower().replace("_", "-")
    if key == "h3":
        return heisenberg3()
    if key == "sl2":
        return sl2()
    if key == "so3":
        return so3()
    if key == "abelian":
        return abelian(generators if generators is not None else 3)
    if key == "free-nilpotent":
        from .hall import free_nilpotent

        return free_nilpotent(
            generators if generators is not None else 2,
            nilpotency_class if nilpotency_class is not None else 3,
        )
    m = _ABELIAN.match(key)
    if m:
        return abelian(int(m.group(1)))
    m = _FREE.match(key)
    if m:
        from .hall import free_nilpotent

        return free_nilpotent(int(m.group(1)), int(m.group(2)))
    raise UnknownAlgebraError(f"unknown algebra {name!r}")


def default_verification_algebras() -> list[LieAlgebraSpec]:
    """The algebras random-trial checks run over by default."""
    return [resolve_algebra(n) for n in BUILTIN_NAMES]
