"""Name-based lookup for the built-in algebra catalog, and the suite names.

Names: ``h3``, ``sl2``, ``so3``, ``abelian(N)``, and ``free-nilpotent(M,C)``;
a family's name carries its parameters, so a name alone fixes the algebra.  The
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


def resolve_algebra(name: str) -> LieAlgebraSpec:
    # The builders are looked up at call time, so that a test replacing one
    # (say ``heisenberg3``) in this module reaches every name it resolves.
    key = name.strip().lower().replace("_", "-")
    if key == "h3":
        return heisenberg3()
    if key == "sl2":
        return sl2()
    if key == "so3":
        return so3()
    m = _ABELIAN.match(key)
    if m:
        return abelian(int(m.group(1)))
    m = _FREE.match(key)
    if m:
        from .hall import free_nilpotent

        return free_nilpotent(int(m.group(1)), int(m.group(2)))
    raise UnknownAlgebraError(
        f"unknown algebra {name!r}; the built-in names are h3, sl2, so3, "
        "abelian(N) and free-nilpotent(M,C)"
    )


def default_verification_algebras() -> list[LieAlgebraSpec]:
    """The algebras random-trial checks run over by default."""
    return [resolve_algebra(n) for n in BUILTIN_NAMES]
