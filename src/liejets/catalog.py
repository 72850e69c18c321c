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


# ASCII digits only: \d would also read other scripts' digits, which the
# rational grammar (scalars._RATIONAL_TEXT) refuses too
_ABELIAN = re.compile(r"abelian\(([0-9]+)\)$")
_FREE = re.compile(r"free-nilpotent\(([0-9]+),([0-9]+)\)$")

#: The most significant digits a family parameter may have.  Every family's
#: bound has fewer, so a longer parameter is refused before ``int()`` reads it,
#: whose limit on digits would raise a bare ``ValueError``.
_PARAMETER_DIGITS = 4


def _parameters(match: re.Match) -> list[int]:
    digits = [g.lstrip("0") or "0" for g in match.groups()]
    for g in digits:
        if len(g) > _PARAMETER_DIGITS:
            raise AlgebraError(
                f"a family parameter has at most {_PARAMETER_DIGITS} digits, "
                f"got one of {len(g)}"
            )
    return [int(g) for g in digits]


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
        return abelian(*_parameters(m))
    m = _FREE.match(key)
    if m:
        from .hall import free_nilpotent

        return free_nilpotent(*_parameters(m))
    raise UnknownAlgebraError(
        f"unknown algebra {name!r}; the built-in names are h3, sl2, so3, "
        "abelian(N) and free-nilpotent(M,C)"
    )


def default_verification_algebras() -> list[LieAlgebraSpec]:
    """The algebras random-trial checks run over by default."""
    return [resolve_algebra(n) for n in BUILTIN_NAMES]
