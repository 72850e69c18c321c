"""liejets: exact group laws on Lie algebra jets, machine-verified.

The package builds truncated polynomial curves (jets) in a Lie algebra,
multiplies them with closed-form group laws for orders 1 to 3, and verifies
every law exactly against two independent oracles: the truncated
Baker-Campbell-Hausdorff series and matrix exp/log over nilpotent scalar
extensions.  All arithmetic is exact rational arithmetic; there is no
floating point anywhere.

Importing the package loads none of its modules.  Each public name below is
imported from its module on first access (PEP 562), so a caller that uses
only the closed-form product never loads the oracles or the check catalog.
"""

__version__ = "0.1.0"

#: Module -> the public names it defines.  Each name is imported from its
#: module on first access; a module name resolves to the module itself, so
#: ``liejets.checks`` works without ``import liejets.checks``.
_MODULE_EXPORTS = {
    "scalars": ("RingSignature", "SignatureError", "SignatureMismatch",
                "WeilScalar", "ring_make"),
    "algebras": ("AlgebraError", "LieAlgebraSpec", "LieElement", "abelian",
                 "basis_element", "bracket", "heisenberg3", "sl2", "so3",
                 "validate_algebra", "zero_element"),
    "hall": ("free_nilpotent",),
    "jets": ("EXP", "MONOMIAL", "Jet", "JetError", "jet_bracket", "jet_convert",
             "jet_group_commutator", "jet_identity", "jet_inverse", "jet_make",
             "jet_mul", "jet_scale", "jet_truncate"),
    "bch": ("BCH_DEGREE3_TERMS", "bch_mul"),
    "matrices": ("MatrixError", "MatrixRep", "WeilMatrix", "builtin_rep", "matrix_mul",
                 "matrix_rep", "weil_exp", "weil_log"),
    "catalog": ("resolve_algebra",),
    "report": ("CheckResult", "VerificationReport"),
    "checks": ("run_suite",),
    "sampling": (),
}

__all__ = [name for names in _MODULE_EXPORTS.values() for name in names]

_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items()
            for name in (module, *names)}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
