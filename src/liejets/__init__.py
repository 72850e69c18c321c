"""liejets: exact group laws on Lie algebra jets, machine-verified.

The package builds truncated polynomial curves (jets) in a Lie algebra,
multiplies them with closed-form group laws for orders 1 to 3, and verifies
every law exactly against two independent oracles: the truncated
Baker-Campbell-Hausdorff series and matrix exp/log over nilpotent scalar
extensions.  All arithmetic is exact rational arithmetic; there is no
floating point anywhere.
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    Rational,
    RingSignature,
    SignatureError,
    SignatureMismatch,
    WeilRing,
    WeilScalar,
    ring_make,
)
from .algebras import (  # noqa: F401
    AlgebraError,
    LieAlgebraSpec,
    LieElement,
    abelian,
    basis_element,
    bracket,
    element,
    heisenberg3,
    sl2,
    so3,
    validate_algebra,
    zero_element,
)
from .hall import HallBasis, free_nilpotent, hall_basis  # noqa: F401
from .jets import (  # noqa: F401
    EXP,
    MONOMIAL,
    Jet,
    JetError,
    jet_bracket,
    jet_convert,
    jet_group_commutator,
    jet_identity,
    jet_inverse,
    jet_make,
    jet_mul,
    jet_scale,
    jet_truncate,
)
from .bch import BCH_DEGREE3_TERMS, bch_mul  # noqa: F401
from .matrices import (  # noqa: F401
    MatrixError,
    MatrixRep,
    WeilMatrix,
    builtin_rep,
    matrix_mul,
    matrix_rep,
    weil_exp,
    weil_log,
)
from .catalog import resolve_algebra  # noqa: F401
from .report import CheckResult, VerificationReport  # noqa: F401
from .checks import (  # noqa: F401
    check_def61_vs_bch,
    check_def61_vs_matrix,
    run_suite,
    verify_associativity,
    verify_bracket_recovery,
    verify_group_axioms,
    verify_lemma_631,
    verify_theorem_4,
)
