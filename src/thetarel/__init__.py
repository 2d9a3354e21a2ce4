"""thetarel: general theta relations, generated exactly and verified numerically.

The library builds the coefficient-weighted term lists of n-fold theta
relations driven by the cycle number lambda (n for odd n, n/2 for even
n), evaluates theta functions with arbitrary rational characteristics by
truncated lattice sums with rigorous tail bounds, and packages classical
specializations (quartic, ternary, constants identities) as pass/fail
checks.
"""

from .charalg import (
    Characteristic,
    CycleClass,
    MixedClassError,
    char_linear_combine,
    class_of,
    cycle_number,
    enumerate_shifts,
)
from .identities import (
    DEFAULT_CASES,
    IdentityCase,
    collapse_args_equal_check,
    constant_symmetries_check,
    jacobi_quartic_check,
    run_suite,
    smith_relation_check,
    ternary_constants_check,
    ternary_cube_check,
)
from .relations import (
    DEFAULT_SEED,
    CoefficientMode,
    RelationSpec,
    RelationTerm,
    TrialSampler,
    VerificationReport,
    build_relation,
    coefficient_kappa,
    lhs_value,
    overall_verdict,
    relation_report,
    rhs_value,
    verify,
    verify_jacobi_a,
)
from .theta import (
    DEFAULT_SETTINGS,
    EvalSettings,
    PeriodMatrix,
    ThetaValue,
    TruncationError,
    char_shift_phase,
    theta,
    theta_constant,
    theta_shift_table,
)
from .transforms import (
    TransformMatrix,
    apply_to_args,
    apply_to_chars,
    jacobi_a_matrix,
    smith_matrix,
)

__version__ = "0.1.0"
