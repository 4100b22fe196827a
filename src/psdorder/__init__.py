"""Partial orders on symmetric positive semidefinite matrices.

Decision procedures with certificates for the PSD (Loewner), minus and
star-family orders, canonical forms under congruence including the shared
reduction of rank-subtractive pairs, order-preserver verification and
congruence recovery, and the linear-model/quadratic-form statistics built
on top of those orders.
"""

__version__ = "0.1.0"

from .canonical import (
    Inertia,
    SimCongResult,
    canonical_ek,
    inertia,
    sim_congruence,
)
from .errors import (
    DimensionMismatch,
    InconsistentSamples,
    NonConvergence,
    NotMinusComparable,
    NotPositiveSemidefinite,
    ParseError,
    PsdOrderError,
    SingularS,
)
from .linmodels import (
    BlueVerdict,
    ComparisonVerdict,
    LinearModel,
    McReport,
    QFormEntry,
    QFormReport,
    blue_check,
    efficiency_matrix,
    estimator_covariance,
    mc_quadratic_forms,
    model_compare,
    qform_rank_criterion,
)
from .numkernel import (
    PsdMatrix,
    SymMatrix,
    pinv,
    sym_eig,
)
from .orders import (
    MinusMethod,
    OrderVerdict,
    Relation,
    lowner_leq,
    matrices_equal,
    minus_leq,
    order_holds_many,
    order_leq,
    star_family_leq,
)
from .preservers import (
    MatrixMap,
    PreservationReport,
    congruence_map,
    fit_congruence,
    preserves_order,
    probe_inputs,
    projector_fixed_point_suite,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig
