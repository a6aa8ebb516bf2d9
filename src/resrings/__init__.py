"""resrings: exact minimal free resolutions of n points in general position
in P^(n-2) and the structure constants of the rank-n rings they determine."""

from .brackets import OmegaTensor, a_form, brace, bracket, double_bracket, gl_act, omega
from .classical import (
    BinaryCubic,
    TernaryQuadricPair,
    ldf_equivalence_check,
    ldf_table,
    pfaffian_shape_check,
    quartic_identities_check,
)
from .configs import (
    MAX_N,
    Configuration,
    coordinate_ring_table,
    evaluation_matrix,
    from_etale,
    general_position_check,
    points_config,
    random_points_config,
    standard_config,
    trace_data,
    transform_between,
)
from .errors import InconsistencyError, InputError, Report
from .koszul import ChainMap, KoszulComplex, final_syzygy, koszul_complex, lift_chain_map, symbol
from .resolution import (
    GradedFreeResolution,
    build_resolution,
    integerize,
    self_duality_check,
    transform_resolution,
    validate,
)
from .ringalg import (
    MultiplicationTable,
    ShearTransform,
    discriminant,
    integral_orders,
    isomorphic_up_to_scalar,
    normalize,
    shear,
    structure_constants,
    table1_check,
    verify_table,
)
from .symcore import (
    Polynomial,
    PolyMatrix,
    QMatrix,
    Rational,
    linear_substitution,
    nullspace,
    partial_derivative,
)

__version__ = "0.1.0"
