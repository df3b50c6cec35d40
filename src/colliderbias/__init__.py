"""Exact magnitude and sign of collider bias for binary-variable structures.

The package covers nine DAG topologies in which conditioning on a collider
(or on a child of the collider) distorts the exposure-outcome association:
closed-form bias values on the covariance, risk-difference and odds-ratio
scales, bias of the linear-regression-adjusted coefficient, qualitative
sign rules, and a brute-force joint-distribution oracle that every closed
form is cross-validated against.
"""

import types

from .closedform import (
    BiasReport,
    classify_sign,
    closed_form,
    cross_product_difference,
    embedded_core,
    extended_stratum_bias,
    extension_rds,
    extension_variance_ratio,
    lm_bias,
    lm_bias_kernel,
    lm_weight_normalizer,
    nabla_or_bias_factor,
    v_lm_bias,
    v_stratum_bias,
    y_bias_from_embedded_v,
    y_stratum_bias,
)
from .errors import (
    ColliderBiasError,
    DegenerateStratumError,
    ExtraFieldError,
    InvalidResolutionError,
    MissingFieldError,
    OutOfRangeError,
    ParameterError,
    PrecisionLossError,
    SingularDesignError,
    UndefinedRatioError,
    UnknownVariableError,
)
from .joint import (
    JointTable,
    OracleMeasure,
    SampleTable,
    bias,
    build_joint,
    cond_measure,
    lm_coefficient,
    lm_stratum_weights,
    sample,
)
from .signmap import (
    EffectPattern,
    GridFamily,
    GridFixed,
    Pattern,
    SignGrid,
    ZeroLocus,
    classify_effects,
    emit_grid,
    extended_sign,
    nabla_stratum_sign,
    v_lm_sign,
    v_stratum_sign,
    y_stratum_sign,
)
from .structures import (
    LINEAR_MODEL,
    BiasQuery,
    ColliderCpt,
    Conditioning,
    EdgeCpt,
    LinearModel,
    RoleMap,
    Scale,
    Sign,
    Stratum,
    StructureKind,
    StructureParams,
    params_from_dict,
    random_structure_params,
    validate,
    variable_roles,
)
from .verification import (
    IdentityResult,
    KindVerification,
    verify_kind,
    verify_many,
)

__version__ = "1.0.0"

# Every name imported above, and nothing else: one list of the public API.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
