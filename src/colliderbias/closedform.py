"""Closed-form collider bias expressions.

Each evaluator computes one analytic bias formula exactly as written, with
no algebraic rearrangement, and returns a :class:`BiasReport` carrying the
decomposition factors actually used.  Every factor is itself computed in
closed form: nothing here imports or builds the joint oracle, so the two
routes stay independent.  The identities tying them together (each formula
against the oracle, and each alternative closed route against the direct
one) run in :mod:`colliderbias.verification` and nowhere else.

Vocabulary used throughout:

* cross-product difference of the collider table at level c:
  P(C=c|0,0)P(C=c|1,1) - P(C=c|1,0)P(C=c|0,1).  Its sign is the sign of the
  stratum bias; it is zero exactly when the two causes do not interact on
  the risk-ratio scale in producing C=c.
* lm kernel: the negated product of the two causes' marginal effects on the
  collider; it carries the sign (and part of the magnitude) of the bias due
  to linear-regression adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import (
    DegenerateStratumError,
    ParameterError,
    UndefinedRatioError,
    np,
    raise_first_nonfinite,
    raise_where,
)
from .structures import (
    LINEAR_MODEL,
    BiasQuery,
    ColliderCpt,
    Conditioning,
    EdgeCpt,
    Scale,
    Sign,
    Stratum,
    StructureKind,
    StructureParams,
    _KIND_FIELDS,
    batch_memo,
)

# Sign classification bands: a value within SIGN_TOL of the null point is
# reported as Zero rather than guessed.  The null point is 1 on the ratio
# scales, RR and OR (with a 10x wider band, since they are ratios of
# products), 0 elsewhere.
SIGN_TOL = 1e-12
SIGN_TOL_OR = 1e-11

# In declaration order, so that error messages list them the same way.
_EXTENDED_KINDS = tuple(kind for kind in StructureKind if kind.is_extended)
# The kinds whose collider causes are marginally independent: all but Nabla.
_INDEPENDENT_KINDS = tuple(kind for kind in StructureKind if kind is not StructureKind.NABLA)
# The strata a report conditions on, by variable and by whether the level is
# 1; a level reaches a report only after a table's ``level_given`` took it.
# Stratum is frozen, so every report shares them.
_STRATA = {(variable, level == 1): Stratum(variable, level) for variable in "CD" for level in (0, 1)}


def band_sign(delta: float, tol: float = SIGN_TOL, out=None) -> Sign:
    """Sign of ``delta``, reported as Zero when it lies within ``tol`` of 0
    and as Negative when it is NaN.  Elementwise on an array, as int8 sign
    codes (-1/0/1), written into ``out`` when given."""
    if not getattr(delta, "ndim", 0):
        if abs(delta) <= tol:
            return Sign.ZERO
        return Sign.POSITIVE if delta > 0 else Sign.NEGATIVE
    codes = np.empty(delta.shape, dtype=np.int8) if out is None else out
    # (delta >= -tol) + (delta > tol) - 1, which a NaN fails twice: -1.  The
    # one temporary is a byte per entry.
    np.greater_equal(delta, -tol, out=codes.view(np.bool_))
    codes += delta > tol
    codes -= 1
    return codes


def classify_sign(value: float, scale: Scale) -> Sign:
    """Negative/Zero/Positive relative to the scale's null point."""
    if scale.is_ratio:
        return band_sign(value - 1, SIGN_TOL_OR)
    return band_sign(value)


@dataclass(frozen=True)
class BiasReport:
    """Value, sign and decomposition factors of one closed-form bias, each an
    array over a batch of draws; a non-finite value or factor raises
    PrecisionLossError.  The sign is derived from the value on its scale."""

    value: float
    scale: Scale
    conditioning: Conditioning
    sign: Sign = field(init=False)
    factors: Mapping[str, float]

    def __post_init__(self) -> None:
        _finite(self.value, self.factors)
        object.__setattr__(self, "sign", classify_sign(self.value, self.scale))


def _finite(value: float, factors: Mapping[str, float]) -> tuple[float, Mapping[str, float]]:
    """(value, factors); PrecisionLossError "closed form gave non-finite
    <name> = <value>" at the first NaN or infinite factor, then value."""
    if not (isinstance(value, float) and all(map(math.isfinite, (*factors.values(), value)))):
        raise_first_nonfinite("closed form gave non-finite", (*factors.items(), ("value", value)))
    return value, factors


def _require_kind(params: StructureParams, *kinds: StructureKind) -> None:
    if params.kind not in kinds:
        wanted = ", ".join(k.value for k in kinds)
        raise ParameterError(f"operation requires kind in {{{wanted}}}, got {params.kind.value}")


@batch_memo
def cross_product_difference(p_c_given: ColliderCpt, level: int) -> float:
    """P(C=c|00)P(C=c|11) - P(C=c|10)P(C=c|01) at c = level."""
    t = p_c_given
    return (
        t.level_given(level, 0, 0) * t.level_given(level, 1, 1)
        - t.level_given(level, 1, 0) * t.level_given(level, 0, 1)
    )


def child_contrast(pd1: float, pd0: float, g1: float, g0: float) -> float:
    """(pd1 - pd0)(pd1 g1 - pd0 g0) for pd1, pd0 = P(D=d | C=1), P(D=d | C=0)
    and g1, g0 the cross-product differences at C=1, C=0: the child-stratum
    bias at D=d on the covariance and RD scales is a positive multiple."""
    return (pd1 - pd0) * (pd1 * g1 - pd0 * g0)


@batch_memo
def _given_left(params: StructureParams, level: int, child: bool) -> tuple[float, float]:
    """(P(G=level | left cause = 1), P(G=level | left cause = 0)), each mixing
    over the right cause, with G the collider's child D when ``child`` is set
    and the collider C if not."""
    p_r1 = params.p_right
    assert p_r1 is not None
    p_r0 = 1.0 - p_r1
    t = params.p_c_given
    if not child:
        return (
            p_r1 * t.level_given(level, 1, 1) + p_r0 * t.level_given(level, 1, 0),
            p_r1 * t.level_given(level, 0, 1) + p_r0 * t.level_given(level, 0, 0),
        )
    d_cpt = params.p_d_given_c
    assert d_cpt is not None
    pair = []
    for left in (1, 0):
        # P(D=level | left, right) mixes the child edge over C at each right value.
        at_r1 = d_cpt.mixture(level, t.level_given(1, left, 1), t.level_given(0, left, 1))
        at_r0 = d_cpt.mixture(level, t.level_given(1, left, 0), t.level_given(0, left, 0))
        pair.append(p_r1 * at_r1 + p_r0 * at_r0)
    return tuple(pair)


def _stratum_odds_ratio(t: ColliderCpt, level: int) -> float:
    """P(C=c|00)P(C=c|11) / {P(C=c|10)P(C=c|01)} at c = level."""
    denom = t.level_given(level, 1, 0) * t.level_given(level, 0, 1)
    raise_where(denom <= 0.0, UndefinedRatioError, f"P(C={level}|10) P(C={level}|01) = 0")
    return t.level_given(level, 0, 0) * t.level_given(level, 1, 1) / denom


def v_stratum_bias(params: StructureParams, level: int, scale: Scale) -> BiasReport:
    """Bias of the X-Y association in the V structure within stratum C=level.

    cov:  var-product of the cause marginals times the cross-product
          difference, divided by P(C=c)^2.
    rd:   outcome var times the cross-product difference, divided by
          P(C=c|X=1) P(C=c|X=0).
    or:   P(C=c|00)P(C=c|11) / {P(C=c|10)P(C=c|01)}.
    """
    _require_kind(params, StructureKind.V)
    value, factors = _v_stratum_bias(params, level, scale)
    return BiasReport(value=value, scale=scale, conditioning=_STRATA["C", level == 1], factors=factors)


def _v_stratum_bias(params: StructureParams, level: int, scale: Scale) -> tuple[float, dict]:
    """The value and factors of :func:`v_stratum_bias` of the V structure
    embedded in ``params``, which may be of any kind with a ``p_right``: it
    reads only the V fields."""
    assert params.p_right is not None
    g = cross_product_difference(params.p_c_given, level)
    p_x1, p_y1 = params.p_left, params.p_right
    p_x0, p_y0 = 1.0 - p_x1, 1.0 - p_y1
    p_c = params.prob_collider(level)
    factors = {"cross_product_diff": g, "p_stratum": p_c}

    if scale is Scale.COV:
        p_c_sq = p_c * p_c  # zero when P(C=c) is zero or underflows on squaring
        raise_where(p_c_sq <= 0.0, DegenerateStratumError, "C", level)
        value = p_x1 * p_x0 * p_y1 * p_y0 * g / p_c_sq
    elif scale is Scale.RD:
        c_given_x1, c_given_x0 = _given_left(params, level, child=False)
        bad = c_given_x1 * c_given_x0 <= 0.0
        raise_where(bad, UndefinedRatioError, f"P(C={level} | X=x) = 0 for some x")
        value = p_y1 * p_y0 * g / (c_given_x1 * c_given_x0)
    elif scale is Scale.OR:
        value = _stratum_odds_ratio(params.p_c_given, level)
    else:
        raise ParameterError(f"no closed stratum form on scale {scale.value}")
    return _finite(value, factors)


def nabla_or_bias_factor(params: StructureParams, level: int) -> BiasReport:
    """Multiplicative OR-scale bias factor for the Nabla structure.

    The X-Y odds ratio conditional on C=level equals the marginal odds ratio
    times this factor, which depends only on the collider table; the V
    result is the special case with marginal OR equal to 1.  The marginal OR
    is that of P(Y=1 | X=x); the identity ``or_factor_vs_oracle`` in
    :mod:`colliderbias.verification` checks the factor against the oracle.
    """
    _require_kind(params, StructureKind.NABLA)
    value = _stratum_odds_ratio(params.p_c_given, level)
    assert params.p_y_given_b is not None
    y1, y0 = params.p_y_given_b.given_1, params.p_y_given_b.given_0
    bad = (1.0 - y1) * y0 <= 0.0
    raise_where(bad, UndefinedRatioError, "a zero cell makes the marginal odds ratio undefined")
    marginal = y1 * (1.0 - y0) / ((1.0 - y1) * y0)
    return BiasReport(
        value=value,
        scale=Scale.OR,
        conditioning=Stratum("C", level),
        factors={"marginal_or": marginal, "conditional_or": marginal * value},
    )


def y_stratum_bias(params: StructureParams, level: int, scale: Scale) -> BiasReport:
    """Bias of the X-Y association in the Y structure within stratum D=level.

    All three forms are driven by the child-effect contrast
    P(D=d|C=1) - P(D=d|C=0) and the two cross-product differences of the
    collider table; when the child carries no information about the collider
    the bias vanishes on every scale.
    """
    _require_kind(params, StructureKind.Y)
    value, factors = _y_stratum_bias(params, level, scale)
    return BiasReport(value=value, scale=scale, conditioning=_STRATA["D", level == 1], factors=factors)


def _y_stratum_bias(params: StructureParams, level: int, scale: Scale) -> tuple[float, dict]:
    """The value and factors of :func:`y_stratum_bias` of the Y structure
    embedded in ``params``, which may be of any kind with a ``p_right`` and a
    child D: it reads only the Y fields."""
    assert params.p_right is not None and params.p_d_given_c is not None
    t = params.p_c_given
    d = level
    pd1 = params.p_d_given_c.level_given(d, 1)  # P(D=d | C=1)
    pd0 = params.p_d_given_c.level_given(d, 0)  # P(D=d | C=0)
    g1 = cross_product_difference(t, 1)
    g0 = cross_product_difference(t, 0)
    core = child_contrast(pd1, pd0, g1, g0)
    p_x1, p_y1 = params.p_left, params.p_right
    p_x0, p_y0 = 1.0 - p_x1, 1.0 - p_y1
    p_d = params.prob_child(d)
    factors = {
        "cross_product_diff_c1": g1,
        "cross_product_diff_c0": g0,
        "child_effect": pd1 - pd0,
        "p_stratum": p_d,
    }

    if scale is Scale.COV:
        p_d_sq = p_d * p_d  # zero when P(D=d) is zero or underflows on squaring
        raise_where(p_d_sq <= 0.0, DegenerateStratumError, "D", d)
        value = p_x1 * p_x0 * p_y1 * p_y0 / p_d_sq * core
    elif scale is Scale.RD:
        d_given_x1, d_given_x0 = _given_left(params, d, child=True)
        bad = d_given_x1 * d_given_x0 <= 0.0
        raise_where(bad, UndefinedRatioError, f"P(D={d} | X=x) = 0 for some x")
        value = p_y1 * p_y0 * core / (d_given_x1 * d_given_x0)
    elif scale is Scale.OR:
        num = _y_odds_term(t, pd1, pd0, (0, 0), (1, 1))
        den = _y_odds_term(t, pd1, pd0, (1, 0), (0, 1))
        raise_where(den <= 0.0, UndefinedRatioError, f"odds-ratio denominator vanishes at D={d}")
        value = num / den
    else:
        raise ParameterError(f"no closed stratum form on scale {scale.value}")
    return _finite(value, factors)


def _y_odds_term(t: ColliderCpt, pd1: float, pd0: float, a: tuple, b: tuple) -> float:
    """(pd1 - pd0)(pd1 P(C=1|a) P(C=1|b) - pd0 P(C=0|a) P(C=0|b)) + pd1 pd0 for
    collider-parent cells a and b: the Y structure's odds ratio at D=d is this
    term on cells 00, 11 over the term on cells 10, 01."""
    return (pd1 - pd0) * (
        pd1 * t.level_given(1, *a) * t.level_given(1, *b)
        - pd0 * t.level_given(0, *a) * t.level_given(0, *b)
    ) + pd1 * pd0


def y_bias_from_embedded_v(params: StructureParams, level: int) -> float:
    """Covariance-scale Y-structure bias written as a contrast of the two
    embedded V-structure stratum biases:

        (pd1 - pd0) / P(D=d)^2 * [ pd1 P(C=1)^2 Vbias(C=1, cov)
                                 - pd0 P(C=0)^2 Vbias(C=0, cov) ]

    with pdc = P(D=d | C=c).  The identity ``embedded_cov_contrast`` in
    :mod:`colliderbias.verification` checks it against the direct stratum
    formula.
    """
    _require_kind(params, StructureKind.Y)
    assert params.p_d_given_c is not None
    d = level
    p_d = params.prob_child(d)
    p_d_sq = p_d * p_d  # zero when P(D=d) is zero or underflows on squaring
    raise_where(p_d_sq <= 0.0, DegenerateStratumError, "D", d)
    pd1 = params.p_d_given_c.level_given(d, 1)
    pd0 = params.p_d_given_c.level_given(d, 0)
    pc1 = params.prob_collider(1)
    pc0 = params.prob_collider(0)
    return (pd1 - pd0) / p_d_sq * (
        pd1 * pc1 * pc1 * _v_stratum_bias(params, 1, Scale.COV)[0]
        - pd0 * pc0 * pc0 * _v_stratum_bias(params, 0, Scale.COV)[0]
    )


def embedded_core(params: StructureParams) -> StructureParams:
    """The V or Y structure sitting inside an extended structure.

    The core keeps the collider table and the cause marginals; the causes
    are simply renamed to the exposure/outcome slots of the core.  The closed
    forms read the core's fields in place; this builds it for the oracle.
    """
    _require_kind(params, *_EXTENDED_KINDS)
    kind = StructureKind.Y if params.kind.has_child_d else StructureKind.V
    return StructureParams(kind=kind, **{name: getattr(params, name) for name in _KIND_FIELDS[kind]})


def _rd_or_one(edge: EdgeCpt | None) -> float:
    """The edge's risk difference, or 1 where the structure has no such edge."""
    return 1.0 if edge is None else edge.risk_difference


def extension_rds(params: StructureParams) -> tuple[float, float]:
    """(left, right) extension-path risk differences; 1 where there is no
    extension edge on that side."""
    return _rd_or_one(params.p_x_given_a), _rd_or_one(params.p_y_given_b)


@batch_memo
def extension_variance_ratio(params: StructureParams, level: int) -> float:
    """var(A | G=g) / var(X | G=g) for structures whose exposure hangs off a
    left cause A, with G the conditioning variable; 1 for right-only
    extensions.

    Evaluated from the closed mixture expressions, not from the joint table;
    the identity ``variance_ratio_identity`` in
    :mod:`colliderbias.verification` compares it with the joint-based ratio.
    """
    _require_kind(params, *_EXTENDED_KINDS)
    if not params.kind.has_left_a:
        return 1.0
    assert params.p_x_given_a is not None
    p_a1 = params.p_left
    p_a0 = 1.0 - p_a1
    g_a1, g_a0 = _given_left(params, level, child=params.kind.has_child_d)
    x1 = params.p_x_given_a.given_1
    x0 = params.p_x_given_a.given_0
    num = p_a1 * g_a1 * p_a0 * g_a0
    den = (x1 * p_a1 * g_a1 + x0 * p_a0 * g_a0) * (
        (1.0 - x1) * p_a1 * g_a1 + (1.0 - x0) * p_a0 * g_a0
    )
    raise_where(den <= 0.0, UndefinedRatioError, "var(X | stratum) = 0")
    return num / den


def extended_stratum_bias(params: StructureParams, level: int, scale: Scale) -> BiasReport:
    """Stratum bias for the six extended structures (cov and rd scales).

    The bias factors into the embedded V- or Y-structure bias times the
    extension-path risk differences, plus (on the rd scale, for left-side
    extensions) the conditional variance ratio of the left cause to the
    exposure.
    """
    _require_kind(params, *_EXTENDED_KINDS)
    if scale not in (Scale.COV, Scale.RD):
        raise ParameterError(
            f"no closed stratum form on scale {scale.value} for extended structures"
        )
    embedded = _y_stratum_bias if params.kind.has_child_d else _v_stratum_bias
    inner, factors = embedded(params, level, scale)
    rd_left, rd_right = extension_rds(params)
    factors.update({"embedded_value": inner, "rd_left": rd_left, "rd_right": rd_right})
    value = rd_left * inner * rd_right
    if scale is Scale.RD:
        vr = extension_variance_ratio(params, level)
        value *= vr
        factors["variance_ratio"] = vr
    conditioning = _STRATA[params.kind.conditioning_variable, level == 1]
    return BiasReport(value=value, scale=scale, conditioning=conditioning, factors=factors)


def _left_effect(t: ColliderCpt, p_right: float) -> float:
    """The left cause's marginal effect on P(C=1), mixing over the right:
    p_r (p11 - p01) + (1-p_r)(p10 - p00)."""
    return p_right * (t.given_11 - t.given_01) + (1.0 - p_right) * (t.given_10 - t.given_00)


def lm_kernel(p_c_given: ColliderCpt, p_left: float, p_right: float) -> float:
    """Negated product of the collider causes' marginal effects on it.

    With (p_l, p_r) the marginal probabilities of the collider's actual
    parents and the collider table at level 1:

        -[p_l (p11 - p10) + (1-p_l)(p01 - p00)]
         * [p_r (p11 - p01) + (1-p_r)(p10 - p00)]

    The first bracket is the right parent's marginal effect on the collider
    and the second the left parent's; either parent being marginally
    independent of the collider kills the kernel.  Also equal to the
    stratum-size-weighted mixture of the two cross-product differences,
    P(C=0) times the level-1 difference plus P(C=1) times the level-0
    difference; the identity ``lm_kernel_mixture_identity`` in
    :mod:`colliderbias.verification` checks that.  Array-valued table
    entries give the kernel elementwise.
    """
    t = p_c_given
    right_effect = p_left * (t.given_11 - t.given_10) + (1.0 - p_left) * (t.given_01 - t.given_00)
    return -right_effect * _left_effect(t, p_right)


@batch_memo
def lm_bias_kernel(params: StructureParams) -> float:
    """The lm kernel (:func:`lm_kernel`) of a structure with marginally
    independent collider causes."""
    _require_kind(params, *_INDEPENDENT_KINDS)
    assert params.p_right is not None
    return lm_kernel(params.p_c_given, params.p_left, params.p_right)


def v_lm_bias(params: StructureParams) -> BiasReport:
    """Bias of the X coefficient when Y is regressed on {1, X, C} in the V
    structure.

    The value is the lm kernel times the outcome variance, divided by the
    two-term mixture of within-stratum design products.  It equals the
    average of the two stratum risk differences under the reported weights
    (P(C=1-c) P(X=1, C=c) P(X=0, C=c), normalized); the identities
    ``lm_two_routes_agree``, ``lm_vs_oracle``, ``stratum_rd_vs_oracle`` and
    ``lm_weighted_average_identity`` in :mod:`colliderbias.verification`
    check that between them.
    """
    _require_kind(params, StructureKind.V)
    assert params.p_right is not None
    p_x1, p_y1 = params.p_left, params.p_right
    p_x0, p_y0 = 1.0 - p_x1, 1.0 - p_y1
    kernel = lm_bias_kernel(params)
    # m<x><c> = P(X=x, C=c), from P(C=c | X=x) mixed over Y.
    c1_x1, c1_x0 = _given_left(params, 1, child=False)
    c0_x1, c0_x0 = _given_left(params, 0, child=False)
    m11, m01 = p_x1 * c1_x1, p_x0 * c1_x0
    denominator = m11 * c0_x1 + m01 * c0_x0
    raise_where(denominator <= 0.0, DegenerateStratumError, "C", 1)
    value = kernel * p_y1 * p_y0 / denominator

    m10 = p_x1 * c0_x1
    m00 = p_x0 * c0_x0
    raw1 = (m10 + m00) * m11 * m01
    raw0 = (m11 + m01) * m10 * m00
    total = raw1 + raw0
    raise_where(total <= 0.0, lambda r: DegenerateStratumError("C", 1 if r <= 0 else 0), raw1)
    w1, w0 = raw1 / total, raw0 / total
    return BiasReport(
        value=value,
        scale=Scale.LM_COEF,
        conditioning=LINEAR_MODEL,
        factors={"lm_kernel": kernel, "weight_1": w1, "weight_0": w0},
    )


@batch_memo
def lm_weight_normalizer(params: StructureParams) -> float:
    """Closed form of the normalizing constant of the lm stratum weights.

    Definitionally P(G=0) P(G=1,X=1) P(G=1,X=0) + P(G=1) P(G=0,X=1) P(G=0,X=0)
    with G the conditioning variable; there are four distinct closed
    expressions, shared pairwise by structures in which the exposure sits in
    the same position relative to the conditioning variable.
    """
    _require_kind(params, *_INDEPENDENT_KINDS)
    kind = params.kind
    if not kind.has_left_a:
        # Exposure X is itself the left cause of the collider.
        p_x1 = params.p_left
        p_x0 = 1.0 - p_x1
        g1_x1, g1_x0 = _given_left(params, 1, child=kind.has_child_d)
        g0_x1, g0_x0 = _given_left(params, 0, child=kind.has_child_d)
        return p_x1 * p_x0 * (p_x1 * g1_x1 * g0_x1 + p_x0 * g1_x0 * g0_x0)

    # Exposure X is a child of the left cause A.
    x_cpt = params.p_x_given_a
    assert x_cpt is not None and params.p_right is not None
    p_a1 = params.p_left
    p_a0 = 1.0 - p_a1
    p_x1, p_x0 = x_cpt.mixture(1, p_a1, p_a0), x_cpt.mixture(0, p_a1, p_a0)
    c1_a1, c1_a0 = _given_left(params, 1, child=False)
    c0_a1, c0_a0 = _given_left(params, 0, child=False)
    pc1 = p_a1 * c1_a1 + p_a0 * c1_a0
    pc0 = p_a1 * c0_a1 + p_a0 * c0_a0
    rd_x = x_cpt.risk_difference
    effect = p_a1 * p_a0 * rd_x * _left_effect(params.p_c_given, params.p_right)
    correction = effect * effect
    if not kind.has_child_d:
        return p_x1 * p_x0 * pc1 * pc0 - correction
    assert params.p_d_given_c is not None
    d_cpt = params.p_d_given_c
    pd1 = d_cpt.mixture(1, pc1, pc0)
    pd0 = d_cpt.mixture(0, pc1, pc0)
    return p_x1 * p_x0 * pd1 * pd0 - correction * (d_cpt.risk_difference * d_cpt.risk_difference)


@batch_memo
def lm_bias(params: StructureParams) -> BiasReport:
    """Bias due to linear-regression adjustment, in one formula for all
    eight structures with marginally independent collider causes:

        kernel * rd_left * rd_right * rd_child^2 * var_left * var_right / phi

    where rd factors are 1 for absent extension/child edges, the variances
    are those of the collider's causes, and phi is the weight normalizer.
    The identity ``lm_normalizer_identity`` in
    :mod:`colliderbias.verification` checks the closed phi against its
    definitional form.
    """
    kernel = lm_bias_kernel(params)
    assert params.p_right is not None
    rd_left, rd_right = extension_rds(params)
    rd_child = _rd_or_one(params.p_d_given_c)
    var_left = params.p_left * (1.0 - params.p_left)
    var_right = params.p_right * (1.0 - params.p_right)
    phi = lm_weight_normalizer(params)
    raise_where(phi <= 0.0, lambda: DegenerateStratumError(params.kind.conditioning_variable, 1))
    value = kernel * rd_left * rd_right * (rd_child * rd_child) * var_left * var_right / phi
    return BiasReport(
        value=value,
        scale=Scale.LM_COEF,
        conditioning=LINEAR_MODEL,
        factors={
            "lm_kernel": kernel,
            "rd_left": rd_left,
            "rd_right": rd_right,
            "rd_child": rd_child,
            "var_left": var_left,
            "var_right": var_right,
            "lm_normalizer": phi,
        },
    )


def closed_form(params: StructureParams, query: BiasQuery) -> BiasReport | None:
    """The closed form that answers ``query`` for this kind, or None when
    only the oracle serves it (rr everywhere; or for extended kinds;
    everything but the or factor for Nabla)."""
    query.check_valid_for(params.kind)
    kind = params.kind
    if not isinstance(query.conditioning, Stratum):
        return None if kind is StructureKind.NABLA else lm_bias(params)
    level = query.conditioning.level
    scale = query.scale
    if kind is StructureKind.NABLA:
        return nabla_or_bias_factor(params, level) if scale is Scale.OR else None
    if scale is Scale.RR:
        return None
    if kind is StructureKind.V:
        return v_stratum_bias(params, level, scale)
    if kind is StructureKind.Y:
        return y_stratum_bias(params, level, scale)
    if scale in (Scale.COV, Scale.RD):
        return extended_stratum_bias(params, level, scale)
    return None
