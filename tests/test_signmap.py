import dataclasses
import itertools
import math

import numpy as np
import pytest

from colliderbias import (
    LINEAR_MODEL,
    BiasQuery,
    ColliderCpt,
    DegenerateStratumError,
    EdgeCpt,
    GridFamily,
    GridFixed,
    InvalidResolutionError,
    Pattern,
    Scale,
    Sign,
    Stratum,
    StructureKind,
    StructureParams,
    bias,
    build_joint,
    classify_effects,
    classify_sign,
    cross_product_difference,
    emit_grid,
    extended_sign,
    lm_bias,
    nabla_stratum_sign,
    random_structure_params,
    v_lm_sign,
    v_stratum_sign,
    y_stratum_sign,
)
from colliderbias.closedform import SIGN_TOL, band_sign, child_contrast, lm_bias_kernel
from colliderbias.verification import _child_case_sign
from conftest import REFERENCE_CPT, UNIFORM_CPT


# -- effect classification ---------------------------------------------------


def test_classify_reference_point():
    effects = classify_effects(REFERENCE_CPT)
    assert effects.pattern is Pattern.BOTH_POSITIVE
    assert effects.canonical_level == 1
    assert effects.rr_interaction_canonical is Sign.POSITIVE
    assert effects.or_interaction is Sign.POSITIVE
    assert effects.rd_interaction is Sign.POSITIVE


def test_classify_rr_non_interaction():
    cpt = ColliderCpt(given_00=0.2, given_01=0.4, given_10=0.4, given_11=0.8)
    effects = classify_effects(cpt)
    assert effects.pattern is Pattern.BOTH_POSITIVE
    assert effects.rr_interaction_canonical is Sign.ZERO


def test_classify_opposite_signs():
    cpt = ColliderCpt(given_00=0.5, given_01=0.3, given_10=0.7, given_11=0.5)
    assert classify_effects(cpt).pattern is Pattern.OPPOSITE_SIGNS


def test_classify_qualitative_in_x():
    cpt = ColliderCpt(given_00=0.5, given_01=0.6, given_10=0.3, given_11=0.8)
    assert classify_effects(cpt).pattern is Pattern.QUALITATIVE_IN_X


def test_classify_qualitative_in_y():
    # X raises P(C=1) at both outcome levels; Y raises it at X=0 but lowers
    # it at X=1.
    cpt = ColliderCpt(given_00=0.2, given_01=0.4, given_10=0.7, given_11=0.5)
    assert classify_effects(cpt).pattern is Pattern.QUALITATIVE_IN_Y


def test_classify_both_negative():
    cpt = ColliderCpt(given_00=0.8, given_01=0.5, given_10=0.4, given_11=0.2)
    effects = classify_effects(cpt)
    assert effects.pattern is Pattern.BOTH_NEGATIVE
    assert effects.canonical_level == 0


def test_classify_tie():
    effects = classify_effects(UNIFORM_CPT)
    assert effects.pattern is Pattern.DEGENERATE_TIE
    # interaction verdicts are still reported for tied tables
    assert effects.rr_interaction_canonical is Sign.ZERO
    assert effects.rd_interaction is Sign.ZERO


@pytest.mark.parametrize(
    "cpt",
    [UNIFORM_CPT, ColliderCpt(given_00=0.3, given_01=0.6, given_10=0.2, given_11=0.3)],
    ids=["uniform", "q11-equals-q00"],
)
def test_canonical_level_is_1_when_q11_equals_q00(cpt):
    # The canonical level c has P(C=c|1,1) >= P(C=c|0,0); on a tie it is 1.
    assert classify_effects(cpt).canonical_level == 1


def _logit_interaction(cpt):
    """logit q11 + logit q00 - logit q10 - logit q01, with q the collider
    table at the canonical level: the level c with P(C=c|1,1) >= P(C=c|0,0)."""
    canonical = 1 if cpt.given_11 >= cpt.given_00 else 0

    def logit(p):
        q = p if canonical else 1.0 - p
        return math.log(q / (1.0 - q))

    return logit(cpt.given_11) + logit(cpt.given_00) - logit(cpt.given_10) - logit(cpt.given_01)


def test_or_interaction_is_the_sign_of_the_logit_contrast():
    rng = np.random.default_rng(2016)
    checked = 0
    for entries in rng.uniform(0.01, 0.99, size=(2000, 4)):
        cpt = ColliderCpt(*entries)
        contrast = _logit_interaction(cpt)
        if abs(contrast) < 1e-6:
            continue
        expected = Sign.POSITIVE if contrast > 0 else Sign.NEGATIVE
        assert classify_effects(cpt).or_interaction is expected, cpt
        checked += 1
    assert checked >= 1990


def test_or_interaction_is_zero_on_the_zero_locus():
    # Entries k/16 whose odds satisfy o11 o00 = o10 o01 exactly, at either
    # level: every product in the odds-ratio contrast is exact in binary.
    on_locus = [
        ks for ks in itertools.product(range(1, 16), repeat=4)
        if ks[3] * ks[0] * (16 - ks[2]) * (16 - ks[1]) == ks[2] * ks[1] * (16 - ks[3]) * (16 - ks[0])
    ]
    assert len(on_locus) > 300
    for ks in on_locus:
        cpt = ColliderCpt(*(k / 16 for k in ks))
        assert abs(_logit_interaction(cpt)) < 1e-12, cpt
        assert classify_effects(cpt).or_interaction is Sign.ZERO, cpt


def test_extended_sign_rejects_wrong_stratum_variable():
    from colliderbias import EdgeCpt, ParameterError, random_structure_params
    import numpy as np

    params = random_structure_params(StructureKind.Y, np.random.default_rng(3))
    with pytest.raises(ParameterError):
        extended_sign(params, Stratum("C", 1))


def test_extended_sign_rejects_nabla():
    from colliderbias import ParameterError

    params = random_structure_params(StructureKind.NABLA, np.random.default_rng(3))
    with pytest.raises(ParameterError, match="got Nabla"):
        extended_sign(params, Stratum("C", 1))


# -- stratum signs -----------------------------------------------------------


def test_v_sign_reference_point():
    assert v_stratum_sign(REFERENCE_CPT, 1) is Sign.POSITIVE
    assert v_stratum_sign(REFERENCE_CPT, 0) is Sign.NEGATIVE


def test_v_sign_zero_on_non_interaction():
    cpt = ColliderCpt(given_00=0.2, given_01=0.4, given_10=0.4, given_11=0.8)
    assert v_stratum_sign(cpt, 1) is Sign.ZERO


def test_v_sign_qualitative_is_strictly_opposite():
    cpt = ColliderCpt(given_00=0.5, given_01=0.6, given_10=0.3, given_11=0.8)
    signs = {v_stratum_sign(cpt, 1), v_stratum_sign(cpt, 0)}
    assert signs == {Sign.POSITIVE, Sign.NEGATIVE}


def test_y_sign_uninformative_child():
    d_cpt = EdgeCpt(given_0=0.4, given_1=0.4)
    assert y_stratum_sign(REFERENCE_CPT, d_cpt, 1) is Sign.ZERO
    assert y_stratum_sign(REFERENCE_CPT, d_cpt, 0) is Sign.ZERO


def test_y_sign_case1():
    # Cross-product differences of opposite weak signs; positive child edge.
    assert cross_product_difference(REFERENCE_CPT, 1) > 0
    assert cross_product_difference(REFERENCE_CPT, 0) < 0
    d_cpt = EdgeCpt(given_0=0.2, given_1=0.7)
    assert y_stratum_sign(REFERENCE_CPT, d_cpt, 1) is Sign.POSITIVE
    assert y_stratum_sign(REFERENCE_CPT, d_cpt, 0) is Sign.NEGATIVE


def test_y_sign_case3a_inside_band():
    # Both cross-product differences negative: g(1) = -0.1275, g(0) = -0.0275.
    cpt = ColliderCpt(given_00=0.15, given_01=0.4, given_10=0.6, given_11=0.75)
    g1 = cross_product_difference(cpt, 1)
    g0 = cross_product_difference(cpt, 0)
    assert g1 < 0 and g0 < 0
    threshold = g0 / g1
    # P(D=1|C=1)/P(D=1|C=0) = 0.5, strictly between the threshold and 1.
    d_cpt = EdgeCpt(given_0=0.6, given_1=0.3)
    assert threshold < 0.5 < 1.0
    assert y_stratum_sign(cpt, d_cpt, 1) is Sign.POSITIVE
    # Outside the band: ratio 2.5.
    d_wide = EdgeCpt(given_0=0.2, given_1=0.5)
    assert y_stratum_sign(cpt, d_wide, 1) is Sign.NEGATIVE


def test_y_sign_degenerate_cross_products():
    # Neither cause moves C, so both cross-product differences vanish and the
    # child-stratum bias is identically zero.
    d_cpt = EdgeCpt(given_0=0.3, given_1=0.7)
    assert y_stratum_sign(UNIFORM_CPT, d_cpt, 1) is Sign.ZERO
    assert y_stratum_sign(UNIFORM_CPT, d_cpt, 0) is Sign.ZERO


# Child-edge probabilities up to 1 - 2^-53 and down to the smallest
# subnormal, taken in every ordered pair as (pd1, pd0).
EXTREME_PD = [1 - 2**-53, 2**-1074, 0.5, 1e-300]


@pytest.mark.parametrize("pd1", EXTREME_PD)
@pytest.mark.parametrize("pd0", EXTREME_PD)
def test_child_contrast_zero_when_both_cross_products_in_band(pd1, pd0, rng):
    # |contrast| <= SIGN_TOL |pd1^2 - pd0^2| < SIGN_TOL once |g1|, |g0| <= SIGN_TOL.
    edges = [-SIGN_TOL, -SIGN_TOL / 2, 0.0, SIGN_TOL / 2, SIGN_TOL]
    for g1 in edges + list(rng.uniform(-SIGN_TOL, SIGN_TOL, 50)):
        for g0 in edges:
            assert band_sign(child_contrast(pd1, pd0, float(g1), g0)) is Sign.ZERO


# Collider tables whose stratum signs differ from level to level and table
# to table, including a tie at level 0 (UNIFORM_CPT ties at both).
CHILD_EDGE_CPTS = [REFERENCE_CPT, UNIFORM_CPT, ColliderCpt(0.1, 0.5, 0.4, 0.9),
                   ColliderCpt(0.9, 0.2, 0.7, 0.1), ColliderCpt(0.0, 1.0, 0.0, 1.0)]


@pytest.mark.parametrize("cpt", CHILD_EDGE_CPTS)
def test_y_sign_answers_a_child_edge_at_0_or_1(cpt):
    # child_contrast is defined on the closed interval.  At 0=0,1=1, D copies
    # C, so each D=d sign is the C=d sign; a child edge with one entry at an
    # edge and one inside is answered as well.
    for level in (0, 1):
        assert y_stratum_sign(cpt, EdgeCpt(given_0=0.0, given_1=1.0), level) is v_stratum_sign(cpt, level)
        for d_cpt in (EdgeCpt(given_0=0.0, given_1=0.7), EdgeCpt(given_0=0.3, given_1=1.0)):
            pd0, pd1 = d_cpt.at_level(level)
            direct = child_contrast(pd1, pd0, cross_product_difference(cpt, 1), cross_product_difference(cpt, 0))
            assert y_stratum_sign(cpt, d_cpt, level) is band_sign(direct)


@pytest.mark.parametrize("entry", [0.0, 1.0])
def test_y_sign_is_zero_in_an_empty_child_stratum(entry):
    # D is constant: the stratum D = 1 - entry is empty, and the bias in it,
    # which compute refuses as degenerate, has sign Zero; so has the other.
    d_cpt = EdgeCpt(given_0=entry, given_1=entry)
    for cpt in CHILD_EDGE_CPTS:
        for level in (0, 1):
            assert y_stratum_sign(cpt, d_cpt, level) is Sign.ZERO
    params = StructureParams(kind=StructureKind.Y, p_left=0.4, p_right=0.6, p_c_given=REFERENCE_CPT,
                             p_d_given_c=d_cpt)
    with pytest.raises(DegenerateStratumError):
        bias(build_joint(params), BiasQuery(Stratum("D", int(1 - entry)), Scale.COV))


CHILD_KINDS = [StructureKind.Y, StructureKind.LONG_M, StructureKind.LEFT_LONG_M, StructureKind.RIGHT_LONG_M]


@pytest.mark.parametrize("kind", CHILD_KINDS, ids=lambda kind: kind.value)
def test_sign_at_a_child_edge_of_0_or_1_is_never_opposite_to_the_oracle(kind):
    # Draws whose child entries are forced, now and then, to 0 or 1: where
    # the oracle answers, the sign is never strictly opposite to its banded
    # cov bias; where the stratum is empty, the sign is Zero.
    rng = np.random.default_rng(34)
    answered = empty = 0
    for _ in range(2000):
        params = random_structure_params(kind, rng)
        entries = [float(rng.integers(2)) if rng.random() < 0.7 else value
                   for value in params.p_d_given_c.values()]
        params = dataclasses.replace(params, p_d_given_c=EdgeCpt(*entries))
        table = build_joint(params)
        for level in (0, 1):
            rule = extended_sign(params, Stratum("D", level))
            try:
                value = bias(table, BiasQuery(Stratum("D", level), Scale.COV)).value
            except DegenerateStratumError:
                assert rule is Sign.ZERO
                empty += 1
                continue
            assert rule * classify_sign(value, Scale.COV) != -1, (params, level)
            answered += 1
    assert answered > 3000 and empty > 300


def test_y_sign_matches_direct_formula(rng):
    for _ in range(200):
        params = random_structure_params(StructureKind.Y, rng)
        for level in (0, 1):
            case = y_stratum_sign(params.p_c_given, params.p_d_given_c, level)
            pd0, pd1 = params.p_d_given_c.at_level(level)
            direct = (pd1 - pd0) * (
                pd1 * cross_product_difference(params.p_c_given, 1)
                - pd0 * cross_product_difference(params.p_c_given, 0)
            )
            assert case is classify_sign(direct, Scale.COV)


# Both cross-product differences negative (case 3a) or both positive (3b).
CASE3A_CPT = ColliderCpt(given_00=0.15, given_01=0.4, given_10=0.6, given_11=0.75)
CASE3B_CPT = ColliderCpt(given_00=0.5, given_01=0.9, given_10=0.2, given_11=0.5)

# One point per branch of the paper's case rules, which the verify battery
# runs as ``child_sign_cases``: (collider table, child edge, level, sign).
CASE_RULE_POINTS = {
    "case1-level1": (REFERENCE_CPT, EdgeCpt(given_0=0.2, given_1=0.7), 1, Sign.POSITIVE),
    "case1-level0": (REFERENCE_CPT, EdgeCpt(given_0=0.2, given_1=0.7), 0, Sign.NEGATIVE),
    "case2": (
        ColliderCpt(given_00=0.5, given_01=0.9, given_10=0.9, given_11=0.5),
        EdgeCpt(given_0=0.2, given_1=0.7), 1, Sign.NEGATIVE,
    ),
    "case3a-inside": (CASE3A_CPT, EdgeCpt(given_0=0.6, given_1=0.3), 1, Sign.POSITIVE),
    "case3a-outside": (CASE3A_CPT, EdgeCpt(given_0=0.2, given_1=0.5), 1, Sign.NEGATIVE),
    "case3b-inside": (CASE3B_CPT, EdgeCpt(given_0=0.3, given_1=0.6), 1, Sign.NEGATIVE),
    "case3b-outside": (CASE3B_CPT, EdgeCpt(given_0=0.3, given_1=0.9), 1, Sign.POSITIVE),
}


@pytest.mark.parametrize("cpt, d_cpt, level, expected", CASE_RULE_POINTS.values(),
                         ids=CASE_RULE_POINTS)
def test_child_case_rule_branches(cpt, d_cpt, level, expected):
    assert _child_case_sign(cpt, d_cpt, level) is expected
    assert y_stratum_sign(cpt, d_cpt, level) is expected


# -- extended and lm signs ---------------------------------------------------


def test_extended_sign_zero_extension(rng):
    params = StructureParams(
        kind=StructureKind.LEFT_M,
        p_left=0.4,
        p_right=0.6,
        p_c_given=REFERENCE_CPT,
        p_x_given_a=EdgeCpt(given_0=0.35, given_1=0.35),
    )
    assert extended_sign(params, Stratum("C", 1)) is Sign.ZERO
    assert extended_sign(params, LINEAR_MODEL) is Sign.ZERO


def test_extended_sign_product_rule():
    # Negative left extension, positive right extension: flips the embedded
    # negative sign to positive once.
    params = StructureParams(
        kind=StructureKind.M,
        p_left=0.4,
        p_right=0.6,
        p_c_given=REFERENCE_CPT,
        p_x_given_a=EdgeCpt(given_0=0.8, given_1=0.3),
        p_y_given_b=EdgeCpt(given_0=0.2, given_1=0.7),
    )
    assert v_stratum_sign(REFERENCE_CPT, 0) is Sign.NEGATIVE
    assert extended_sign(params, Stratum("C", 0)) is Sign.POSITIVE
    assert extended_sign(params, Stratum("C", 1)) is Sign.NEGATIVE


# A cause of the collider fixed at 0 or 1 is constant, so every bias
# vanishes; the collider table alone says otherwise.
FIXED_CAUSE_CPT = ColliderCpt(given_00=0.1, given_01=0.2, given_10=0.3, given_11=0.9)
FIXED_CAUSE_PARAMS = [
    StructureParams(kind=StructureKind.V, p_left=0.0, p_right=0.5, p_c_given=FIXED_CAUSE_CPT),
    StructureParams(
        kind=StructureKind.M,
        p_left=0.3,
        p_right=1.0,
        p_c_given=FIXED_CAUSE_CPT,
        p_x_given_a=EdgeCpt(given_0=0.2, given_1=0.7),
        p_y_given_b=EdgeCpt(given_0=0.4, given_1=0.8),
    ),
    StructureParams(
        kind=StructureKind.RIGHT_M,
        p_left=0.5,
        p_right=0.0,
        p_c_given=FIXED_CAUSE_CPT,
        p_y_given_b=EdgeCpt(given_0=0.4, given_1=0.8),
    ),
]


@pytest.mark.parametrize("params", FIXED_CAUSE_PARAMS, ids=lambda p: p.kind.value)
def test_extended_sign_is_zero_where_a_cause_is_fixed(params):
    assert v_stratum_sign(params.p_c_given, 1) is Sign.POSITIVE
    assert v_stratum_sign(params.p_c_given, 0) is Sign.NEGATIVE
    for conditioning in (Stratum("C", 1), Stratum("C", 0), LINEAR_MODEL):
        assert extended_sign(params, conditioning) is Sign.ZERO
    table = build_joint(params)
    for level in (1, 0):
        value = bias(table, BiasQuery(Stratum("C", level), Scale.COV)).value
        assert classify_sign(value, Scale.COV) is Sign.ZERO


def test_nabla_stratum_sign_is_never_opposite_to_the_oracle_odds_ratio():
    # The stratum signs that ``sign --kind Nabla`` prints hold on the odds-ratio
    # scale: none is strictly opposite to the banded OR bias of the oracle.
    params = random_structure_params(StructureKind.NABLA, np.random.default_rng(3), 20000)
    table = build_joint(params)
    for level in (1, 0):
        rule = nabla_stratum_sign(params, level)
        oracle = classify_sign(bias(table, BiasQuery(Stratum("C", level), Scale.OR)).value, Scale.OR)
        assert not (rule * oracle == -1).any(), level


NABLA_DRAW = StructureParams(
    kind=StructureKind.NABLA, p_left=0.4, p_y_given_b=EdgeCpt(given_0=0.3, given_1=0.6),
    p_c_given=ColliderCpt(given_00=0.1, given_01=0.2, given_10=0.3, given_11=0.9),
)
# An edit of NABLA_DRAW that empties some cell P(X=x, Y=y, C=c), and the
# levels c at which it does.
NABLA_EMPTY_CELLS = {
    "x-never-1": ({"p_left": 0.0}, (0, 1)),
    "x-always-1": ({"p_left": 1.0}, (0, 1)),
    "y-never-1-given-x0": ({"p_y_given_b": EdgeCpt(given_0=0.0, given_1=0.6)}, (0, 1)),
    "y-always-1-given-x1": ({"p_y_given_b": EdgeCpt(given_0=0.3, given_1=1.0)}, (0, 1)),
    "c-never-1-at-10": ({"p_c_given": ColliderCpt(0.1, 0.2, 0.0, 0.9)}, (1,)),
    "c-always-1-at-01": ({"p_c_given": ColliderCpt(0.1, 1.0, 0.3, 0.9)}, (0,)),
}


@pytest.mark.parametrize("edit, empty", NABLA_EMPTY_CELLS.values(), ids=NABLA_EMPTY_CELLS.keys())
def test_nabla_stratum_sign_is_zero_at_a_level_with_an_empty_cell(edit, empty):
    params = dataclasses.replace(NABLA_DRAW, **edit)
    for level in (0, 1):
        table_sign = v_stratum_sign(params.p_c_given, level)
        assert table_sign is not Sign.ZERO
        expected = Sign.ZERO if level in empty else table_sign
        assert nabla_stratum_sign(params, level) is expected, level


def test_extended_sign_matches_lm_value(rng):
    kinds = [k for k in StructureKind if k is not StructureKind.NABLA]
    for kind in kinds:
        for _ in range(20):
            params = random_structure_params(kind, rng)
            predicted = extended_sign(params, LINEAR_MODEL)
            numeric = classify_sign(lm_bias(params).value, Scale.LM_COEF)
            assert predicted is numeric or Sign.ZERO in (predicted, numeric)


def test_v_lm_sign_monotone_patterns(rng):
    params = StructureParams(
        kind=StructureKind.V, p_left=0.5, p_right=0.5, p_c_given=REFERENCE_CPT
    )
    assert v_lm_sign(params) is Sign.NEGATIVE
    opposite = StructureParams(
        kind=StructureKind.V,
        p_left=0.5,
        p_right=0.5,
        p_c_given=ColliderCpt(given_00=0.5, given_01=0.3, given_10=0.7, given_11=0.5),
    )
    assert v_lm_sign(opposite) is Sign.POSITIVE


def test_v_lm_sign_zero_when_exposure_independent():
    # Collider distribution does not depend on the left parent: the point
    # (p10, p01) = (p00, p11) lies on the exposure-independence line.
    params = StructureParams(
        kind=StructureKind.V,
        p_left=0.3,
        p_right=0.6,
        p_c_given=ColliderCpt(given_00=0.3, given_01=0.7, given_10=0.3, given_11=0.7),
    )
    assert v_lm_sign(params) is Sign.ZERO


@pytest.mark.parametrize("fixed", [{"p_left": 1.0}, {"p_left": 0.0}, {"p_right": 1.0}, {"p_right": 0.0}])
def test_v_lm_sign_is_zero_where_a_cause_is_fixed(fixed):
    # One lm sign rule: the lm kernel alone is nonzero here, but a constant
    # cause leaves no bias, as extended_sign and the sign command say.
    params = StructureParams(kind=StructureKind.V, p_left=0.5, p_right=0.5, p_c_given=REFERENCE_CPT)
    assert v_lm_sign(params) is Sign.NEGATIVE
    params = dataclasses.replace(params, **fixed)
    assert band_sign(lm_bias_kernel(params)) is not Sign.ZERO
    assert v_lm_sign(params) is extended_sign(params, LINEAR_MODEL) is Sign.ZERO


@pytest.mark.parametrize("kind", [StructureKind.M, StructureKind.NABLA, StructureKind.Y])
def test_v_lm_sign_rejects_other_kinds(kind):
    from colliderbias import ParameterError

    params = random_structure_params(kind, np.random.default_rng(5))
    with pytest.raises(ParameterError, match=f"got {kind.value}"):
        v_lm_sign(params)


def test_v_lm_sign_matches_value(rng):
    for _ in range(100):
        params = random_structure_params(StructureKind.V, rng)
        predicted = v_lm_sign(params)
        numeric = classify_sign(lm_bias(params).value, Scale.LM_COEF)
        assert predicted is numeric or Sign.ZERO in (predicted, numeric)


# -- grids --------------------------------------------------------------------


def test_grid_rejects_tiny_resolution():
    fixed = GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.5, p_right=0.5)
    with pytest.raises(InvalidResolutionError):
        emit_grid(GridFamily.STRATUM, fixed, 1)


def test_grid_rejects_resolution_above_cap():
    fixed = GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.5, p_right=0.5)
    assert emit_grid(GridFamily.STRATUM, fixed, 2000).resolution == 2000
    for resolution in (2001, 10**9):
        with pytest.raises(InvalidResolutionError, match="2000"):
            emit_grid(GridFamily.STRATUM, fixed, resolution)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"p_c00": -0.1}, "p_c00"),
        ({"p_c11": 1.5}, "p_c11"),
        ({"p_left": math.nan}, "p_left"),
        ({"p_right": math.inf}, "p_right"),
        ({"p_d_given_c": EdgeCpt(given_0=0.2, given_1=1.01)}, "p_d_given_c[1]"),
    ],
)
def test_grid_fixed_rejects_out_of_range(overrides, field):
    from colliderbias import OutOfRangeError

    kwargs = {"p_c00": 0.15, "p_c11": 0.75, "p_left": 0.5, "p_right": 0.5, **overrides}
    with pytest.raises(OutOfRangeError) as info:
        GridFixed(**kwargs)
    assert info.value.field == field
    assert str(info.value).endswith("is outside [0.0, 1.0]")


def test_grid_requires_child_edge_for_child_family():
    from colliderbias import ParameterError

    fixed = GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.5, p_right=0.5)
    with pytest.raises(ParameterError):
        emit_grid(GridFamily.CHILD_STRATUM, fixed, 4)


def test_grid_axis_is_open_lattice():
    fixed = GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.5, p_right=0.5)
    grid = emit_grid(GridFamily.STRATUM, fixed, 10)
    assert grid.axis[0] == 0.05 and grid.axis[-1] == 0.95
    assert grid.cells.shape == (10, 10, 2)


def test_grid_reference_cell_positive():
    fixed = GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.5, p_right=0.5)
    grid = emit_grid(GridFamily.STRATUM, fixed, 200)
    i = int(np.argmin(np.abs(grid.axis - 0.25)))
    assert grid.cells[i, i, 0] == 1  # sign at C=1 near (0.25, 0.25)
    names = {locus.name for locus in grid.zero_loci}
    assert {"rr_level1", "rr_level0", "rd", "or"} <= names


def test_grid_zero_on_locus():
    # With both fixed corners at 0.5 the level-1 curve passes through the
    # exact center cell of any odd-resolution grid.
    fixed = GridFixed(p_c00=0.5, p_c11=0.5, p_left=0.5, p_right=0.5)
    grid = emit_grid(GridFamily.STRATUM, fixed, 5)
    assert grid.cells[2, 2, 0] == 0
    assert grid.cells[2, 2, 1] == 0


# (p_c00, p_c11, p_left, p_right, child edge, resolution).  The zero-locus
# setting's odd resolution puts a cell center on (0.5, 0.5), where every table
# entry is 0.5 and both cross-product differences vanish.  In the last four a
# cause is fixed at 0 or 1, where every regression sign is Zero.
SCALAR_ROUTE_SETTINGS = {
    "reference": (0.15, 0.75, 0.3, 0.6, (0.2, 0.7), 12),
    "zero-locus": (0.5, 0.5, 0.5, 0.5, (0.2, 0.7), 5),
    "near-tie-child-edge": (0.999, 0.999, 0.5, 0.5, (0.9, 0.9000000000009), 20),
    "left-cause-at-1": (0.15, 0.75, 1.0, 0.5, (0.2, 0.7), 6),
    "left-cause-at-0": (0.15, 0.75, 0.0, 0.6, (0.2, 0.7), 6),
    "right-cause-at-1": (0.15, 0.75, 0.3, 1.0, (0.2, 0.7), 6),
    "both-causes-fixed": (0.0, 1.0, 0.0, 1.0, (0.3, 0.8), 6),
}


@pytest.mark.parametrize("family", list(GridFamily), ids=lambda family: family.value)
@pytest.mark.parametrize("setting", list(SCALAR_ROUTE_SETTINGS))
def test_grid_agrees_with_scalar_rules_cell_by_cell(setting, family):
    p_c00, p_c11, p_left, p_right, (d0, d1), resolution = SCALAR_ROUTE_SETTINGS[setting]
    d_cpt = EdgeCpt(given_0=d0, given_1=d1)
    fixed = GridFixed(p_c00=p_c00, p_c11=p_c11, p_left=p_left, p_right=p_right,
                      p_d_given_c=d_cpt)
    grid = emit_grid(family, fixed, resolution)
    for i, p10 in enumerate(grid.axis):
        for j, p01 in enumerate(grid.axis):
            cpt = ColliderCpt(
                given_00=p_c00, given_01=float(p01), given_10=float(p10), given_11=p_c11
            )
            if family is GridFamily.STRATUM:
                expected = [v_stratum_sign(cpt, level) for level in (1, 0)]
            elif family is GridFamily.CHILD_STRATUM:
                expected = [y_stratum_sign(cpt, d_cpt, level) for level in (1, 0)]
            else:
                params = StructureParams(
                    kind=StructureKind.V, p_left=p_left, p_right=p_right, p_c_given=cpt
                )
                expected = [v_lm_sign(params)]
            assert grid.cells[i, j].tolist() == expected
    if setting == "zero-locus":
        assert grid.cells[2, 2].tolist() == [0] * len(grid.columns)


def test_grid_regression_loci():
    fixed = GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.3, p_right=0.6)
    grid = emit_grid(GridFamily.REGRESSION, fixed, 8)
    by_name = {locus.name: dict(locus.coefficients) for locus in grid.zero_loci}
    line_x = by_name["exposure_collider_independent"]
    assert math.isclose(line_x["slope"], (1 - 0.6) / 0.6)
    assert line_x["point_p10"] == 0.15 and line_x["point_p01"] == 0.75
    line_y = by_name["outcome_collider_independent"]
    assert math.isclose(line_y["slope"], 0.3 / 0.7)
    assert line_y["point_p10"] == 0.75 and line_y["point_p01"] == 0.15


def test_grid_is_deterministic():
    fixed = GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.5, p_right=0.5)
    first = emit_grid(GridFamily.STRATUM, fixed, 30)
    second = emit_grid(GridFamily.STRATUM, fixed, 30)
    assert np.array_equal(first.cells, second.cells)
    assert first.zero_loci == second.zero_loci
