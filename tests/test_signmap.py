import math

import numpy as np
import pytest

from colliderbias import (
    LINEAR_MODEL,
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
    classify_effects,
    classify_sign,
    cross_product_difference,
    emit_grid,
    extended_sign,
    lm_bias,
    random_structure_params,
    v_lm_sign,
    v_stratum_sign,
    y_stratum_sign,
)
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
    d_cpt = EdgeCpt(given_0=0.3, given_1=0.7)
    with pytest.raises(DegenerateStratumError):
        y_stratum_sign(UNIFORM_CPT, d_cpt, 1)


def test_y_sign_requires_strict_child_edge():
    from colliderbias import OutOfRangeError

    with pytest.raises(OutOfRangeError):
        y_stratum_sign(REFERENCE_CPT, EdgeCpt(given_0=0.0, given_1=1.0), 1)


def test_y_sign_matches_direct_formula(rng):
    for _ in range(200):
        params = random_structure_params(StructureKind.Y, rng)
        for level in (0, 1):
            case = y_stratum_sign(params.p_c_given, params.p_d_given_c, level)
            pd1 = params.p_d_given_c.level_given(level, 1)
            pd0 = params.p_d_given_c.level_given(level, 0)
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


def test_grid_child_family_agrees_cell_by_cell():
    d_cpt = EdgeCpt(given_0=0.2, given_1=0.7)
    fixed = GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.5, p_right=0.5, p_d_given_c=d_cpt)
    grid = emit_grid(GridFamily.CHILD_STRATUM, fixed, 12)
    for i, p10 in enumerate(grid.axis):
        for j, p01 in enumerate(grid.axis):
            cpt = ColliderCpt(
                given_00=0.15, given_01=float(p01), given_10=float(p10), given_11=0.75
            )
            assert grid.cells[i, j, 0] == int(y_stratum_sign(cpt, d_cpt, 1))
            assert grid.cells[i, j, 1] == int(y_stratum_sign(cpt, d_cpt, 0))


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
