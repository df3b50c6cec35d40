"""Each guard and bound at the exact point it guards.

A guard such as ``raise_where(x <= 0.0, ...)`` is only pinned by a test whose
x is exactly 0: any other point passes both ``<=`` and ``<``.  These tests put
the guarded quantity exactly on its bound, with dyadic probabilities whose
products and sums are exact, and check that the guard's own error is raised.
Without the guard, one draw would divide by zero (ZeroDivisionError) and a
batch would make an inf or NaN (a RuntimeWarning, or PrecisionLossError), so
each check names the guard's error class, and for a batch the bad draw.
"""

from fractions import Fraction

import numpy as np
import pytest

from colliderbias import (
    BiasQuery,
    BiasReport,
    ColliderCpt,
    DegenerateStratumError,
    EdgeCpt,
    GridFamily,
    GridFixed,
    JointTable,
    OracleMeasure,
    OutOfRangeError,
    ParameterError,
    PrecisionLossError,
    Scale,
    Sign,
    SingularDesignError,
    Stratum,
    StructureKind,
    StructureParams,
    UndefinedRatioError,
    bias,
    build_joint,
    extension_variance_ratio,
    lm_bias,
    lm_coefficient,
    lm_stratum_weights,
    nabla_or_bias_factor,
    random_structure_params,
    v_lm_bias,
    v_stratum_bias,
    validate,
    y_stratum_bias,
)
from colliderbias import joint as joint_mod
from colliderbias import signmap as sm
from colliderbias import verification
from colliderbias.closedform import SIGN_TOL, SIGN_TOL_OR
from colliderbias.signmap import SignGrid
from colliderbias.structures import check_probabilities
from test_batch import _stack

DYADIC_CPT = ColliderCpt(given_00=0.25, given_01=0.5, given_10=0.5, given_11=0.75)
NO_CHILD = EdgeCpt(given_0=0.0, given_1=0.0)  # D is never 1


def _v(**fields):
    return StructureParams(**{"kind": StructureKind.V, "p_left": 0.5, "p_right": 0.5,
                              "p_c_given": DYADIC_CPT, **fields})


def _y(**fields):
    return StructureParams(**{"kind": StructureKind.Y, "p_left": 0.5, "p_right": 0.5,
                              "p_c_given": DYADIC_CPT, "p_d_given_c": NO_CHILD, **fields})


def _behind_a_good_draw(bad):
    """A batch of two draws: a strict random draw of bad's kind, then bad."""
    return _stack([random_structure_params(bad.kind, np.random.default_rng(7)), bad])


def _guard_raises(call, bad, error):
    """``call`` raises ``error`` on ``bad`` alone and, naming draw 1,
    on a batch whose draw 1 is ``bad``; returns the batch's error."""
    with pytest.raises(error):
        call(bad)
    with pytest.raises(error) as info:
        call(_behind_a_good_draw(bad))
    assert info.value.draw == 1
    return info.value


# -- closed forms -----------------------------------------------------------


def test_v_stratum_rd_guard_holds_at_a_zero_risk():
    # P(C=1 | X=1) = 0 exactly, so the RD denominator is 0.
    bad = _v(p_c_given=ColliderCpt(given_00=0.5, given_01=0.5, given_10=0.0, given_11=0.0))
    _guard_raises(lambda p: v_stratum_bias(p, 1, Scale.RD), bad, UndefinedRatioError)


def test_y_stratum_rd_and_or_guards_hold_where_d_never_occurs():
    # P(D=1 | X=x) = 0 for both x, and the odds-ratio denominator is 0.
    _guard_raises(lambda p: y_stratum_bias(p, 1, Scale.RD), _y(), UndefinedRatioError)
    _guard_raises(lambda p: y_stratum_bias(p, 1, Scale.OR), _y(), UndefinedRatioError)


def test_nabla_marginal_odds_guard_holds_at_a_zero_cell():
    # P(Y=1 | X=0) = 0 makes the marginal odds ratio undefined; the
    # stratum odds ratio itself is defined.
    bad = StructureParams(kind=StructureKind.NABLA, p_left=0.5, p_c_given=DYADIC_CPT,
                          p_y_given_b=EdgeCpt(given_0=0.0, given_1=0.5))
    _guard_raises(lambda p: nabla_or_bias_factor(p, 1), bad, UndefinedRatioError)


def test_variance_ratio_guard_holds_where_x_never_occurs():
    bad = StructureParams(kind=StructureKind.LEFT_M, p_left=0.5, p_right=0.5,
                          p_c_given=DYADIC_CPT, p_x_given_a=EdgeCpt(given_0=0.0, given_1=0.0))
    _guard_raises(lambda p: extension_variance_ratio(p, 1), bad, UndefinedRatioError)


def test_v_lm_denominator_guard_holds_where_c_never_occurs():
    bad = _v(p_c_given=ColliderCpt(0.0, 0.0, 0.0, 0.0))
    error = _guard_raises(v_lm_bias, bad, DegenerateStratumError)
    assert (error.variable, error.level) == ("C", 1)


def test_lm_weight_guards_hold_where_x_is_constant():
    # X is always 1: the lm denominator is positive, but the weights'
    # normalizer and both raw weights are exactly 0, and so is phi.
    bad = _v(p_left=1.0)
    for call in (v_lm_bias, lm_bias, lambda p: lm_stratum_weights(build_joint(p))):
        error = _guard_raises(call, bad, DegenerateStratumError)
        assert (error.variable, error.level) == ("C", 1)


# -- joint oracle -----------------------------------------------------------

V_ORDER = ("X", "Y", "C")


def test_a_table_may_have_one_variable():
    table = JointTable(StructureKind.V, ("X",), [0.25, 0.75])
    assert table.prob({"X": 1}) == 0.75
    assert table.column("X").tolist() == [False, True]


def test_null_check_allows_a_marginal_of_exactly_the_tolerance():
    # The marginal covariance p - p*p of a table whose mass sits on
    # (X, Y, C) = (1, 1, 1) and (0, 0, 0) is exactly the double 1e-12.
    p = 1e-12 + 1e-24
    assert p - p * p == joint_mod._NULL_TOL
    mass = [1 - p, 0, 0, 0, 0, 0, 0, p]
    query = BiasQuery(Stratum("C", 1), Scale.COV)
    assert bias(JointTable(StructureKind.V, V_ORDER, mass), query).value == -1e-12
    batch = JointTable(StructureKind.V, V_ORDER, np.array([mass, mass]))
    assert bias(batch, query).value.tolist() == [-1e-12, -1e-12]
    wider = [1 - 2 * p, 0, 0, 0, 0, 0, 0, 2 * p]
    with pytest.raises(PrecisionLossError):
        bias(JointTable(StructureKind.V, V_ORDER, wider), query)


def test_mass_check_allows_an_excess_of_exactly_the_tolerance():
    # Exact cells can sum to 1 plus exactly the double 1e-12.
    excess = Fraction(1e-12)
    table = JointTable(StructureKind.V, V_ORDER, [1 + excess, 0, 0, 0, 0, 0, 0, 0])
    assert table.prob() - 1 == excess
    more = 1 + excess + Fraction(1, 10**30)
    with pytest.raises(ParameterError):
        JointTable(StructureKind.V, V_ORDER, [more, 0, 0, 0, 0, 0, 0, 0])


def test_singular_design_guard_is_inclusive_at_its_bound(monkeypatch):
    # Dyadic probabilities give an exact determinant: with P(X=1) = P(C=1)
    # = 1/2 and P(X=1, C=1) = 5/16, it is 1/4 * 1/4 - (1/16)**2 = 15/256.
    table = build_joint(_v())
    det = 15 / 256
    monkeypatch.setattr(joint_mod, "_SINGULAR_TOL", det)
    with pytest.raises(SingularDesignError):
        lm_coefficient(table)
    monkeypatch.setattr(joint_mod, "_SINGULAR_TOL", det / 2)
    lm_coefficient(table)  # no longer singular


# -- parameters -------------------------------------------------------------


def test_strict_validation_names_an_empty_child_stratum():
    with pytest.raises(DegenerateStratumError) as info:
        validate(_y(), strict=True)
    assert (info.value.variable, info.value.level) == ("D", 1)


# Each bound of the open interval, as one float (checked without numpy), as
# a batch's array and as another number type (both checked elementwise).
@pytest.mark.parametrize("value", [0.0, 1.0, np.array([0.5, 0.0]), np.array([0.5, 1.0]), 0, 1])
def test_the_open_interval_excludes_both_bounds(value):
    check_probabilities([("p_left", value)])
    with pytest.raises(OutOfRangeError):
        check_probabilities([("p_left", value)], open_interval=True)


# -- sign grids -------------------------------------------------------------


@pytest.mark.parametrize("p_c00, p_c11", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
def test_the_or_locus_needs_interior_fixed_entries(p_c00, p_c11):
    # The odds of 0 is 0 and of 1 is undefined: neither draws an OR curve.
    fixed = GridFixed(p_c00=p_c00, p_c11=p_c11, p_left=0.5, p_right=0.5)
    loci = SignGrid(GridFamily.STRATUM, fixed, np.zeros((2, 2, 2), dtype=np.int8)).zero_loci
    assert [locus.name for locus in loci] == ["rr_level1", "rr_level0", "rd"]


# -- the paper's child-stratum case rules -----------------------------------

# Collider tables with a cross-product difference exactly 0 at one level:
# q00 q11 == q10 q01 at level 1, or the same of 1 - q at level 0.
# Entries in KEYS order: P(C=1 | 00), P(C=1 | 01), P(C=1 | 10), P(C=1 | 11).
ZERO_AT_ONE_NEGATIVE_AT_ZERO = ColliderCpt(0.25, 0.5, 0.5, 1.0)
ZERO_AT_ONE_POSITIVE_AT_ZERO = ColliderCpt(0.25, 0.5, 0.125, 0.25)
ZERO_AT_ZERO_POSITIVE_AT_ONE = ColliderCpt(0.75, 0.5, 0.875, 0.75)
ZERO_AT_ZERO_NEGATIVE_AT_ONE = ColliderCpt(0.75, 0.5, 0.5, 0.0)
# Both differences of one strict sign, their ratio not 1.
BOTH_POSITIVE = ColliderCpt(0.5, 0.875, 0.125, 0.625)
BOTH_NEGATIVE = ColliderCpt(0.125, 0.5, 0.5, 0.75)

# P(D=1 | C=1) - P(D=1 | C=0) is 2**-50: inside the sign band, so every case
# calls it Zero, where an exact test of pd1 == pd0 or pd1/pd0 == 1 would not.
BARELY_INFORMATIVE = EdgeCpt(given_0=0.5, given_1=0.5 + 2**-50)
UNINFORMATIVE = EdgeCpt(given_0=0.5, given_1=0.5)
# pd1/pd0 is 2**-50 / pd0 above g0/g1 (5/13 for BOTH_POSITIVE, 1/5 for
# BOTH_NEGATIVE), so pd1 g1 - pd0 g0 lies inside the sign band.
NEAR_FIVE_THIRTEENTHS = EdgeCpt(given_0=0.8125, given_1=0.3125 + 2**-50)
NEAR_ONE_FIFTH = EdgeCpt(given_0=0.625, given_1=0.125 + 2**-50)
INFORMATIVE = EdgeCpt(given_0=0.25, given_1=0.75)

CASE_RULE_POINTS = [
    (ZERO_AT_ONE_NEGATIVE_AT_ZERO, BARELY_INFORMATIVE, (0.0, -0.25), Sign.ZERO),
    (ZERO_AT_ONE_NEGATIVE_AT_ZERO, INFORMATIVE, (0.0, -0.25), Sign.POSITIVE),
    (ZERO_AT_ZERO_POSITIVE_AT_ONE, BARELY_INFORMATIVE, (0.125, 0.0), Sign.ZERO),
    (ZERO_AT_ONE_POSITIVE_AT_ZERO, BARELY_INFORMATIVE, (0.0, 0.125), Sign.ZERO),
    (ZERO_AT_ONE_POSITIVE_AT_ZERO, INFORMATIVE, (0.0, 0.125), Sign.NEGATIVE),
    (ZERO_AT_ZERO_NEGATIVE_AT_ONE, BARELY_INFORMATIVE, (-0.25, 0.0), Sign.ZERO),
    (BOTH_POSITIVE, UNINFORMATIVE, (0.203125, 0.078125), Sign.ZERO),
    (BOTH_NEGATIVE, UNINFORMATIVE, (-0.15625, -0.03125), Sign.ZERO),
    (BOTH_POSITIVE, BARELY_INFORMATIVE, (0.203125, 0.078125), Sign.ZERO),
    (BOTH_NEGATIVE, BARELY_INFORMATIVE, (-0.15625, -0.03125), Sign.ZERO),
    (BOTH_POSITIVE, NEAR_FIVE_THIRTEENTHS, (0.203125, 0.078125), Sign.ZERO),
    (BOTH_NEGATIVE, NEAR_ONE_FIFTH, (-0.15625, -0.03125), Sign.ZERO),
]


@pytest.mark.parametrize("cpt, child, differences, expected", CASE_RULE_POINTS)
def test_child_case_rules_on_their_boundaries(cpt, child, differences, expected):
    assert tuple(sm.cross_product_difference(cpt, level) for level in (1, 0)) == differences
    assert verification._child_case_sign(cpt, child, 1) is expected
    assert sm.y_stratum_sign(cpt, child, 1) is expected


def test_child_case_rules_on_their_boundaries_as_a_batch():
    cpts, children, _, expected = zip(*CASE_RULE_POINTS)
    cpt = ColliderCpt(*np.array([table.values() for table in cpts]).T)
    child = EdgeCpt(*np.array([table.values() for table in children]).T)
    assert verification._child_case_sign(cpt, child, 1).tolist() == [int(s) for s in expected]


def test_child_case_rules_put_a_zero_g0_in_case_one_or_two():
    # |pd1 g1| is 2**-43 or 2**-42 here, inside the sign band, so case 3 would
    # say Zero; cases 1 and 2 band only pd1 - pd0, about -0.5.
    rare = EdgeCpt(given_0=0.5, given_1=2**-40)
    assert verification._child_case_sign(ZERO_AT_ZERO_POSITIVE_AT_ONE, rare, 1) is Sign.NEGATIVE
    assert verification._child_case_sign(ZERO_AT_ZERO_NEGATIVE_AT_ONE, rare, 1) is Sign.POSITIVE


# -- the verify battery ----------------------------------------------------


def test_a_battery_may_have_one_draw():
    result = verification.verify_kind(StructureKind.Y, 1, 0)
    assert result.draws == 1 and result.passed
    with pytest.raises(ParameterError):
        verification.verify_kind(StructureKind.Y, 0, 0)


# -- result objects on exact numbers ----------------------------------------


def test_results_take_exact_fractions_and_sign_them_exactly():
    stratum = Stratum("C", 1)
    # One part in 10**30 past the band: a float would round it onto the band.
    past = Fraction(SIGN_TOL) + Fraction(1, 10**30)
    assert float(past) == SIGN_TOL
    report = BiasReport(value=past, scale=Scale.RD, conditioning=stratum, factors={"g": past})
    assert report.value is past and report.sign is Sign.POSITIVE
    on_band = BiasReport(value=-Fraction(SIGN_TOL), scale=Scale.COV, conditioning=stratum,
                         factors={})
    assert on_band.sign is Sign.ZERO
    ratio = BiasReport(value=1 - Fraction(SIGN_TOL_OR) - Fraction(1, 10**30), scale=Scale.OR,
                       conditioning=stratum, factors={})
    assert ratio.sign is Sign.NEGATIVE
    measure = OracleMeasure(Fraction(2, 3), Scale.COV, stratum)
    assert type(measure.value) is Fraction and measure.value == Fraction(2, 3)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_results_still_reject_non_finite_values_beside_fractions(bad):
    stratum = Stratum("C", 1)
    with pytest.raises(PrecisionLossError):
        BiasReport(value=bad, scale=Scale.RD, conditioning=stratum, factors={"g": Fraction(1, 3)})
    with pytest.raises(PrecisionLossError):
        BiasReport(value=Fraction(1, 3), scale=Scale.RD, conditioning=stratum, factors={"g": bad})
    with pytest.raises(PrecisionLossError):
        OracleMeasure(bad, Scale.OR, stratum)
