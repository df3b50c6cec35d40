import ast
import hashlib
import itertools
import math
import random
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from colliderbias import (
    LINEAR_MODEL,
    BiasQuery,
    ColliderBiasError,
    ColliderCpt,
    DegenerateStratumError,
    EdgeCpt,
    JointTable,
    OracleMeasure,
    ParameterError,
    PrecisionLossError,
    Scale,
    SingularDesignError,
    Stratum,
    StructureKind,
    StructureParams,
    UndefinedRatioError,
    UnknownVariableError,
    bias,
    build_joint,
    cond_measure,
    lm_coefficient,
    params_from_dict,
    random_structure_params,
    sample,
    variable_roles,
)
from colliderbias import joint as joint_mod
from colliderbias.closedform import classify_sign

ALL_KINDS = list(StructureKind)


def test_uniform_v_is_uniform(uniform_v_params):
    table = build_joint(uniform_v_params)
    assert table.mass.shape == (8,)
    assert np.allclose(table.mass, 0.125, atol=1e-15)


def test_reference_collider_marginal(reference_v_params):
    table = build_joint(reference_v_params)
    # sum of the four C=1 cells: uniform (X, Y) average of the conditionals
    assert math.isclose(table.prob({"C": 1}), 0.35, abs_tol=1e-15)


def test_longm_normalizes(rng):
    params = random_structure_params(StructureKind.LONG_M, rng)
    table = build_joint(params)
    assert table.mass.shape == (64,)
    assert abs(table.prob() - 1.0) <= 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_factorization_matches_cell_products(kind, rng):
    # Each cell mass is the product of the factor probabilities implied by
    # the role map, checked here by recomputing one cell by hand.
    params = random_structure_params(kind, rng)
    roles = variable_roles(kind)
    table = build_joint(params)
    assert abs(table.prob() - 1.0) <= 1e-14
    assignment = {name: 1 for name in roles.order}
    expected = 1.0
    for name in roles.order:
        if name == "C":
            expected *= params.p_c_given.level_given(1, 1, 1)
        elif not roles.parents[name]:
            expected *= params.p_left if name == roles.left_cause else params.p_right
        else:
            cpt = {
                "X": params.p_x_given_a,
                "Y": params.p_y_given_b,
                "D": params.p_d_given_c,
            }[name]
            expected *= cpt.given_1
    assert math.isclose(table.prob(assignment), expected, rel_tol=1e-14)


def test_prob_of_empty_event(uniform_v_params):
    table = build_joint(uniform_v_params)
    assert table.prob({}) == 1.0
    assert table.prob() == 1.0


def test_prob_uniform_independence(uniform_v_params):
    table = build_joint(uniform_v_params)
    assert math.isclose(table.prob({"X": 1, "C": 1}), 0.25, abs_tol=1e-15)


def test_prob_unknown_variable(uniform_v_params):
    table = build_joint(uniform_v_params)
    with pytest.raises(UnknownVariableError):
        table.prob({"Q": 1})


@pytest.mark.parametrize("value", [2, -1, 0.5, "0", None])
def test_oracle_refuses_a_level_other_than_0_or_1(value):
    # One table and a batch: a level is 0 or 1, never any truthy value.
    single = StructureParams(
        kind=StructureKind.V, p_left=0.3, p_right=0.6, p_c_given=ColliderCpt(0.1, 0.2, 0.3, 0.4)
    )
    batch = random_structure_params(StructureKind.V, np.random.default_rng(4), 3)
    for table in (build_joint(single), build_joint(batch)):
        for event in ({"X": value}, {"Y": 1, "X": value}):
            with pytest.raises(ParameterError, match=f"^level of X must be 0 or 1, got {re.escape(repr(value))}$"):
                table.prob(event)
            with pytest.raises(ParameterError, match="^level of X "):
                table.probs({"Y": 1}, event)
    table = build_joint(single)
    assert table.prob({"X": 1}) == table.prob({"X": True}) == table.prob({"X": 1.0}) == pytest.approx(0.3)
    assert table.prob({"X": 0}) == table.prob({"X": False}) == pytest.approx(0.7)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_scales_agree_in_sign(kind):
    # Within a stratum, and marginally, cov, RD, RR - 1 and OR - 1 all carry
    # the sign of p11 p00 - p10 p01; after banding no two of them may be
    # strictly opposite for any draw.
    params = random_structure_params(kind, np.random.default_rng(31 + ALL_KINDS.index(kind)), 200)
    table = build_joint(params)
    g_name = kind.conditioning_variable
    for conditioning in (None, Stratum(g_name, 0), Stratum(g_name, 1)):
        codes = np.array([
            classify_sign(cond_measure(table, scale, conditioning).value, scale)
            for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
        ])
        opposite = (codes.max(axis=0) == 1) & (codes.min(axis=0) == -1)
        assert not opposite.any(), (str(conditioning), np.flatnonzero(opposite)[:5].tolist())


def test_uniform_stratum_cov_is_zero(uniform_v_params):
    table = build_joint(uniform_v_params)
    measure = cond_measure(table, Scale.COV, Stratum("C", 1))
    assert abs(measure.value) <= 1e-15


def test_reference_stratum_cov(reference_v_params):
    # Brute-force value at the reference point; the closed form gives
    # 0.0625 * 0.05 / 0.35^2.
    table = build_joint(reference_v_params)
    value = cond_measure(table, Scale.COV, Stratum("C", 1)).value
    assert math.isclose(value, 0.003125 / 0.1225, abs_tol=1e-15)
    assert math.isclose(value, 0.025510204081632654, abs_tol=1e-15)


def test_reference_stratum_or_ratio(reference_v_params):
    table = build_joint(reference_v_params)
    conditional = cond_measure(table, Scale.OR, Stratum("C", 1)).value
    marginal = cond_measure(table, Scale.OR, None).value
    assert math.isclose(marginal, 1.0, abs_tol=1e-12)
    assert math.isclose(conditional / marginal, 1.8, rel_tol=1e-12)


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k is not StructureKind.NABLA])
def test_marginal_association_is_null(kind, rng):
    params = random_structure_params(kind, rng)
    table = build_joint(params)
    assert abs(cond_measure(table, Scale.COV, None).value) <= 1e-14
    assert abs(cond_measure(table, Scale.RD, None).value) <= 1e-13
    assert abs(cond_measure(table, Scale.OR, None).value - 1.0) <= 1e-12


def test_nabla_with_null_edge_reduces_to_v(rng):
    cpt = ColliderCpt(given_00=0.15, given_01=0.25, given_10=0.25, given_11=0.75)
    nabla = StructureParams(
        kind=StructureKind.NABLA,
        p_left=0.5,
        p_c_given=cpt,
        p_y_given_b=EdgeCpt(given_0=0.4, given_1=0.4),
    )
    v = StructureParams(kind=StructureKind.V, p_left=0.5, p_right=0.4, p_c_given=cpt)
    query = BiasQuery(Stratum("C", 1), Scale.OR)
    assert math.isclose(
        bias(build_joint(nabla), query).value,
        bias(build_joint(v), query).value,
        rel_tol=1e-12,
    )


def test_uninformative_child_gives_zero_bias(rng):
    params = StructureParams(
        kind=StructureKind.Y,
        p_left=0.3,
        p_right=0.6,
        p_c_given=ColliderCpt(given_00=0.15, given_01=0.25, given_10=0.35, given_11=0.75),
        p_d_given_c=EdgeCpt(given_0=0.4, given_1=0.4),
    )
    table = build_joint(params)
    for level in (0, 1):
        for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR):
            value = bias(table, BiasQuery(Stratum("D", level), scale)).value
            null = 1.0 if scale in (Scale.RR, Scale.OR) else 0.0
            assert abs(value - null) <= 1e-12, (level, scale)


def test_query_validation(reference_y_params, reference_v_params):
    with pytest.raises(ParameterError):
        bias(build_joint(reference_y_params), BiasQuery(Stratum("C", 1), Scale.COV))
    with pytest.raises(ParameterError):
        bias(build_joint(reference_v_params), BiasQuery(Stratum("D", 1), Scale.COV))


def test_degenerate_stratum_raises():
    params = StructureParams(
        kind=StructureKind.V,
        p_left=0.5,
        p_right=0.5,
        p_c_given=ColliderCpt(0.0, 0.0, 0.0, 0.0),
    )
    with pytest.raises(DegenerateStratumError):
        cond_measure(build_joint(params), Scale.COV, Stratum("C", 1))


def test_lm_coefficient_matches_weighted_least_squares(rng):
    # Independent route: weighted least squares over the enumerated cells.
    for kind in (StructureKind.V, StructureKind.LONG_M):
        params = random_structure_params(kind, rng)
        table = build_joint(params)
        g_name = kind.conditioning_variable
        x = table.column("X").astype(float)
        g = table.column(g_name).astype(float)
        y = table.column("Y").astype(float)
        design = np.stack([np.ones_like(x), x, g], axis=1)
        weights = np.sqrt(table.mass)
        beta, *_ = np.linalg.lstsq(design * weights[:, None], y * weights, rcond=None)
        assert math.isclose(lm_coefficient(table), float(beta[1]), abs_tol=1e-12)


def test_lm_bias_equals_adjusted_minus_marginal(reference_v_params):
    table = build_joint(reference_v_params)
    adjusted = lm_coefficient(table)
    marginal = cond_measure(table, Scale.RD, None).value
    assert math.isclose(
        bias(table, BiasQuery(LINEAR_MODEL)).value, adjusted - marginal, abs_tol=1e-15
    )


def test_joint_table_rejects_bad_mass():
    with pytest.raises(ParameterError):
        JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=np.ones(8))


def test_joint_table_rejects_nan_mass():
    # NaN passes both "< 0" and "|sum - 1| > tol" as False.
    with pytest.raises(ParameterError):
        JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=np.full(8, np.nan))


MASS_MESSAGE = "mass must be finite, nonnegative and sum to 1"


def _bad_mass(fault: str) -> np.ndarray:
    """A V mass of 8 cells, uniform but for one fault."""
    mass = np.full(8, 0.125)
    if fault == "negative":
        mass[2], mass[5] = -0.125, 0.375  # still sums to 1
    elif fault == "sum":
        mass[0] = 0.25
    else:
        mass[3] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[fault]
    return mass


@pytest.mark.parametrize("fault", ["negative", "inf", "-inf"])
def test_joint_table_rejects_each_bad_entry(fault):
    with pytest.raises(ParameterError) as info:
        JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=_bad_mass(fault))
    assert str(info.value) == MASS_MESSAGE


@pytest.mark.parametrize("fault", ["negative", "sum", "nan", "inf", "-inf"])
def test_joint_table_batch_names_the_first_bad_draw(fault):
    mass = np.full((5, 8), 0.125)
    mass[2] = _bad_mass(fault)
    mass[4] = _bad_mass("negative")
    with pytest.raises(ParameterError) as info:
        JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=mass)
    assert str(info.value) == f"draw 2: {MASS_MESSAGE}"
    assert info.value.draw == 2


@pytest.mark.parametrize("shape", [(2, 2, 8), (4,), (2, 16)])
def test_joint_table_rejects_a_mass_of_the_wrong_shape(shape):
    with pytest.raises(ParameterError, match=r"^mass must have shape \(2\*\*3,\) or \(B, 2\*\*3\)"):
        JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=np.full(shape, 1 / 8))


# A batch's 8 cell arrays, or 8 rows, given where a mass belongs: the error
# names the shape they make.
@pytest.mark.parametrize("mass", [[np.full(3, 0.125)] * 8, [[0.125] * 3] * 8])
def test_joint_table_names_the_shape_of_nested_cells(mass):
    with pytest.raises(ParameterError) as info:
        JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=mass)
    assert str(info.value) == "mass must have shape (2**3,) or (B, 2**3), got (8, 3)"


# Eight entries that are not all numbers: a ragged list, and strings.
@pytest.mark.parametrize("mass", [[[0.1, 0.2]] + [0.125] * 7, ["0.125"] * 8])
def test_joint_table_refuses_cells_that_are_not_numbers(mass):
    with pytest.raises(ParameterError, match="^mass cells must be numbers$"):
        JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=mass)


def test_joint_table_takes_a_list_of_rows_as_a_batch():
    rows = [[0.125] * 8, [0.25, 0.0, 0.0, 0.25, 0.0, 0.25, 0.25, 0.0]]
    batch = JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=rows)
    assert batch.mass.tobytes() == np.array(rows).tobytes()


def test_joint_table_takes_one_to_six_variables():
    # build_joint skips the constructor, so give the constructor LongM's six
    # variables here; none or seven are refused.
    longm = build_joint(random_structure_params(StructureKind.LONG_M, np.random.default_rng(0)))
    table = JointTable(kind=longm.kind, order=longm.order, mass=longm.mass)
    assert table.mass.tobytes() == longm.mass.tobytes()
    for order in ((), (*longm.order, "E")):
        message = f"^supported structures have 1..6 variables, got {len(order)}$"
        with pytest.raises(ParameterError, match=message):
            JointTable(kind=longm.kind, order=order, mass=[1.0 / 2 ** len(order)] * 2 ** len(order))


def test_joint_table_takes_no_bit_columns(uniform_v_params):
    table = build_joint(uniform_v_params)
    with pytest.raises(TypeError):
        JointTable(kind=table.kind, order=table.order, mass=table.mass, _bits={"Z": table.column("C")})


def test_oracle_measure_rejects_non_finite():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(PrecisionLossError):
            OracleMeasure(value, Scale.RR)


def test_overflowing_marginal_ratio_raises():
    # P(Y=1 | X=0) is subnormal, so the marginal risk ratio overflows; the
    # stratum ratio over it used to come back as a silent 0.0.
    params = StructureParams(
        kind=StructureKind.NABLA,
        p_left=0.3651437406380792,
        p_c_given=ColliderCpt(
            given_00=1.0,
            given_01=0.3662391353739821,
            given_10=0.2770770152337425,
            given_11=0.4834525894695869,
        ),
        p_y_given_b=EdgeCpt(given_0=5e-324, given_1=0.13296399313622786),
    )
    with pytest.raises(PrecisionLossError, match="rr = inf"):
        bias(build_joint(params), BiasQuery(Stratum("C", 0), Scale.RR))


def _v_mass(stratum_1, stratum_0):
    """A V table's mass over (X, Y, C) from P(X=x, Y=y, C=1) and P(X=x, Y=y,
    C=0), each a list over (x, y) = 11, 10, 01, 00."""
    mass = [0.0] * 8
    for (x, y), p1, p0 in zip(((1, 1), (1, 0), (0, 1), (0, 0)), stratum_1, stratum_0):
        mass[4 * x + 2 * y + 1], mass[4 * x + 2 * y] = p1, p0
    return mass


# Within C=1, P(Y=1 | X=0) is subnormal, so the stratum risk ratio overflows;
# the marginal one is 2, which is not null.
_CONDITIONAL_OVERFLOWS = _v_mass([0.25, 0.25, 1e-320, 0.25], [0.05, 0.05, 0.1, 0.05])
# Within C=1 the risk ratio is 1; over the whole table P(Y=1 | X=0) is
# subnormal, so the marginal risk ratio overflows.
_MARGINAL_OVERFLOWS = _v_mass([0.2, 0.2, 1e-320, 1e-320], [0.1, 0.1, 1e-320, 0.4])


@pytest.mark.parametrize("mass, overflows", [(_CONDITIONAL_OVERFLOWS, Stratum("C", 1)), (_MARGINAL_OVERFLOWS, None)])
def test_a_non_finite_measure_raises_where_it_is_made(mass, overflows):
    # Each measure is checked finite as it is made: an overflowing stratum
    # measure raises before the marginal one is made and checked for its
    # null, and an overflowing marginal before the bias is formed.  A batch
    # names the draw (numpy's overflow warning aside).
    order = ("X", "Y", "C")
    good = build_joint(random_structure_params(StructureKind.V, np.random.default_rng(8))).mass.tolist()
    query = BiasQuery(Stratum("C", 1), Scale.RR)
    for table, prefix in ((JointTable(StructureKind.V, order, mass), ""),
                          (JointTable(StructureKind.V, order, [good, good, mass, good]), "draw 2: ")):
        for ask in (lambda: bias(table, query), lambda: cond_measure(table, Scale.RR, overflows)):
            with pytest.raises(PrecisionLossError) as info, np.errstate(over="ignore"):
                ask()
            assert str(info.value) == prefix + "oracle gave non-finite rr = inf"


def test_one_bias_builds_one_oracle_measure(monkeypatch):
    built = []
    check = OracleMeasure.__post_init__
    monkeypatch.setattr(OracleMeasure, "__post_init__", lambda self: (built.append(self), check(self))[1])
    for kind in ALL_KINDS:
        params = random_structure_params(kind, np.random.default_rng(5))
        batch = random_structure_params(kind, np.random.default_rng(5), 4)
        for query in _every_bias_query(kind):
            for table in (build_joint(params), build_joint(batch)):
                del built[:]
                measure = bias(table, query)
                assert [id(one) for one in built] == [id(measure)], (kind, query)


def test_joint_table_owns_its_mass():
    base = np.zeros(16)
    base[:8] = 0.125
    view = base[:8]
    table = JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=view)
    base[0] = 0.5  # a write through the view's writable base
    assert table.prob({"X": 0, "Y": 0, "C": 0}) == 0.125
    assert table.mass.tolist() == [0.125] * 8
    assert not table.mass.flags.writeable
    assert view.flags.writeable  # the caller's array is left as it was
    # A batch: a (B, 2**n) view of a caller's writable base.
    base = np.zeros((3, 16))
    base[:, :8] = 0.125
    view = base[:, :8]
    batch = JointTable(kind=StructureKind.V, order=("X", "Y", "C"), mass=view)
    base[:, 0] = 0.5
    assert batch.prob({"X": 0, "Y": 0, "C": 0}).tolist() == [0.125] * 3
    assert batch.prob().tolist() == [1.0] * 3
    assert batch.mass.tolist() == [[0.125] * 8] * 3
    assert not batch.mass.flags.writeable
    assert view.flags.writeable
    # A built batch: a later write to the caller's probability arrays.
    draws, same = (random_structure_params(StructureKind.V, np.random.default_rng(3), 3) for _ in "ab")
    built = build_joint(draws)
    draws.p_left[:] = 0.5
    assert built.mass.tobytes() == build_joint(same).mass.tobytes()


def _reference_bits(n: int) -> list[np.ndarray]:
    idx = np.arange(2**n)
    return [((idx >> (n - 1 - k)) & 1).astype(bool) for k in range(n)]


# The edge table holding P(variable=1 | its one parent).
_CHILD_TABLE = {
    "X": lambda params: params.p_x_given_a,
    "Y": lambda params: params.p_y_given_b,
    "D": lambda params: params.p_d_given_c,
}


def _reference_mass(params, batch=False):
    """The builder that multiplied in one ``np.where`` per variable, kept as
    the reference of ``build_joint``: a (2**n,) mass, or (B, 2**n) over a
    batch."""
    roles = variable_roles(params.kind)
    bits = dict(zip(roles.order, _reference_bits(len(roles.order))))
    if batch:
        bits = {name: column[:, None] for name, column in bits.items()}  # cells down, draws across
    mass = np.ones(bits["X"].shape)
    for name in roles.order:
        parents = roles.parents[name]
        if not parents:
            p1 = params.p_left if name == roles.left_cause else params.p_right
        elif name == "C":
            t = params.p_c_given
            table = np.array([t.given_00, t.given_01, t.given_10, t.given_11])
            p1 = table[(2 * bits[parents[0]].astype(np.intp) + bits[parents[1]]).ravel()]
        else:
            cpt = _CHILD_TABLE[name](params)
            p1 = np.where(bits[parents[0]], cpt.given_1, cpt.given_0)
        mass = mass * np.where(bits[name], p1, 1.0 - p1)
    return mass.T


# Probabilities that the lenient domain allows and strict draws never reach.
LENIENT_ALPHABET = (0.0, 1.0, 1e-300, 5e-324, 1 - 1e-16)


def _lenient_params(kind, rnd, alphabet=LENIENT_ALPHABET):
    """A lenient parameter set of ``kind``: each probability from
    ``alphabet`` with probability 1/2, otherwise uniform on [0, 1)."""

    def draw():
        return rnd.choice(alphabet) if rnd.random() < 0.5 else rnd.random()

    template = random_structure_params(kind, np.random.default_rng(0)).to_dict()
    doc = {field: draw() if type(value) is float else {key: draw() for key in value}
           for field, value in template.items() if field != "kind"}
    return params_from_dict({"kind": kind.value, **doc})


def _oracle_points(kind):
    """Seeded strict draws, then lenient points, of one kind."""
    rng = np.random.default_rng(41 + ALL_KINDS.index(kind))
    rnd = random.Random(f"oracle/{kind.value}")
    return [random_structure_params(kind, rng) for _ in range(20)] + [
        _lenient_params(kind, rnd) for _ in range(60)
    ]


def _every_bias_query(kind):
    variable = kind.conditioning_variable
    return [
        BiasQuery(Stratum(variable, level), scale)
        for level in (1, 0)
        for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
    ] + [BiasQuery(LINEAR_MODEL)]


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


# sha256 over the mass bytes and every bias (value repr, or the error's type
# and message) of _oracle_points per kind, then one batch mass per kind.
ORACLE_DIGEST = "d3dd3b7abe3624dd29c2e622f4c11050cc7ad48c9f1de6f4b01480a31e8a48b7"


def test_oracle_bits_pinned():
    digest = hashlib.sha256()
    for kind in ALL_KINDS:
        for params in _oracle_points(kind):
            try:
                table = build_joint(params)
            except ColliderBiasError as exc:
                digest.update(_error_text(exc).encode())
                continue
            digest.update(table.mass.tobytes())
            for query in _every_bias_query(kind):
                try:
                    text = repr(bias(table, query).value)
                except ColliderBiasError as exc:
                    text = _error_text(exc)
                digest.update(text.encode())
        batch = random_structure_params(kind, np.random.default_rng(43), 16)
        digest.update(build_joint(batch).mass.tobytes())
    assert digest.hexdigest() == ORACLE_DIGEST


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_builds_equal_the_reference_mass(kind):
    for params in _oracle_points(kind):
        assert build_joint(params).mass.tobytes() == _reference_mass(params).tobytes()
    batch = random_structure_params(kind, np.random.default_rng(43), 16)
    expected = _reference_mass(batch, batch=True)
    assert expected.shape == (16, 2 ** len(variable_roles(kind).order))
    assert build_joint(batch).mass.tobytes() == expected.tobytes()


def test_each_kind_compiles_its_product_kernel_once():
    joint_mod._grow_cells.cache_clear()
    for _ in range(2):
        for kind in ALL_KINDS:
            build_joint(random_structure_params(kind, np.random.default_rng(3)))
    info = joint_mod._grow_cells.cache_info()
    assert (info.misses, info.hits) == (9, 9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_product_kernel_source_reads_probabilities_only_at_places(kind):
    # The kernel is straight-line code, one statement per line.  It unpacks
    # p into the locals p0, p1, ... and sets each q<at> = 1 - p<at>.  Then
    # row k of _factor_places turns each cell of row k - 1, a local (or the 1
    # it starts from), into its product with q and with p at that cell's
    # place; the last row's products are returned, with their sum in
    # _sum_source's order.
    places = joint_mod._factor_places(kind)
    (grow,) = ast.parse(joint_mod._grow_source(places)).body
    assert [arg.arg for arg in grow.args.args] == ["p"]
    width = len(random_structure_params(kind, np.random.default_rng(0)).probabilities)
    unpack, *complements = grow.body[: 1 + width]
    assert ast.unparse(unpack) == ", ".join(f"p{at}" for at in range(width)) + " = p"
    assert [ast.unparse(line) for line in complements] == [f"q{at} = 1 - p{at}" for at in range(width)]
    *assigns, ret = grow.body[1 + width :]
    products = [assign.value for assign in assigns]
    names = [target.id for assign in assigns for target in assign.targets]
    cells, start = [ast.Constant(1)], 0
    for row in places:
        assert len(cells) == len(row)
        for i, product in enumerate(products[start : start + 2 * len(row)]):
            prefix, factor = product.left, product.right
            assert isinstance(product, ast.BinOp) and isinstance(product.op, ast.Mult)
            assert ast.dump(prefix) == ast.dump(cells[i // 2])
            assert isinstance(factor, ast.Name) and factor.id == f"{'qp'[i % 2]}{row[i // 2]}"
            assert row[i // 2] < width
        cells = [ast.Name(name, ast.Load()) for name in names[start : start + 2 * len(row)]]
        start += 2 * len(row)
    assert start == len(products)
    returned, total = ret.value.elts
    last = names[-(2 ** len(places)) :]
    assert [cell.id for cell in returned.elts] == last
    assert ast.dump(total) == ast.dump(ast.parse(joint_mod._sum_source(last), mode="eval").body)


def _stacked(draws):
    """One batch of the single draws ``draws``, all of one kind: each field
    the (B,) array of its values over them, each table a table of such."""
    docs = [params.to_dict() for params in draws]
    fields = {}
    for field, value in docs[0].items():
        if field == "kind":
            continue
        if isinstance(value, dict):
            table_type = type(getattr(draws[0], field))
            fields[field] = table_type(*[np.array([doc[field][key] for doc in docs]) for key in table_type.KEYS])
        else:
            fields[field] = np.array([doc[field] for doc in docs])
    return StructureParams(kind=draws[0].kind, **fields)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kernel_total_has_the_bits_of_prob(kind):
    # The mass check reads the sum that the build kernel returns with the
    # cells; it must be the number, or array, that the table's prob() adds.
    rng = np.random.default_rng(61 + ALL_KINDS.index(kind))
    rnd = random.Random(f"kernel-total/{kind.value}")
    grow = joint_mod._grow_cells(kind)
    strict = [random_structure_params(kind, rng) for _ in range(200)]
    lenient = [_lenient_params(kind, rnd) for _ in range(200)]
    for draws in (strict, lenient):
        totals = []
        for params in draws:
            cells, total = grow(params.probabilities)
            table = build_joint(params)
            assert cells == table._cells
            assert type(total) is float and total.hex() == table.prob().hex()
            totals.append(total)
        batch = _stacked(draws)
        cells, total = grow([np.asarray(one, dtype=np.float64) for one in batch.probabilities])
        assert total.shape == (200,)
        assert total.tobytes() == build_joint(batch).prob().tobytes() == np.array(totals).tobytes()
    # Fraction parameters still build an exact table, whose total is exactly 1.
    exact = params_from_dict({
        field: value if field == "kind" else Fraction(value) if type(value) is float
        else {key: Fraction(entry) for key, entry in value.items()}
        for field, value in strict[0].to_dict().items()
    })
    cells, total = grow(exact.probabilities)
    assert type(total) is Fraction and total == 1
    assert cells == build_joint(exact)._cells == tuple(mass for _, mass in _exact_cells(strict[0]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_memoized_queries_equal_fresh_mask_sums(kind):
    # Loop reference: every stratum's cells and every moment summed with
    # masks built here, compared exactly (the memo must not change a bit).
    rng = np.random.default_rng(7 + ALL_KINDS.index(kind))
    table = build_joint(random_structure_params(kind, rng))
    order = table.order
    m = table.mass
    bits = dict(zip(order, _reference_bits(len(order))))
    x, y = bits["X"], bits["Y"]

    def reference_cells(stratum):
        if stratum is None:
            keep, p_g = np.ones_like(x), 1.0
        else:
            g = bits[stratum.variable]
            keep = g if stratum.level else ~g
            p_g = float(m[keep].sum())
        return (
            float(m[x & y & keep].sum()),
            float(m[x & ~y & keep].sum()),
            float(m[~x & y & keep].sum()),
            float(m[~x & ~y & keep].sum()),
            p_g,
        )

    def reference_moment(names):
        mask = np.ones(m.shape[0], dtype=bool)
        for name in names:
            mask &= bits[name]
        return float(m[mask].sum())

    strata = [None] + [Stratum(v, level) for v in ("C", "D") if v in order for level in (0, 1)]
    moments = [(a,) for a in order] + list(itertools.product(order, repeat=2))
    queries = [("cells", s) for s in strata] + [("moment", names) for names in moments]
    random.Random(kind.value).shuffle(queries)
    for _ in range(2):
        for what, arg in queries:
            if what == "cells":
                assert joint_mod._xy_stratum_cells(table, arg) == reference_cells(arg), arg
            else:
                assert table.expectation(*arg) == reference_moment(arg), arg


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lm_moments_equal_one_expectation_at_a_time(kind):
    # Loop reference: each moment read by its own expectation(), then the
    # same Cramer's-rule arithmetic; the two gathers must give every bit of it.
    table = build_joint(random_structure_params(kind, np.random.default_rng(11)))
    g = kind.conditioning_variable
    e_x, e_g, e_y = (table.expectation(name) for name in ("X", g, "Y"))
    var_x, var_g = e_x - e_x * e_x, e_g - e_g * e_g
    cov_xg = table.expectation("X", g) - e_x * e_g
    cov_xy = table.expectation("X", "Y") - e_x * e_y
    cov_gy = table.expectation(g, "Y") - e_g * e_y
    coef = (cov_xy * var_g - cov_xg * cov_gy) / (var_x * var_g - cov_xg * cov_xg)
    got = lm_coefficient(table)
    assert (type(got), got) == (float, coef)
    terms = joint_mod.lm_normalizer_terms(table)
    assert terms == joint_mod.normalizer_terms(e_x, e_g, table.expectation("X", g))
    assert [type(term) for term in terms] == [float, float]


def _exact_cells(params):
    """(assignment, exact mass) of every cell: the product of the float
    inputs as Fractions along the role map, so no rounding enters."""
    roles = variable_roles(params.kind)
    cells = []
    for values in itertools.product((0, 1), repeat=len(roles.order)):
        value = dict(zip(roles.order, values))
        mass = Fraction(1)
        for name in roles.order:
            parents = roles.parents[name]
            if not parents:
                p1 = params.p_left if name == roles.left_cause else params.p_right
            elif name == "C":
                p1 = params.p_c_given.level_given(1, value[parents[0]], value[parents[1]])
            else:
                p1 = _CHILD_TABLE[name](params).level_given(1, value[parents[0]])
            mass *= Fraction(p1) if value[name] else 1 - Fraction(p1)
        cells.append((value, mass))
    return cells


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_lm_coefficient_matches_exact_rationals(kind):
    # Ground truth in exact arithmetic on the same float inputs: moments of
    # the Fraction mass, then the normal equations solved without rounding.
    rng = np.random.default_rng(17 + ALL_KINDS.index(kind))
    g = kind.conditioning_variable
    for _ in range(4):
        params = random_structure_params(kind, rng)
        cells = _exact_cells(params)

        def moment(*names):
            return sum(mass for value, mass in cells if all(value[name] for name in names))

        e_x, e_g, e_y = moment("X"), moment(g), moment("Y")
        var_x, var_g = e_x - e_x * e_x, e_g - e_g * e_g
        cov_xg = moment("X", g) - e_x * e_g
        cov_xy = moment("X", "Y") - e_x * e_y
        cov_gy = moment(g, "Y") - e_g * e_y
        exact = (cov_xy * var_g - cov_xg * cov_gy) / (var_x * var_g - cov_xg * cov_xg)
        assert abs(lm_coefficient(build_joint(params)) - float(exact)) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_arithmetic_keeps_fractions_exact(kind):
    # One table's arithmetic has no float literal to coerce a Fraction, so
    # the same code gives exact values on the float inputs read as Fractions,
    # which a parameter document keeps exact.
    params = random_structure_params(kind, np.random.default_rng(23 + ALL_KINDS.index(kind)))
    exact_params = params_from_dict({
        field: value if field == "kind" else Fraction(value) if type(value) is float
        else {key: Fraction(entry) for key, entry in value.items()}
        for field, value in params.to_dict().items()
    })
    assert all(type(p) is Fraction for p in exact_params.probabilities)
    assert exact_params.probabilities == tuple(map(Fraction, params.probabilities))
    exact_table, table = build_joint(exact_params), build_joint(params)
    assert exact_table._cells == tuple(mass for _, mass in _exact_cells(params))
    assert all(type(cell) is Fraction for cell in exact_table._cells)
    for query in _every_bias_query(kind):
        exact = bias(exact_table, query).value
        assert type(exact) is Fraction, query
        assert math.isclose(bias(table, query).value, exact, rel_tol=1e-10, abs_tol=1e-12), query


def test_collinear_design_raises_singular_design_error():
    # C copies X: the regressors X and C of the lm design are collinear.
    table = build_joint(params_from_dict({
        "kind": "V", "p_left": 0.3, "p_right": 0.6,
        "p_c_given": {"00": 0.0, "01": 0.0, "10": 1.0, "11": 1.0},
    }))
    with pytest.raises(SingularDesignError, match="^X and C are collinear"):
        lm_coefficient(table)


@pytest.mark.parametrize(
    "doc, stratum",
    [
        (
            {"kind": "V", "p_left": 0.5, "p_right": 0.5,
             "p_c_given": {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0}},
            Stratum("C", 1),
        ),
        (
            {"kind": "Y", "p_left": 0.5, "p_right": 0.5,
             "p_c_given": {"00": 0.5, "01": 0.5, "10": 0.5, "11": 0.5},
             "p_d_given_c": {"0": 0.0, "1": 0.0}},
            Stratum("D", 1),
        ),
    ],
    ids=["V-C1", "Y-D1"],
)
def test_zero_mass_stratum_raises_on_every_call(doc, stratum):
    table = build_joint(params_from_dict(doc))
    for _ in range(2):
        with pytest.raises(DegenerateStratumError):
            joint_mod._xy_stratum_cells(table, stratum)
    assert joint_mod._xy_stratum_cells(table, None)[4] == 1.0


# A V table whose stratum C=1 has mass but one exact zero that a ratio's guard
# must catch: a zero denominator would raise ZeroDivisionError from one
# table's floats, and a zero numerator would pass as a value of 0.
@pytest.mark.parametrize(
    "p_c_given, scale, message",
    [
        ({"00": 0.5, "01": 0.5, "10": 0.0, "11": 0.0}, Scale.RD, r"P\(X=x, stratum\) = 0"),
        ({"00": 0.0, "01": 0.0, "10": 0.5, "11": 0.5}, Scale.RD, r"P\(X=x, stratum\) = 0"),
        ({"00": 0.5, "01": 0.5, "10": 0.0, "11": 0.0}, Scale.RR, r"P\(X=x, stratum\) = 0"),
        ({"00": 0.0, "01": 0.0, "10": 0.5, "11": 0.5}, Scale.RR, r"P\(X=x, stratum\) = 0"),
        ({"00": 0.5, "01": 0.0, "10": 0.5, "11": 0.5}, Scale.RR, r"P\(Y=1 \| X=x, stratum\) = 0"),
        ({"00": 0.5, "01": 0.5, "10": 0.5, "11": 0.0}, Scale.RR, r"P\(Y=1 \| X=x, stratum\) = 0"),
        ({"00": 0.5, "01": 0.5, "10": 0.0, "11": 0.5}, Scale.OR, "a zero cell"),
        ({"00": 0.0, "01": 0.5, "10": 0.5, "11": 0.5}, Scale.OR, "a zero cell"),
    ],
    ids=["rd-x1", "rd-x0", "rr-x1", "rr-x0", "rr-risk0", "rr-risk1", "or-p10", "or-p00"],
)
def test_each_ratio_guard_holds_at_exactly_zero(p_c_given, scale, message):
    table = build_joint(params_from_dict(
        {"kind": "V", "p_left": 0.5, "p_right": 0.5, "p_c_given": p_c_given}
    ))
    assert table.prob({"C": 1}) > 0
    with pytest.raises(UndefinedRatioError, match=message):
        cond_measure(table, scale, Stratum("C", 1))


def test_lm_scale_requires_lm_conditioning(reference_v_params):
    table = build_joint(reference_v_params)
    with pytest.raises(ParameterError):
        cond_measure(table, Scale.LM_COEF, Stratum("C", 1))


def test_sample_rejects_empty():
    params = StructureParams(
        kind=StructureKind.V, p_left=0.5, p_right=0.5,
        p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5),
    )
    with pytest.raises(ParameterError):
        sample(params, 0, seed=1)


def test_sample_takes_one_draw_and_seed_zero(uniform_v_params):
    # The smallest draw count and seed the sampler accepts.
    counts = sample(uniform_v_params, 1, seed=0).counts
    assert counts.sum() == 1 and sorted(counts.tolist()) == [0] * 7 + [1]


def test_sample_is_deterministic(reference_v_params):
    first = sample(reference_v_params, 10000, seed=42)
    second = sample(reference_v_params, 10000, seed=42)
    assert np.array_equal(first.counts, second.counts)
    assert first.counts.sum() == 10000
    third = sample(reference_v_params, 10000, seed=43)
    assert not np.array_equal(first.counts, third.counts)


# Counts recorded from release 1.0.0: the seed-to-output mapping of the
# sampler is part of the package contract.
PINNED_SAMPLES = [
    (
        {"kind": "V", "p_left": 0.3, "p_right": 0.6,
         "p_c_given": {"00": 0.1, "01": 0.4, "10": 0.35, "11": 0.8}},
        11,
        [525, 60, 468, 372, 155, 84, 64, 272],
    ),
    (
        {"kind": "Nabla", "p_left": 0.45,
         "p_c_given": {"00": 0.2, "01": 0.5, "10": 0.3, "11": 0.9},
         "p_y_given_b": {"0": 0.25, "1": 0.65}},
        12,
        [663, 160, 134, 151, 227, 86, 53, 526],
    ),
    (
        {"kind": "M", "p_left": 0.4, "p_right": 0.55,
         "p_c_given": {"00": 0.15, "01": 0.45, "10": 0.5, "11": 0.85},
         "p_x_given_a": {"0": 0.2, "1": 0.7}, "p_y_given_b": {"0": 0.35, "1": 0.75}},
        13,
        [263, 34, 136, 20, 76, 13, 27, 3, 71, 61, 205, 156, 16, 14, 45, 62,
         43, 30, 25, 21, 82, 83, 39, 51, 4, 37, 15, 89, 13, 57, 32, 177],
    ),
    (
        {"kind": "LongM", "p_left": 0.6, "p_right": 0.35,
         "p_c_given": {"00": 0.3, "01": 0.55, "10": 0.6, "11": 0.9},
         "p_x_given_a": {"0": 0.15, "1": 0.8}, "p_y_given_b": {"0": 0.4, "1": 0.7},
         "p_d_given_c": {"0": 0.25, "1": 0.85}},
        14,
        [153, 45, 17, 61, 104, 24, 10, 48, 19, 7, 2, 11, 19, 6, 2, 7,
         18, 9, 4, 34, 54, 21, 16, 86, 6, 2, 0, 8, 11, 2, 0, 14,
         34, 6, 11, 44, 24, 5, 6, 26, 113, 35, 32, 181, 70, 36, 23, 129,
         0, 0, 7, 23, 2, 2, 9, 44, 8, 3, 12, 72, 13, 2, 30, 178],
    ),
]


@pytest.mark.parametrize(
    "doc, seed, counts", PINNED_SAMPLES, ids=[doc["kind"] for doc, _, _ in PINNED_SAMPLES]
)
def test_sample_counts_are_pinned(doc, seed, counts):
    assert sample(params_from_dict(doc), 2000, seed=seed).counts.tolist() == counts


def test_sample_uniform_concentration(uniform_v_params):
    freq = sample(uniform_v_params, 1_000_000, seed=7)
    assert np.max(np.abs(freq.frequencies - 0.125)) < 0.005


def test_sample_covers_all_kinds(rng):
    for kind in ALL_KINDS:
        params = random_structure_params(kind, rng)
        freq = sample(params, 5000, seed=13)
        assert freq.counts.sum() == 5000
        exact = build_joint(params).mass
        assert np.max(np.abs(freq.frequencies - exact)) < 5 * 0.5 / math.sqrt(5000)


def test_sample_rejects_negative_seed(uniform_v_params):
    with pytest.raises(ParameterError):
        sample(uniform_v_params, 10, seed=-1)


def test_sample_rejects_seed_beyond_the_philox_key():
    # Philox's key has 128 bits: the largest key is a seed, the next integer
    # is a ParameterError rather than numpy's ValueError.
    params = random_structure_params(StructureKind.V, np.random.default_rng(3))
    assert sample(params, 1, seed=2**128 - 1).counts.sum() == 1
    with pytest.raises(ParameterError, match=r"seed must lie in \[0, 2\*\*128\)"):
        sample(params, 1, seed=2**128)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 4097])
def test_row_streams_are_the_rows_of_one_block(n):
    # Row k's bit generator starts at word k*n of the seed's stream, so the
    # doubles it makes, in chunks of any size, spell row k of the block.
    seed, m = 29, 6
    block = np.random.Generator(np.random.Philox(key=seed)).random((m, n))
    for k in range(m):
        rng = np.random.Generator(joint_mod._stream_at(seed, k * n))
        sizes = [1, 2, 3, 1000, n]
        chunks, left = [], n
        for size in sizes:
            chunks.append(rng.random(min(size, left)))
            left -= chunks[-1].size
        assert np.array_equal(np.concatenate(chunks), block[k]), k


def _reference_sample(params, n, seed):
    """The sampler that drew all its uniforms in one block, kept as the
    reference of the chunked one."""
    rows = len(variable_roles(params.kind).order)
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((rows, n))
    return _reference_counts(params, uniforms)


def _reference_counts(params, uniforms):
    """Cell counts of draws whose variable k is 1 where ``uniforms[k]`` is
    below P(=1 | parents), compared as doubles.  The probabilities come from
    the tables' own ``given`` lookups, not from the sampler's factor vector."""
    roles = variable_roles(params.kind)
    values = {}
    cell = np.zeros(uniforms.shape[1], dtype=np.intp)
    for k, name in enumerate(roles.order):
        parents = roles.parents[name]
        if not parents:
            p1 = params.p_left if name == roles.left_cause else params.p_right
        elif name == "C":
            left, right = (values[parent].astype(np.intp) for parent in parents)
            given = [params.p_c_given.level_given(1, a, b) for a in (0, 1) for b in (0, 1)]
            p1 = np.array(given)[2 * left + right]
        else:
            cpt = _CHILD_TABLE[name](params)
            p1 = np.array([cpt.level_given(1, 0), cpt.level_given(1, 1)])[values[parents[0]].astype(np.intp)]
        values[name] = uniforms[k] < p1
        cell = (cell << 1) | values[name]
    return np.bincount(cell, minlength=2 ** len(roles.order))


@pytest.mark.parametrize("kind", [StructureKind.V, StructureKind.NABLA, StructureKind.LONG_M])
def test_sample_matches_one_block_across_chunk_boundaries(kind):
    chunk = joint_mod._SAMPLE_CHUNK
    params = random_structure_params(kind, np.random.default_rng(17))
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        for seed in (0, 8):
            assert np.array_equal(sample(params, n, seed).counts, _reference_sample(params, n, seed))


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_sample_counts_do_not_depend_on_the_thread_count(threads, monkeypatch):
    # Up to more threads than chunks, and ranges of unequal length: every
    # split of the chunks draws the one-block counts.
    # A short switch interval makes the threads interleave often.
    monkeypatch.setattr(joint_mod, "_sample_threads", lambda: threads)
    chunk = joint_mod._SAMPLE_CHUNK
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for kind in (StructureKind.V, StructureKind.LONG_M):
            params = random_structure_params(kind, np.random.default_rng(23))
            for n in (1, chunk - 1, chunk + 1, 2 * chunk + 3, 5 * chunk + 7):
                counts = sample(params, n, seed=4).counts
                assert np.array_equal(counts, _reference_sample(params, n, 4)), (kind, n)
    finally:
        sys.setswitchinterval(interval)


def test_sample_raises_a_worker_thread_error_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(joint_mod, "_sample_threads", lambda: 3)
    params = random_structure_params(StructureKind.M, np.random.default_rng(2))
    n = 3 * joint_mod._SAMPLE_CHUNK
    before = threading.active_count()
    assert sample(params, n, seed=1).counts.sum() == n
    assert threading.active_count() == before
    # Rows of the caller's range start at word k*n; the others do not.
    error = RuntimeError("worker failed")
    stream_at = joint_mod._stream_at

    def failing(seed, offset):
        if offset % n:
            raise error
        return stream_at(seed, offset)

    monkeypatch.setattr(joint_mod, "_stream_at", failing)
    with pytest.raises(RuntimeError) as raised:
        sample(params, n, seed=1)
    assert raised.value is error
    assert threading.active_count() == before


class _CountedWords:
    """Wraps a row's bit generator and counts the chunks it hands out."""

    def __init__(self, bits, drawn):
        self.bits, self.drawn = bits, drawn

    def random_raw(self, size):
        self.drawn.append(size)
        return self.bits.random_raw(size)


class _Interrupted:
    """A row whose first chunk meets Ctrl-C."""

    def random_raw(self, size):
        raise KeyboardInterrupt


def test_sample_stops_every_thread_on_an_interrupt(monkeypatch):
    monkeypatch.setattr(joint_mod, "_sample_threads", lambda: 3)
    params = random_structure_params(StructureKind.M, np.random.default_rng(2))
    rows = len(variable_roles(StructureKind.M).order)
    per_range = 200
    n = 3 * per_range * joint_mod._SAMPLE_CHUNK
    drawn = []
    stream_at = joint_mod._stream_at

    def streams(seed, offset):
        # Rows of the caller's range start at word k*n; the others do not.
        return _CountedWords(stream_at(seed, offset), drawn) if offset % n else _Interrupted()

    monkeypatch.setattr(joint_mod, "_stream_at", streams)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        sample(params, n, seed=1)
    assert threading.active_count() == before
    # The other two ranges quit at their next chunk, far short of their end.
    assert len(drawn) < rows * per_range


class _Failing:
    """A row whose first chunk fails."""

    def __init__(self, error):
        self.error = error

    def random_raw(self, size):
        raise self.error


def test_sample_stops_the_callers_range_when_a_worker_thread_fails(monkeypatch):
    monkeypatch.setattr(joint_mod, "_sample_threads", lambda: 2)
    params = random_structure_params(StructureKind.M, np.random.default_rng(2))
    rows = len(variable_roles(StructureKind.M).order)
    per_range = 200
    n = 2 * per_range * joint_mod._SAMPLE_CHUNK
    drawn = []
    error = RuntimeError("worker failed")
    stream_at = joint_mod._stream_at

    def streams(seed, offset):
        # Rows of the caller's range start at word k*n; the worker's do not.
        return _Failing(error) if offset % n else _CountedWords(stream_at(seed, offset), drawn)

    monkeypatch.setattr(joint_mod, "_stream_at", streams)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        sample(params, n, seed=1)
    assert raised.value is error
    assert threading.active_count() == before
    # The caller's range quits at its next chunk, far short of its end.
    assert len(drawn) < rows * per_range


def test_sample_on_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(joint_mod, "_sample_threads", lambda: 1)

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    params = random_structure_params(StructureKind.M, np.random.default_rng(2))
    n = 3 * joint_mod._SAMPLE_CHUNK + 5
    assert np.array_equal(sample(params, n, seed=1).counts, _reference_sample(params, n, 1))


def test_sample_joins_its_threads_when_one_will_not_start(monkeypatch):
    monkeypatch.setattr(joint_mod, "_sample_threads", lambda: 3)
    params = random_structure_params(StructureKind.M, np.random.default_rng(2))
    started = []

    class StartsOnce(threading.Thread):
        def start(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", StartsOnce)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        sample(params, 3 * 200 * joint_mod._SAMPLE_CHUNK, seed=1)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


def test_sample_threads_stop_at_the_cap(monkeypatch):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert joint_mod._sample_threads() == joint_mod._SAMPLE_THREADS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert joint_mod._sample_threads() == 1


# The lenient edges, plus the uniforms' grid points next to 0 and 1, where an
# integer threshold one off would part from the comparison on doubles.
SAMPLER_ALPHABET = LENIENT_ALPHABET + (2.0**-53, 1 - 2.0**-53)
# Each of these and its neighbouring doubles in [0, 1].
BOUNDARY_POINTS = sorted({
    float(q) for p in SAMPLER_ALPHABET for q in (p, np.nextafter(p, 0.0), np.nextafter(p, 1.0))
})


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sample_matches_one_block_on_the_lenient_domain(kind):
    chunk = joint_mod._SAMPLE_CHUNK
    rnd = random.Random(f"sample/{kind.value}")
    for n in (1, 3, 4, 5, chunk - 1, chunk + 1):
        for _ in range(4):
            params = _lenient_params(kind, rnd, SAMPLER_ALPHABET)
            for seed in (0, 6, 2**128 - 1):
                counts = sample(params, n, seed).counts
                assert np.array_equal(counts, _reference_sample(params, n, seed)), (n, seed)


@pytest.mark.parametrize("key", [0, 29, 2**64 + 3, 2**128 - 1])
def test_philox_doubles_are_its_shifted_raw_words(key):
    # The sampler compares raw words because Philox's doubles are
    # (raw >> 11) * 2**-53, from the first word and from any later place.
    n = 37
    block = np.random.Generator(np.random.Philox(key=key)).random(8 + n)
    first = np.random.Philox(key=key).random_raw(n)
    assert ((first >> 11) * 2.0**-53).tobytes() == block[:n].tobytes()
    for offset in range(8):
        raw = joint_mod._stream_at(key, offset).random_raw(n)
        assert ((raw >> 11) * 2.0**-53).tobytes() == block[offset : offset + n].tobytes(), offset


def test_integer_thresholds_agree_with_double_comparisons():
    # k * 2**-53 < p exactly when k < ceil(p * 2**53), on either side of each
    # threshold the sampler computes.
    for p in BOUNDARY_POINTS:
        threshold = int(np.ceil(np.array([p]) * 2.0**53).astype(np.uint64)[0])
        assert 0 <= threshold <= 2**53
        for k in (threshold - 1, threshold, threshold + 1):
            if 0 <= k < 2**53:
                assert (k < threshold) == (k * 2.0**-53 < p), (p, k)


class _ScriptedWords:
    """Stands in for a row's Philox bit generator: hands out given raw words."""

    def __init__(self, words):
        self.words = words

    def random_raw(self, size):
        taken, self.words = self.words[:size], self.words[size:]
        return taken.copy()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sample_thresholds_are_exact_at_each_boundary(kind, monkeypatch):
    # Feed the sampler raw words whose top 53 bits sit at k = T - 1, T and
    # T + 1 for the exact threshold T = ceil(p * 2**53) of every probability,
    # under random low bits: its counts must be those of the comparison on
    # the doubles (raw >> 11) * 2**-53.
    rnd = random.Random(f"thresholds/{kind.value}")
    for _ in range(3):
        params = _lenient_params(kind, rnd, BOUNDARY_POINTS)
        grid = set()
        for p in params.probabilities:
            threshold = math.ceil(Fraction(p) * 2**53)
            grid.update(k for k in (threshold - 1, threshold, threshold + 1) if 0 <= k < 2**53)
        grid = sorted(grid)
        rows, n = len(variable_roles(kind).order), 3 * len(grid)
        words = np.array([
            [(rnd.choice(grid) << 11) | rnd.randrange(2048) for _ in range(n)] for _ in range(rows)
        ], dtype=np.uint64)
        monkeypatch.setattr(
            joint_mod, "_stream_at", lambda seed, offset: _ScriptedWords(words[offset // n])
        )
        counts = sample(params, n, seed=0).counts
        assert np.array_equal(counts, _reference_counts(params, (words >> 11) * 2.0**-53))


def test_sample_memory_is_flat(monkeypatch):
    # tracemalloc sees numpy's buffers; one block of a million LongM draws
    # peaked at about 67 MiB.  Each thread has its own chunk buffers, so the
    # bound holds with one thread and with the most a sample may start.
    params = random_structure_params(StructureKind.LONG_M, np.random.default_rng(5))
    for threads in (1, joint_mod._SAMPLE_THREADS):
        monkeypatch.setattr(joint_mod, "_sample_threads", lambda: threads)
        tracemalloc.start()
        try:
            sample(params, 1_000_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, threads
