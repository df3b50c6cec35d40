"""The batched array core: every entry a batch gives must carry the same bits
as the scalar call on that draw alone."""

import math

import numpy as np
import pytest

from colliderbias import (
    LINEAR_MODEL,
    BiasQuery,
    ColliderCpt,
    DegenerateStratumError,
    ParameterError,
    Scale,
    Sign,
    Stratum,
    StructureKind,
    StructureParams,
    bias,
    build_joint,
    cond_measure,
    lm_coefficient,
    random_structure_params,
)
from colliderbias import closedform as cf
from colliderbias import joint as joint_mod
from colliderbias import signmap as sm
from colliderbias import verification

ALL_KINDS = list(StructureKind)
DRAWS = 25


def _draws(kind, seed=3):
    """DRAWS single draws and the batch drawn from a generator with the same
    seed, which must hold the same draws."""
    seed += ALL_KINDS.index(kind)
    rng = np.random.default_rng(seed)
    singles = [random_structure_params(kind, rng) for _ in range(DRAWS)]
    return singles, random_structure_params(kind, np.random.default_rng(seed), DRAWS)


def _same_bits(batch, scalars):
    """The batch's entries equal the scalars bit for bit (NaN-free)."""
    got = np.broadcast_to(batch, (len(scalars),)).tolist()
    return [float(g).hex() for g in got] == [float(s).hex() for s in scalars]


@pytest.mark.parametrize("length", [*range(1, 33), 64])
def test_ordered_sum_matches_ndarray_sum(length):
    # Pins numpy's own summation order: a numpy release that changes it
    # fails here before any batch result can drift from a scalar one.
    rng = np.random.default_rng(length)
    terms = rng.random((500, length)) * rng.choice([1e-9, 1e-3, 1.0, 1e3], size=(500, length))
    expected = [float(row.sum()) for row in terms]
    assert joint_mod.ordered_sum(terms).tolist() == expected
    assert joint_mod.ordered_sum(terms.T.copy().T).tolist() == expected  # any memory order


def test_square_matches_python_pow():
    # libm pow, which Python's ``x ** 2`` calls, is not always x * x.
    rng = np.random.default_rng(0)
    values = rng.random(200_000) * rng.choice([1e-3, 1.0, 2.0], size=200_000) - 0.25
    assert cf._square(values).tolist() == [v**2 for v in values.tolist()]


def test_batched_det_and_solve_match_per_matrix():
    rng = np.random.default_rng(1)
    a, c = rng.uniform(0.01, 0.25, (2, 2000))
    b, r1, r2 = rng.uniform(-0.1, 0.1, (3, 2000))
    design = np.array([[a, b], [b, c]]).T
    rhs = np.array([r1, r2]).T[..., None]
    det = np.linalg.det(design)
    solution = np.linalg.solve(design, rhs)[..., 0]
    for i in range(0, 2000, 7):
        one = np.array([[a[i], b[i]], [b[i], c[i]]])
        assert np.linalg.det(one) == det[i]
        assert np.linalg.solve(one, np.array([r1[i], r2[i]])).tolist() == solution[i].tolist()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_oracle_matches_single_tables(kind):
    draws, params = _draws(kind)
    tables = [build_joint(one) for one in draws]
    batch = joint_mod.build_joint_batch(params)
    assert batch.mass.shape == (DRAWS, tables[0].mass.shape[0])
    assert batch.mass.tobytes() == np.stack([t.mass for t in tables]).tobytes()
    assert _same_bits(batch.prob(), [t.prob() for t in tables])
    for names in [(name,) for name in batch.order] + [("X", "Y"), ("X", "C", "Y")]:
        assert _same_bits(batch.expectation(*names), [t.expectation(*names) for t in tables])
    variable = kind.conditioning_variable
    strata = [None] + [Stratum(v, level) for v in ("C", variable) for level in (1, 0)]
    for stratum in strata:
        cells = joint_mod._xy_stratum_cells(batch, stratum)
        singles = [joint_mod._xy_stratum_cells(t, stratum) for t in tables]
        for k, column in enumerate(cells):
            assert _same_bits(column, [one[k] for one in singles])
        for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR):
            value = cond_measure(batch, scale, stratum).value
            assert _same_bits(value, [cond_measure(t, scale, stratum).value for t in tables])
    queries = [BiasQuery(LINEAR_MODEL)] + [
        BiasQuery(Stratum(variable, level), scale)
        for level in (1, 0)
        for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
    ]
    for query in queries:
        assert _same_bits(bias(batch, query).value, [bias(t, query).value for t in tables])
    assert _same_bits(lm_coefficient(batch), [lm_coefficient(t) for t in tables])
    raw = joint_mod.lm_normalizer_terms(batch)
    singles = [joint_mod.lm_normalizer_terms(t) for t in tables]
    assert _same_bits(raw[0], [r[0] for r in singles]) and _same_bits(raw[1], [r[1] for r in singles])


def _report_bits(report):
    return [report.value, report.sign, *(report.factors[k] for k in sorted(report.factors))]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_closed_forms_and_signs_match_single_draws(kind):
    draws, batch = _draws(kind, seed=11)
    variable = kind.conditioning_variable
    queries = [BiasQuery(LINEAR_MODEL)] + [
        BiasQuery(Stratum(variable, level), scale)
        for level in (1, 0)
        for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
    ]
    for query in queries:
        report = cf.closed_form(batch, query)
        singles = [cf.closed_form(params, query) for params in draws]
        if report is None:
            assert singles == [None] * DRAWS
            continue
        for k, column in enumerate(_report_bits(report)):
            assert _same_bits(column, [_report_bits(one)[k] for one in singles]), (query, k)
    assert (sm.effect_pattern(batch.p_c_given) == np.array(
        [sm.effect_pattern(params.p_c_given) for params in draws], dtype=object)).all()
    if kind is StructureKind.NABLA:
        return
    for conditioning in [LINEAR_MODEL, Stratum(variable, 1), Stratum(variable, 0)]:
        signs = sm.extended_sign(batch, conditioning)
        assert signs.tolist() == [sm.extended_sign(params, conditioning) for params in draws]
    if kind.has_child_d:
        for level in (1, 0):
            case_signs = verification._child_case_sign(batch.p_c_given, batch.p_d_given_c, level)
            assert case_signs.tolist() == [
                verification._child_case_sign(p.p_c_given, p.p_d_given_c, level) for p in draws
            ]
    if kind.has_left_a:
        for level in (1, 0):
            assert _same_bits(
                cf.extension_variance_ratio(batch, level),
                [cf.extension_variance_ratio(params, level) for params in draws],
            )


def test_band_sign_is_elementwise():
    values = [0.5, -0.5, 1e-12, -1e-12, 2e-12, -2e-12, 0.0, math.nan, math.inf, -math.inf]
    codes = cf.band_sign(np.array(values))
    assert codes.dtype.kind == "i"
    assert codes.tolist() == [cf.band_sign(v) for v in values]
    assert cf.band_sign(math.nan) is Sign.NEGATIVE


def test_batch_guard_names_the_first_bad_draw():
    collider = np.random.default_rng(5).uniform(0.05, 0.95, size=(4, 5))
    collider[:, [2, 4]] = 0.0  # draws 2 and 4 never have C=1
    batch = StructureParams(
        kind=StructureKind.V, p_left=np.full(5, 0.5), p_right=np.full(5, 0.5),
        p_c_given=ColliderCpt(*collider),
    )
    with pytest.raises(DegenerateStratumError) as info:
        cf.v_stratum_bias(batch, 1, Scale.COV)
    assert info.value.draw == 2
    assert str(info.value) == "draw 2: stratum C=1 has zero probability"
    with pytest.raises(DegenerateStratumError) as info:
        cond_measure(joint_mod.build_joint_batch(batch), Scale.COV, Stratum("C", 1))
    assert info.value.draw == 2


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_draw_rows_are_the_single_draws(kind, size):
    batch_rng, single_rng = np.random.default_rng(6), np.random.default_rng(6)
    columns = [v for _, _, v in random_structure_params(kind, batch_rng, size)._probability_items()]
    assert all(column.shape == (size,) and column.flags.c_contiguous for column in columns)
    for b in range(size):
        values = [v for _, _, v in random_structure_params(kind, single_rng)._probability_items()]
        assert all(type(value) is float for value in values)
        assert [value.hex() for value in values] == [float(column[b]).hex() for column in columns]
    assert batch_rng.random() == single_rng.random()


@pytest.mark.parametrize("draws", [0, -1, 2.0])
def test_bad_draw_count_is_a_parameter_error(draws):
    with pytest.raises(ParameterError, match="draws"):
        random_structure_params(StructureKind.V, np.random.default_rng(0), draws)


def test_verify_does_not_depend_on_the_batch_size(monkeypatch):
    def summary(runs):
        return [[(r.name, r.checked, r.max_discrepancy.hex(), r.failures) for r in sorted(
            run.identities, key=lambda r: r.name)] for run in runs]

    default = summary(verification.verify_many(ALL_KINDS, draws=23, seed=4))
    monkeypatch.setattr(verification, "_BATCH", 5)
    assert summary(verification.verify_many(ALL_KINDS, draws=23, seed=4)) == default


def test_nan_discrepancy_counts_as_a_failure():
    result = verification.IdentityResult(name="x", tolerance=1e-12)
    result.record(0.5e-12)
    result.record(math.nan)
    assert (result.checked, result.failures, result.max_discrepancy) == (2, 1, 0.5e-12)
    assert not result.passed
    result.record(np.array([math.nan, 2e-12, 1e-13]))
    assert (result.checked, result.failures, result.max_discrepancy) == (5, 3, 2e-12)
