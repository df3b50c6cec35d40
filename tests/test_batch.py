"""The batched array core: every entry a batch gives must carry the same bits
as the scalar call on that draw alone."""

import collections
import dataclasses
import hashlib
import math
import random
import sys

import numpy as np
import pytest

from colliderbias import (
    LINEAR_MODEL,
    BiasQuery,
    ColliderBiasError,
    ColliderCpt,
    DegenerateStratumError,
    EdgeCpt,
    OutOfRangeError,
    ParameterError,
    PrecisionLossError,
    Scale,
    Sign,
    SingularDesignError,
    Stratum,
    StructureKind,
    StructureParams,
    bias,
    build_joint,
    cond_measure,
    lm_coefficient,
    params_from_dict,
    random_structure_params,
    validate,
)
from colliderbias import cli
from colliderbias import closedform as cf
from colliderbias import joint as joint_mod
from colliderbias import signmap as sm
from colliderbias import structures
from colliderbias import verification
from colliderbias.structures import _FIELD_TYPES

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


def _compiled_sum(length):
    """The sum of cells 0..length-1 that joint._sum_source writes."""
    return eval("lambda c: " + joint_mod._sum_source([f"c[{i}]" for i in range(length)]))


@pytest.mark.parametrize("length", [*range(1, 33), 64])
def test_ordered_sum_matches_ndarray_sum(length):
    # Pins numpy's own summation order: a numpy release that changes it
    # fails here before any batch result can drift from a scalar one.  A
    # batch adds its cells, (B,) arrays, with the compiled sum.
    rng = np.random.default_rng(length)
    terms = rng.random((500, length)) * rng.choice([1e-9, 1e-3, 1.0, 1e3], size=(500, length))
    expected = [float(row.sum()) for row in terms]
    add = _compiled_sum(length)
    assert add(tuple(terms.T)).tolist() == expected
    assert add(tuple(terms.T.copy())).tolist() == expected  # any memory order


def test_gathered_rows_sum_as_each_row_alone():
    # One table adds the numbers of each gathered row with the source that
    # joint._sum_source writes, a batch the (B,) arrays of those cells; each
    # row must get the bits its own 1-D .sum() gives.
    rng = np.random.default_rng(64)
    for length in range(1, 65):
        add_row = _compiled_sum(length)
        for _ in range(50):
            mass = rng.random(64) * rng.choice([1e-9, 1e-3, 1.0, 1e3], size=64)
            rows = int(rng.integers(1, 16))
            index = np.array([rng.choice(64, size=length, replace=False) for _ in range(rows)])
            expected = [float(mass[row].sum()) for row in index]
            assert [add_row(mass[row].tolist()) for row in index] == expected, length
            batch = np.stack([mass, mass[::-1]])
            assert [add_row(tuple(batch[:, row].T))[0] for row in index] == expected, length


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_oracle_matches_single_tables(kind):
    draws, params = _draws(kind)
    tables = [build_joint(one) for one in draws]
    batch = build_joint(params)
    assert batch.mass.shape == (DRAWS, tables[0].mass.shape[0])
    assert batch.mass.tobytes() == np.stack([t.mass for t in tables]).tobytes()
    assert all(cell.shape == (DRAWS,) and cell.dtype == np.float64 and cell.flags.c_contiguous
               for cell in batch._cells)
    assert _same_bits(batch.prob(), [t.prob() for t in tables])
    for names in [(name,) for name in batch.order] + [("X", "Y"), ("X", "C", "Y")]:
        assert _same_bits(batch.expectation(*names), [t.expectation(*names) for t in tables])
    events = ({"X": 1}, {"X": 1, "Y": 0}, {})  # events of different sizes, at once
    for k, row in enumerate(batch.probs(*events)):
        assert _same_bits(row, [t.probs(*events)[k] for t in tables])
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


# The lenient domain's edges, which strict draws never reach.
LENIENT_ALPHABET = (0.0, 1.0, 1e-300, 5e-324, 1 - 1e-16)


def _lenient_draws(kind, count):
    """Each probability from LENIENT_ALPHABET with probability 1/2, otherwise
    uniform on [0, 1)."""
    rnd = random.Random(f"lenient/{kind.value}")
    template = random_structure_params(kind, np.random.default_rng(0)).to_dict()

    def draw():
        return rnd.choice(LENIENT_ALPHABET) if rnd.random() < 0.5 else rnd.random()

    return [
        params_from_dict({
            field: value if field == "kind" else draw() if type(value) is float
            else {key: draw() for key in value}
            for field, value in template.items()
        })
        for _ in range(count)
    ]


def _stack(draws):
    """One batch whose row b is draws[b]."""
    fields = {}
    for name, field_type in _FIELD_TYPES.items():
        values = [getattr(params, name) for params in draws]
        if values[0] is None:
            continue
        if field_type is float:
            fields[name] = np.array(values)
        else:
            fields[name] = field_type(*np.array([table.values() for table in values]).T)
    return StructureParams(kind=draws[0].kind, **fields)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_oracle_matches_single_tables_on_the_lenient_domain(kind):
    # Every row of a batch answers with its own table's bits; where single
    # tables raise, a batch raises the same error at the first of them.
    draws = _lenient_draws(kind, 60)
    tables = [build_joint(params) for params in draws]
    assert build_joint(_stack(draws)).mass.tobytes() == b"".join(
        table.mass.tobytes() for table in tables
    )
    variable = kind.conditioning_variable
    queries = [BiasQuery(LINEAR_MODEL)] + [
        BiasQuery(Stratum(variable, level), scale)
        for level in (1, 0)
        for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
    ]
    raised = set()
    for query in queries:
        singles = []
        for table in tables:
            try:
                singles.append(bias(table, query).value)
            except ColliderBiasError as exc:
                singles.append(type(exc))
        ok = [b for b, value in enumerate(singles) if type(value) is float]
        bad = [b for b, value in enumerate(singles) if type(value) is not float]
        assert ok, query
        values = bias(build_joint(_stack([draws[b] for b in ok])), query).value
        assert _same_bits(values, [singles[b] for b in ok]), query
        if not bad:
            continue
        with pytest.raises(singles[bad[0]]) as info:
            bias(build_joint(_stack(draws[: bad[0] + 1])), query)
        assert type(info.value) is singles[bad[0]] and info.value.draw == bad[0], query
        raised.add(singles[bad[0]])
    assert len(raised) >= 2  # the draws reach more than one guard


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


def test_batch_extended_sign_is_zero_on_the_draw_with_a_fixed_cause():
    draws, _ = _draws(StructureKind.M, seed=5)
    draws[3] = dataclasses.replace(draws[3], p_left=1.0)
    batch = _stack(draws)
    for conditioning in [LINEAR_MODEL, Stratum("C", 1), Stratum("C", 0)]:
        signs = sm.extended_sign(batch, conditioning).tolist()
        assert signs == [sm.extended_sign(params, conditioning) for params in draws]
        assert signs[3] == 0 and signs.count(0) < DRAWS


def test_batch_nabla_stratum_sign_is_zero_on_the_draws_with_an_empty_cell():
    draws, _ = _draws(StructureKind.NABLA, seed=5)
    draws[1] = dataclasses.replace(draws[1], p_left=0.0)
    draws[3] = dataclasses.replace(draws[3], p_y_given_b=EdgeCpt(given_0=0.5, given_1=1.0))
    draws[4] = dataclasses.replace(draws[4], p_c_given=dataclasses.replace(draws[4].p_c_given, given_10=0.0))
    batch = _stack(draws)
    for level in (1, 0):
        signs = sm.nabla_stratum_sign(batch, level).tolist()
        assert signs == [sm.nabla_stratum_sign(params, level) for params in draws]
        assert [signs[b] == 0 for b in (1, 3, 4)] == [True, True, level == 1]
        assert signs.count(0) < DRAWS


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
        cond_measure(build_joint(batch), Scale.COV, Stratum("C", 1))
    assert info.value.draw == 2


@pytest.mark.parametrize("p_right", [np.full(5, 0.5), 0.5])
def test_batch_range_check_names_the_first_bad_field_and_draw(p_right, monkeypatch):
    # A batch is tested all at once, and searched by field and draw only when
    # that fails; entries of exactly 0 and 1 pass the one test, and a NaN
    # fails it.  With a number beside the arrays, the values do not stack,
    # and are searched.
    collider = np.random.default_rng(5).uniform(0.05, 0.95, size=(4, 5))
    collider[0, 1], collider[3, 4] = 0.0, 1.0
    fields = dict(kind=StructureKind.V, p_left=np.full(5, 0.5), p_right=p_right)
    searches = []
    search = structures.check_probabilities
    monkeypatch.setattr(structures, "check_probabilities", lambda items: searches.append(search(items)))
    StructureParams(**fields, p_c_given=ColliderCpt(*collider))
    assert len(searches) == (0 if isinstance(p_right, np.ndarray) else 1)
    for bad, message in ((1.5, "p_c_given[10] = 1.5 is outside"), (math.nan, "p_c_given[10] = nan is outside")):
        collider[2, 3] = bad
        with pytest.raises(OutOfRangeError) as info:
            StructureParams(**fields, p_c_given=ColliderCpt(*collider))
        assert info.value.draw == 3
        assert str(info.value) == f"draw 3: {message} [0.0, 1.0]"


def test_batch_singular_design_names_the_first_bad_draw():
    collider = np.random.default_rng(8).uniform(0.05, 0.95, size=(4, 3))
    collider[:, 1] = [0.0, 0.0, 1.0, 1.0]  # in draw 1, C copies X
    batch = StructureParams(
        kind=StructureKind.V, p_left=np.full(3, 0.3), p_right=np.full(3, 0.6),
        p_c_given=ColliderCpt(*collider),
    )
    with pytest.raises(SingularDesignError) as info:
        lm_coefficient(build_joint(batch))
    assert info.value.draw == 1
    assert str(info.value) == "draw 1: X and C are collinear under the joint distribution"


def test_batch_nonfinite_check_names_the_first_bad_factor_and_draw():
    factors = {"rd_child": 1.0, "second": np.ones(5), "third": np.full(5, math.inf)}
    factors["second"][3] = math.nan
    report = dict(scale=Scale.COV, conditioning=Stratum("C", 1))
    with pytest.raises(PrecisionLossError) as info:
        cf.BiasReport(value=np.full(5, math.nan), factors=factors, **report)
    assert info.value.draw == 3
    assert str(info.value) == "draw 3: closed form gave non-finite second = nan"
    with pytest.raises(PrecisionLossError, match="^draw 1: closed form gave non-finite value = inf"):
        cf.BiasReport(value=np.array([0.0, math.inf]), factors={"rd_child": 1.0}, **report)
    with pytest.raises(PrecisionLossError, match="^draw 2: oracle gave non-finite cov = -inf$"):
        joint_mod.OracleMeasure(np.array([0.0, 1.0, -math.inf]), Scale.COV)
    cf.BiasReport(value=np.zeros(5), factors={"rd_child": 1.0, "g": np.ones(5)}, **report)


def test_batch_nonfinite_scalar_factor_names_no_draw():
    # A number stands for every draw of the batch, so its error has no draw.
    # It is found whether or not an array beside it is bad as well.
    report = dict(scale=Scale.COV, conditioning=Stratum("C", 1))
    for third in (np.full(5, math.nan), np.ones(5)):
        factors = {"g": np.ones(5), "rd_child": math.inf, "third": third}
        with pytest.raises(PrecisionLossError) as info:
            cf.BiasReport(value=np.zeros(5), factors=factors, **report)
        assert str(info.value) == "closed form gave non-finite rd_child = inf"
        assert not hasattr(info.value, "draw")


def _map_probabilities(params, convert):
    """``params`` with ``convert`` applied to every probability array."""
    fields = {}
    for name, field_type in _FIELD_TYPES.items():
        value = getattr(params, name)
        if value is not None:
            fields[name] = (convert(value) if field_type is float
                            else field_type(*map(convert, value.values())))
    return StructureParams(kind=params.kind, **fields)


# Probability arrays of other real dtypes: float32 and longdouble values, and
# integer 0 or 1.
DTYPE_CONVERSIONS = (
    lambda v: v.astype(np.float32),
    lambda v: v.astype(np.longdouble),
    lambda v: (v > 0.5).astype(np.int64),
)

# sha256 over the mass bytes of each kind's batch under each conversion; the
# builder casts a batch's probabilities to float64 before it multiplies.
TYPED_MASS_DIGEST = "b344c2f3a0eab5eab5b7e8d54fbc8ee394e625ce72e02dc46fd57fb0e1b2c5a8"


def test_batches_of_other_dtypes_build_float64_mass():
    digest = hashlib.sha256()
    for kind in ALL_KINDS:
        draws = random_structure_params(kind, np.random.default_rng(5), 8)
        for convert in DTYPE_CONVERSIONS:
            typed = _map_probabilities(draws, convert)
            mass = build_joint(typed).mass
            as_float64 = _map_probabilities(typed, lambda v: v.astype(np.float64))
            assert mass.dtype == np.float64
            assert mass.tobytes() == build_joint(as_float64).mass.tobytes()
            digest.update(mass.tobytes())
    assert digest.hexdigest() == TYPED_MASS_DIGEST


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_draw_rows_are_the_single_draws(kind, size):
    batch_rng, single_rng = np.random.default_rng(6), np.random.default_rng(6)
    columns = random_structure_params(kind, batch_rng, size).probabilities
    assert all(column.shape == (size,) and column.flags.c_contiguous for column in columns)
    for b in range(size):
        values = random_structure_params(kind, single_rng).probabilities
        assert all(type(value) is float for value in values)
        assert [value.hex() for value in values] == [float(column[b]).hex() for column in columns]
    assert batch_rng.random() == single_rng.random()


@pytest.mark.parametrize("draws", [0, -1, 2.0])
def test_bad_draw_count_is_a_parameter_error(draws):
    with pytest.raises(ParameterError, match="draws"):
        random_structure_params(StructureKind.V, np.random.default_rng(0), draws)


def test_verify_does_not_depend_on_the_batch_size(monkeypatch, capsys):
    # The same bytes, whether one batch of 23 draws or five of at most 5
    # answer each query, closed form and oracle alike, from its memo.
    def output():
        for fmt in ("json", "text"):
            assert cli.main(["verify", "--all", "--draws", "23", "--seed", "4", "--format", fmt]) == 0
        return capsys.readouterr().out

    default = output()
    monkeypatch.setattr(verification, "_BATCH", 5)
    assert output() == default


def test_nan_discrepancy_counts_as_a_failure():
    result = verification.IdentityResult(name="x", tolerance=1e-12)
    result.record(0.5e-12)
    result.record(math.nan)
    assert (result.checked, result.failures, result.max_discrepancy) == (2, 1, 0.5e-12)
    assert not result.passed
    result.record(np.array([math.nan, 2e-12, 1e-13]))
    assert (result.checked, result.failures, result.max_discrepancy) == (5, 3, 2e-12)


def _batch_queries(kind):
    """Every oracle query a batch of ``kind`` keeps in its memo, by name: each
    stratum (and the whole table) on each scale, lm, event sums and the lm
    normalizer terms."""
    strata = [None] + [
        Stratum(variable, level)
        for variable in ("C", "D") if variable == "C" or kind.has_child_d
        for level in (1, 0)
    ]
    queries = {
        f"{stratum}/{scale.value}": lambda t, s=scale, g=stratum: cond_measure(t, s, g).value
        for stratum in strata
        for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
    }
    queries["lm"] = lambda t: cond_measure(t, Scale.LM_COEF, LINEAR_MODEL).value
    queries["lm_coefficient"] = lm_coefficient
    queries["prob"] = lambda t: t.prob()
    queries["probs"] = lambda t: t.probs(*({name: 1} for name in t.order))
    queries["pair_probs"] = lambda t: t.probs({"X": 1, "Y": 1}, {"X": 0, "Y": 1})
    queries["lm_normalizer_terms"] = lambda t: np.array(joint_mod.lm_normalizer_terms(t))
    return queries


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_memoized_batch_queries_keep_the_bits_of_a_fresh_batch(kind):
    # One batch asked every query twice over, in shuffled order, answers each
    # with the bits a fresh batch gives when asked that query alone.
    _, params = _draws(kind, seed=17)
    queries = _batch_queries(kind)
    fresh = {
        name: query(build_joint(params)).tobytes() for name, query in queries.items()
    }
    order = list(queries) * 2
    random.Random(kind.value).shuffle(order)
    batch = build_joint(params)
    for name in order:
        assert queries[name](batch).tobytes() == fresh[name], name


def test_memoized_batch_arrays_are_read_only():
    _, params = _draws(StructureKind.LONG_M)
    batch = build_joint(params)
    stratum = Stratum("D", 1)
    kept = [
        batch.prob(),
        batch.probs({"X": 1}, {"Y": 1}),
        cond_measure(batch, Scale.OR, stratum).value,
        cond_measure(batch, Scale.LM_COEF, LINEAR_MODEL).value,
    ]
    before = [array.tobytes() for array in kept]
    for array in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 0.5
    assert batch.prob().tobytes() == before[0]
    assert batch.probs({"X": 1}, {"Y": 1}).tobytes() == before[1]
    assert cond_measure(batch, Scale.OR, stratum).value.tobytes() == before[2]
    assert cond_measure(batch, Scale.LM_COEF, LINEAR_MODEL).value.tobytes() == before[3]


def test_memoized_batch_raises_on_every_call():
    # No error is kept: a batch whose draw 3 has no mass at C=1 raises, naming
    # draw 3, each time it is asked, and its other answers still come.
    collider = np.random.default_rng(9).uniform(0.05, 0.95, size=(4, 6))
    collider[:, 3] = 0.0
    params = StructureParams(
        kind=StructureKind.V, p_left=np.full(6, 0.4), p_right=np.full(6, 0.7),
        p_c_given=ColliderCpt(*collider),
    )
    batch = build_joint(params)
    stratum = Stratum("C", 1)
    for _ in range(3):
        for scale in (Scale.COV, Scale.RD, Scale.OR):
            with pytest.raises(DegenerateStratumError) as info:
                cond_measure(batch, scale, stratum)
            assert info.value.draw == 3
            assert str(info.value) == "draw 3: stratum C=1 has zero probability"
            with pytest.raises(DegenerateStratumError, match="^draw 3: "):
                bias(batch, BiasQuery(stratum, scale))
        assert cond_measure(batch, Scale.COV, Stratum("C", 0)).value.shape == (6,)
    assert not any(stratum in key for key in batch._memo)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_batch_keeps_the_sum_that_its_mass_check_read(kind, monkeypatch):
    # verify's joint_normalization asks a batch for prob(): a batch built by
    # the kernel, or from a mass, answers with the sum its mass check read,
    # which has the bits of adding its cells again, and adds nothing.
    calls = []
    raw = joint_mod.JointTable._sums.__wrapped__
    monkeypatch.setitem(joint_mod.JointTable._sums.__globals__, "function",
                        lambda table, add: calls.append(add) or raw(table, add))
    built = build_joint(_draws(kind)[1])
    for table in (built, joint_mod.JointTable(kind, built.order, built.mass)):
        (added,) = joint_mod._cell_index(table.order, ((),))(table._cells)
        assert table.prob().tobytes() == added.tobytes()
        assert not table.prob().flags.writeable
        assert calls == []
    built.probs({"X": 1})
    assert len(calls) == 1


def test_single_tables_keep_no_memo():
    params = random_structure_params(StructureKind.LONG_M, np.random.default_rng(2))
    table = build_joint(params)
    bias(table, BiasQuery(Stratum("D", 1), Scale.OR))
    bias(table, BiasQuery(LINEAR_MODEL))
    table.probs({"X": 1}, {"Y": 1})
    assert table._memo is None


# Every piece that a batch keeps in its memo (structures.batch_memo).
MEMOIZED = (
    StructureParams.prob_collider,
    StructureParams.prob_child,
    cf.cross_product_difference,
    cf._given_left,
    cf.extension_variance_ratio,
    cf.lm_bias_kernel,
    cf.lm_weight_normalizer,
    cf.lm_bias,
    joint_mod.JointTable._sums,
    joint_mod._measure,
    sm._extension_sign,
)


@pytest.fixture(scope="module")
def memo_traffic():
    """For each kind, the traffic of the memoized pieces on the batch of one
    verify_kind call: the runs, keyed by (piece, first argument's id, other
    arguments), and the asks, keyed by piece."""
    traffic = {}
    wrappers = {id(piece.__code__): piece for piece in MEMOIZED}  # equal sources compile to equal code

    def profile(frame, event, arg):
        piece = wrappers.get(id(frame.f_code)) if event == "call" else None
        if piece is not None and frame.f_locals[frame.f_code.co_varnames[0]]._memo is not None:
            asks[piece] += 1

    with pytest.MonkeyPatch.context() as patch:
        for piece in MEMOIZED:
            def counted(first, *args, piece=piece, raw=piece.__wrapped__):
                if first._memo is not None:
                    held.append(first)  # alive, so that no later argument takes its id
                    runs[piece, id(first), args] += 1
                return raw(first, *args)

            patch.setitem(piece.__globals__, "function", counted)
        for kind in ALL_KINDS:
            runs, asks, held = collections.Counter(), collections.Counter(), []
            sys.setprofile(profile)
            try:
                verification.verify_kind(kind, draws=DRAWS, seed=5)
            finally:
                sys.setprofile(None)
            traffic[kind] = runs, asks
    return traffic


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_each_memoized_piece_runs_once_per_batch(kind, memo_traffic):
    # The verify battery asks for the same pieces many times over; on its
    # one batch each piece runs once for each first argument and the rest.
    runs, asks = memo_traffic[kind]
    assert runs and max(runs.values()) == 1
    assert sum(asks.values()) > len(runs)
    # Over the battery of every kind, each piece is asked for more often
    # than it runs: none keeps what is never asked for again.
    for piece in MEMOIZED:
        ran = sum(count for counts, _ in memo_traffic.values() for key, count in counts.items() if key[0] is piece)
        asked = sum(kind_asks[piece] for _, kind_asks in memo_traffic.values())
        assert asked > ran > 0, piece.__qualname__


def test_memoized_pieces_keep_read_only_arrays():
    _, params = _draws(StructureKind.LONG_M)
    table = build_joint(params)
    stratum = Stratum("D", 1)
    kept = {
        "prob_collider": params.prob_collider(1),
        "prob_child": params.prob_child(0),
        "cross_product_difference": cf.cross_product_difference(params.p_c_given, 1),
        "_given_left": cf._given_left(params, 1, True),
        "extension_variance_ratio": cf.extension_variance_ratio(params, 0),
        "lm_bias_kernel": cf.lm_bias_kernel(params),
        "lm_weight_normalizer": cf.lm_weight_normalizer(params),
        "_extension_sign": sm._extension_sign(params),
        "_sums": table._sums(joint_mod._cell_index(table.order, ((("X", 1),), (("Y", 1),)))),
    }
    report = cf.lm_bias(params)
    kept["lm_bias"] = (report.value, report.sign, *report.factors.values())
    measure = joint_mod._measure(table, Scale.OR, stratum)
    kept["_measure"] = measure
    assert set(kept) == {piece.__name__ for piece in MEMOIZED}
    arrays = [(name, array) for name, value in kept.items()
              for array in (value if isinstance(value, tuple) else (value,)) if isinstance(array, np.ndarray)]
    assert {name for name, _ in arrays} == set(kept)
    for name, array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    # Asked again, each piece hands out what it kept.
    assert params.prob_collider(1) is kept["prob_collider"]
    assert cf.cross_product_difference(params.p_c_given, 1) is kept["cross_product_difference"]
    assert cf.lm_bias(params) is report
    assert joint_mod._measure(table, Scale.OR, stratum) is measure
    assert cond_measure(table, Scale.OR, stratum).value is measure


def test_memoized_piece_raises_on_every_call():
    # No error is kept: a V batch whose draw 3 has no mass at C=1 raises,
    # naming draw 3, each time its C=1 forms or its lm form are asked, and
    # the pieces that do not raise are kept.
    collider = np.random.default_rng(9).uniform(0.05, 0.95, size=(4, 6))
    collider[:, 3] = 0.0
    params = StructureParams(
        kind=StructureKind.V, p_left=np.full(6, 0.4), p_right=np.full(6, 0.7),
        p_c_given=ColliderCpt(*collider),
    )
    for _ in range(3):
        for scale in (Scale.COV, Scale.RD):
            with pytest.raises(ColliderBiasError, match="^draw 3: "):
                cf.v_stratum_bias(params, 1, scale)
        with pytest.raises(DegenerateStratumError, match="^draw 3: "):
            cf.lm_bias(params)
        assert cf.v_stratum_bias(params, 0, Scale.COV).value.shape == (6,)
    assert not any(key[0] is cf.lm_bias.__wrapped__ for key in params._memo)
    assert (cf.lm_weight_normalizer.__wrapped__,) in params._memo
    assert params.prob_collider(1) is params._memo[params.prob_collider.__wrapped__, 1]


def test_strict_validate_checks_a_batch_draw_by_draw():
    params = random_structure_params(StructureKind.Y, np.random.default_rng(8), 4)
    assert validate(params, strict=True) is params
    at = np.arange(4)
    # Draw 2 has no mass at C=1, draw 1 none at D=1; draw 0 is not degenerate,
    # but one of its probabilities is 0.
    no_c1 = ColliderCpt(*[np.where(at == 2, 0.0, v) for v in params.p_c_given.values()])
    no_d1 = dataclasses.replace(params.p_d_given_c, given_0=np.where(at == 1, 0.0, params.p_d_given_c.given_0),
                                given_1=np.where(at == 1, 0.0, params.p_d_given_c.given_1))
    cases = [
        (dataclasses.replace(params, p_c_given=no_c1), DegenerateStratumError, 2, "draw 2: stratum C=1 has zero probability"),
        (dataclasses.replace(params, p_d_given_c=no_d1), DegenerateStratumError, 1, "draw 1: stratum D=1 has zero probability"),
        (dataclasses.replace(params, p_left=np.where(at == 0, 0.0, params.p_left)), OutOfRangeError, 0,
         "draw 0: p_left = 0.0 is outside (0.0, 1.0)"),
    ]
    for bad, error, draw, message in cases:
        assert validate(bad) is bad
        with pytest.raises(error) as info:
            validate(bad, strict=True)
        assert info.value.draw == draw
        assert str(info.value) == message


def test_single_draws_and_grids_keep_no_memo(monkeypatch):
    params = random_structure_params(StructureKind.LONG_M, np.random.default_rng(2))
    cf.closed_form(params, BiasQuery(Stratum("D", 1), Scale.RD))
    cf.closed_form(params, BiasQuery(LINEAR_MODEL))
    sm.extended_sign(params, LINEAR_MODEL)
    assert params._memo is None
    assert all(getattr(params, name)._memo is None for name in ("p_c_given", "p_x_given_a", "p_d_given_c"))
    lattices = []

    def seen(t, level):
        lattices.append(t)
        return cf.cross_product_difference(t, level)

    monkeypatch.setattr(sm, "cross_product_difference", seen)
    sm.emit_grid(sm.GridFamily.STRATUM, sm.GridFixed(0.15, 0.75, 0.5, 0.5), 9)
    assert lattices and all(t._memo is None for t in lattices)


def test_a_batch_shares_no_memo_with_another():
    _, first = _draws(StructureKind.Y, seed=3)
    _, second = _draws(StructureKind.Y, seed=4)
    values = [cf.y_stratum_bias(params, 1, Scale.COV).value for params in (first, second)]
    assert values[0].tobytes() != values[1].tobytes()
    assert first._memo is not second._memo
    assert first.p_c_given._memo is not second.p_c_given._memo
    assert not set(map(id, first._memo.values())) & set(map(id, second._memo.values()))
    # The embedded core holds its batch's own tables, and their memos.
    _, extended = _draws(StructureKind.LONG_M)
    core = cf.embedded_core(extended)
    assert core._memo is not extended._memo
    assert core.p_c_given._memo is extended.p_c_given._memo


# sha256 over the bits of every closed-form value, sign and factor, and of
# each auxiliary closed form, that a batch of PINNED_DRAWS draws per kind
# gives; regrouping any product or sum changes a last bit of some draw.
PINNED_DRAWS = 300
BATCH_CLOSED_FORM_DIGEST = "493bee4a20eeac8b2730b285a7ef7e0cd69aaff7989aed8be366a9b6746fd2f8"


def test_batch_closed_form_bits_pinned():
    digest = hashlib.sha256()

    def pin(name, value):
        digest.update(name.encode())
        digest.update(np.broadcast_to(np.asarray(value, dtype=np.float64), PINNED_DRAWS).tobytes())

    for kind in ALL_KINDS:
        params = random_structure_params(kind, np.random.default_rng(2016), PINNED_DRAWS)
        variable = kind.conditioning_variable
        queries = [BiasQuery(LINEAR_MODEL)] + [
            BiasQuery(Stratum(variable, level), scale)
            for level in (1, 0)
            for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
        ]
        for query in queries:
            report = cf.closed_form(params, query)
            if report is None:
                continue
            where = f"{kind.value}/{query.conditioning}/{query.scale.value}"
            pin(f"{where}/value", report.value)
            pin(f"{where}/sign", report.sign)
            for name in sorted(report.factors):
                pin(f"{where}/{name}", report.factors[name])
        for level in (1, 0):
            pin(f"{kind.value}/P(C={level})", params.prob_collider(level))
            if kind.has_child_d:
                pin(f"{kind.value}/P(D={level})", params.prob_child(level))
            if kind.has_left_a:
                pin(f"{kind.value}/variance_ratio/{level}", cf.extension_variance_ratio(params, level))
            if kind is StructureKind.Y:
                pin(f"Y/embedded_v/{level}", cf.y_bias_from_embedded_v(params, level))
        if kind is not StructureKind.NABLA:
            pin(f"{kind.value}/lm_kernel", cf.lm_bias_kernel(params))
            pin(f"{kind.value}/lm_normalizer", cf.lm_weight_normalizer(params))
        if kind is StructureKind.V:
            report = cf.v_lm_bias(params)
            pin("V/v_lm/value", report.value)
            for name in sorted(report.factors):
                pin(f"V/v_lm/{name}", report.factors[name])
    assert digest.hexdigest() == BATCH_CLOSED_FORM_DIGEST
