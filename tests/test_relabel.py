"""Relabeling a binary variable changes the parameters but not the question,
so each relabeling links the biases of a draw to those of its relabeled
draw with no second formula (a metamorphic relation).  Four relations are
checked on every kind they apply to, at both levels, on seeded strict
batches, through the oracle and through the closed form wherever one
answers, at the tolerances of the numerical contract:

- relabel the conditioning variable: complement its table and swap the
  levels; every bias is unchanged;
- recode X: cov, RD and lm biases negate, RR and OR biases invert;
- relabel A (kinds with A) or B (kinds with B): complement the cause's
  marginal, swap its index of the collider table and the two entries of
  its child's table; every bias is unchanged.

A relabeling permutes the cells, so these relations check the logic of each
route, not rounding that both sides share.

The sign rules obey the same relations: recoding X negates each verdict,
relabeling A or B leaves it unchanged and relabeling the conditioning
variable swaps the levels.
"""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from colliderbias import (
    LINEAR_MODEL,
    BiasQuery,
    ColliderCpt,
    EdgeCpt,
    Scale,
    Stratum,
    StructureKind,
    bias,
    build_joint,
    closed_form,
    random_structure_params,
)
from colliderbias import closedform as cf
from colliderbias import signmap as sm
from colliderbias import verification

DRAWS = 200
ABS_TOL = 1e-12
REL_TOL = 1e-10
SCALES = (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
# A banded value this close to its band's edge may change its verdict under
# a relabeling's rounding.
EDGE = 1e-13


def _complement(table):
    return type(table)(*[1.0 - value for value in table.values()])


def _relabel_conditioning(params):
    """The draw whose conditioning variable (D where the kind has it, else C)
    has its levels swapped."""
    field = "p_d_given_c" if params.kind.has_child_d else "p_c_given"
    return replace(params, **{field: _complement(getattr(params, field))})


def _recode_x(params):
    """The draw whose exposure X has its levels swapped: its edge from A is
    complemented where it hangs off A; otherwise X is the collider's left
    cause, so p_left is complemented and the left index of the collider
    table (and in Nabla the entries of P(Y | X)) swapped."""
    if params.kind.has_left_a:
        return replace(params, p_x_given_a=_complement(params.p_x_given_a))
    t = params.p_c_given
    fields = {"p_left": 1.0 - params.p_left,
              "p_c_given": ColliderCpt(t.given_10, t.given_11, t.given_00, t.given_01)}
    if params.kind is StructureKind.NABLA:
        fields["p_y_given_b"] = EdgeCpt(params.p_y_given_b.given_1, params.p_y_given_b.given_0)
    return replace(params, **fields)


def _relabel_a(params):
    """The draw whose left cause A has its levels swapped: p_left is
    complemented, the left index of the collider table and the entries of
    P(X | A) swapped."""
    t, edge = params.p_c_given, params.p_x_given_a
    return replace(params, p_left=1.0 - params.p_left,
                   p_c_given=ColliderCpt(t.given_10, t.given_11, t.given_00, t.given_01),
                   p_x_given_a=EdgeCpt(edge.given_1, edge.given_0))


def _relabel_b(params):
    """The draw whose right cause B has its levels swapped: p_right is
    complemented, the right index of the collider table and the entries of
    P(Y | B) swapped."""
    t, edge = params.p_c_given, params.p_y_given_b
    return replace(params, p_right=1.0 - params.p_right,
                   p_c_given=ColliderCpt(t.given_01, t.given_00, t.given_11, t.given_10),
                   p_y_given_b=EdgeCpt(edge.given_1, edge.given_0))


def _relations(kind):
    """(name, relation) of each relation that applies to the kind: relabeling
    A or B needs that variable."""
    yield "conditioning", _relabel_conditioning
    yield "recode_x", _recode_x
    if kind.has_left_a:
        yield "relabel_a", _relabel_a
    if kind.has_right_b:
        yield "relabel_b", _relabel_b


CASES = [pytest.param(kind, relation, id=f"{kind.value}-{name}")
         for kind in StructureKind for name, relation in _relations(kind)]


def _oracle(params, query):
    return bias(build_joint(params), query).value


def _closed(params, query):
    report = closed_form(params, query)
    return None if report is None else report.value


def _assert_close(got, want, scale, context):
    got, want = np.asarray(got), np.asarray(want)
    if scale.is_ratio:
        worst = np.max(np.abs(got - want) / np.abs(want))
        assert worst <= REL_TOL, (context, worst)
    else:
        worst = np.max(np.abs(got - want))
        assert worst <= ABS_TOL, (context, worst)


def _pairs(kind, relation):
    """(query on the draw, query on the relabeled draw, scale) for every
    query of the kind: each stratum at both levels on every scale, and lm."""
    variable = kind.conditioning_variable
    for level in (1, 0):
        other = 1 - level if relation is _relabel_conditioning else level
        for scale in SCALES:
            yield (BiasQuery(Stratum(variable, level), scale),
                   BiasQuery(Stratum(variable, other), scale), scale)
    yield BiasQuery(LINEAR_MODEL), BiasQuery(LINEAR_MODEL), Scale.LM_COEF


@pytest.mark.parametrize("route", [_oracle, _closed], ids=["oracle", "closed_form"])
@pytest.mark.parametrize("kind, relation", CASES)
def test_relabeling_maps_each_bias_as_the_relation_says(kind, relation, route):
    rng = np.random.default_rng(list(StructureKind).index(kind))
    params = random_structure_params(kind, rng, DRAWS)
    relabeled = relation(params)
    answered = 0
    for query, relabeled_query, scale in _pairs(kind, relation):
        want, got = route(params, query), route(relabeled, relabeled_query)
        assert (want is None) == (got is None), query
        if want is None:
            continue
        if relation is _recode_x:
            want = 1.0 / want if scale.is_ratio else -want
        _assert_close(got, want, scale, query)
        answered += 1
    assert answered


def _extended_stratum_sign(params, level):
    return sm.extended_sign(params, Stratum(params.kind.conditioning_variable, level))


def _extended_lm_sign(params, level):
    return sm.extended_sign(params, LINEAR_MODEL)


def _v_stratum_sign(params, level):
    return sm.v_stratum_sign(params.p_c_given, level)


def _y_stratum_sign(params, level):
    return sm.y_stratum_sign(params.p_c_given, params.p_d_given_c, level)


def _child_case_sign(params, level):
    return verification._child_case_sign(params.p_c_given, params.p_d_given_c, level)


def _sign_rules(kind):
    """Each rule that signs the kind's X-Y bias: extended_sign on every kind
    but Nabla, and the rules of the V and Y structures on their own kind."""
    yield from (_extended_stratum_sign, _extended_lm_sign)
    if kind is StructureKind.V:
        yield _v_stratum_sign
    if kind is StructureKind.Y:
        yield from (_y_stratum_sign, _child_case_sign)


SIGN_CASES = [pytest.param(kind, relation, rule, id=f"{kind.value}-{name}-{rule.__name__[1:]}")
              for kind in cf._INDEPENDENT_KINDS for name, relation in _relations(kind)
              for rule in _sign_rules(kind)]


@pytest.fixture
def near_edge(monkeypatch):
    """Draws whose value in some closedform.band_sign call made since lay
    within EDGE of its band's edge, as a function of no arguments."""
    band_sign, seen = cf.band_sign, []

    def recording(delta, tol=cf.SIGN_TOL, out=None):
        seen.append(abs(abs(delta) - tol) <= EDGE)
        return band_sign(delta, tol, out)

    monkeypatch.setattr(cf, "band_sign", recording)
    monkeypatch.setattr(sm, "band_sign", recording)
    return lambda: reduce(np.logical_or, seen, np.zeros(DRAWS, dtype=bool))


@pytest.mark.parametrize("kind, relation, rule", SIGN_CASES)
def test_relabeling_maps_each_sign_verdict_as_the_relation_says(kind, relation, rule, near_edge):
    rng = np.random.default_rng(100 + list(StructureKind).index(kind))
    params = random_structure_params(kind, rng, DRAWS)
    relabeled = relation(params)
    for level in (1, 0):
        other = 1 - level if relation is _relabel_conditioning else level
        want, got = np.asarray(rule(params, level)), np.asarray(rule(relabeled, other))
        if relation is _recode_x:
            want = -want
        near = near_edge()
        assert (got == want)[~near].all(), level
        # Near an edge, a verdict may fall to Zero but never turn over.
        assert (got * want >= 0)[near].all(), level
        assert (want != 0).any() and near.sum() < DRAWS // 10, level
