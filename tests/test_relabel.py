"""Relabeling a binary variable changes the parameters but not the question,
so each relabeling links the biases of a draw to those of its relabeled
draw with no second formula (a metamorphic relation).  Two relations are
checked on every kind, at both levels, on seeded strict batches, through the
oracle and through the closed form wherever one answers, at the tolerances
of the numerical contract:

- relabel the conditioning variable: complement its table and swap the
  levels; every bias is unchanged;
- recode X: cov, RD and lm biases negate, RR and OR biases invert.

A relabeling permutes the cells, so these relations check the logic of each
route, not rounding that both sides share.
"""

from dataclasses import replace

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

DRAWS = 200
ABS_TOL = 1e-12
REL_TOL = 1e-10
SCALES = (Scale.COV, Scale.RD, Scale.RR, Scale.OR)


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
@pytest.mark.parametrize("relation", [_relabel_conditioning, _recode_x], ids=["conditioning", "recode_x"])
@pytest.mark.parametrize("kind", list(StructureKind), ids=lambda kind: kind.value)
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
