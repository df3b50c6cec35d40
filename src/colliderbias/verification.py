"""Randomized identity verification: closed forms against the joint oracle.

For a structure kind this module draws strictly valid random parameter sets
and, on every draw, checks each applicable analytic identity: the stratum
bias formulas and regression-adjustment formulas against the brute-force
joint table, the internal covariance/regression identities of the oracle itself, the
factorization of extended-structure bias into embedded bias times extension
terms, and the qualitative sign rules.  Results are aggregated per identity
with the maximum observed discrepancy, so one summary answers both "does
everything hold?" and "with how much room?".

The draws run in fixed-size batches, each drawn by one
structures.random_structure_params call: every check below evaluates the
closed forms, the oracle and the sign rules once per batch, on arrays whose
entries are bit-identical to each draw's own floats.  The checks ask the
batch's joint table for many of the same event sums and measures; the
table answers each once and keeps the answer (errors are never kept, and
a single table keeps nothing).  The batch's parameters keep each
closed-form piece they are asked for in the same way
(structures.batch_memo).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING

from . import closedform as cf
from . import joint as joint_mod
from . import signmap as sm
from .errors import ParameterError
from .structures import (
    LINEAR_MODEL,
    BiasQuery,
    ColliderCpt,
    EdgeCpt,
    Scale,
    Sign,
    Stratum,
    StructureKind,
    StructureParams,
    random_structure_params,
    variable_roles,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL_OR = 1e-10
# Exact-arithmetic facts of the factorized joint (normalization, marginal
# independence of the collider's parents) hold to a few ulps.
_EXACT_TOL = 1e-14
# Draws per batch: memory stays fixed whatever the number of draws.
_BATCH = 500
# The stages of a batch that verify_kind times: drawing the parameters,
# building the joint tables, the oracle's checks, the closed forms' checks
# and the sign rules' checks.
STAGES = ("draw", "build", "oracle", "closed forms", "signs")


@dataclass
class IdentityResult:
    """Aggregate of one identity across all draws of a verification run."""

    name: str
    tolerance: float
    checked: int = 0
    max_discrepancy: float = 0.0
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, discrepancy: float | np.ndarray) -> None:
        """Fold in one discrepancy or an array of them.  A failure is any
        value not within the tolerance, NaN included; the maximum skips
        NaN."""
        import numpy as np

        values = np.ravel(discrepancy)
        self.checked += values.size
        self.max_discrepancy = float(np.fmax.reduce(values, initial=self.max_discrepancy))
        self.failures += int(np.count_nonzero(~(values <= self.tolerance)))


@dataclass
class KindVerification:
    """All identity results for one structure kind."""

    kind: StructureKind
    draws: int
    seed: int
    identities: list[IdentityResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    # Seconds of each stage of the battery, in the order of STAGES.
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.identities)

    def result(self, name: str) -> IdentityResult:
        for candidate in self.identities:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


def relative_discrepancy(a: float, b: float) -> float:
    """|a - b| over the larger magnitude: how ratio-scale values are
    compared, against DEFAULT_REL_TOL_OR.  Elementwise on arrays."""
    if getattr(a, "ndim", 0) or getattr(b, "ndim", 0):
        import numpy as np

        return abs(a - b) / np.maximum(np.maximum(abs(a), abs(b)), 1e-300)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class _Recorder:
    """Per-identity results of a batch of draws; ``where`` picks the draws
    an identity applies to, and one with none applying is not recorded."""

    def __init__(self) -> None:
        self._results: dict[str, IdentityResult] = {}

    def _record(self, name: str, tolerance: float, discrepancy, where=None) -> None:
        if where is not None:
            discrepancy = discrepancy[where]
            if not discrepancy.size:
                return
        if name not in self._results:
            self._results[name] = IdentityResult(name=name, tolerance=tolerance)
        self._results[name].record(discrepancy)

    def absolute(self, name: str, a, b, tolerance: float = DEFAULT_ABS_TOL, where=None) -> None:
        self._record(name, tolerance, abs(a - b), where)

    def relative(self, name: str, a, b) -> None:
        self._record(name, DEFAULT_REL_TOL_OR, relative_discrepancy(a, b))

    def flag(self, name: str, ok, where=None) -> None:
        import numpy as np

        self._record(name, 0.0, np.where(ok, 0.0, 1.0), where)

    def results(self) -> list[IdentityResult]:
        return list(self._results.values())


def _stratum_biases(table) -> dict[tuple[int, Scale], np.ndarray]:
    """The oracle's bias at each level of the kind's conditioning variable,
    on the or scale and, but for Nabla, the cov and rd scales: evaluated once
    per batch, and read by every check below."""
    kind = table.kind
    scales = (Scale.OR,) if kind is StructureKind.NABLA else (Scale.COV, Scale.RD, Scale.OR)
    strata = {level: Stratum(kind.conditioning_variable, level) for level in (1, 0)}
    return {
        (level, scale): joint_mod.bias(table, BiasQuery(stratum, scale)).value
        for level, stratum in strata.items()
        for scale in scales
    }


def _check_joint_basics(params: StructureParams, table, rec: _Recorder) -> None:
    rec.absolute("joint_normalization", table.prob(), 1.0, _EXACT_TOL)
    if params.kind is not StructureKind.NABLA:
        roles = variable_roles(params.kind)
        joint_lr = table.expectation(roles.left_cause, roles.right_cause)
        product = table.expectation(roles.left_cause) * table.expectation(roles.right_cause)
        rec.absolute("parents_marginally_independent", joint_lr, product, _EXACT_TOL)


def _check_closed_vs_oracle(params: StructureParams, table, biases, rec: _Recorder) -> None:
    kind = params.kind
    variable = kind.conditioning_variable
    for level in (1, 0):
        for scale in (Scale.COV, Scale.RD, Scale.OR):
            report = cf.closed_form(params, BiasQuery(Stratum(variable, level), scale))
            if report is None:
                continue
            oracle = biases[level, scale]
            if kind is StructureKind.NABLA:
                rec.relative("or_factor_vs_oracle", report.value, oracle)
            elif scale.is_ratio:
                rec.relative("stratum_or_vs_oracle", report.value, oracle)
            else:
                rec.absolute(f"stratum_{scale.value}_vs_oracle", report.value, oracle)

    lm_closed = cf.closed_form(params, BiasQuery(LINEAR_MODEL))
    if lm_closed is None:
        return
    rec.absolute("lm_vs_oracle", lm_closed.value, joint_mod.bias(table, BiasQuery(LINEAR_MODEL)).value)
    if kind is StructureKind.V:
        rec.absolute("lm_two_routes_agree", lm_closed.value, cf.v_lm_bias(params).value)
    if kind is StructureKind.Y:
        rec.absolute(
            "embedded_cov_contrast",
            cf.y_bias_from_embedded_v(params, 1),
            cf.y_stratum_bias(params, 1, Scale.COV).value,
        )


def _check_oracle_identities(params: StructureParams, table, rec: _Recorder) -> None:
    for variable in ("C", "D") if params.kind.has_child_d else ("C",):
        for level in (1, 0):
            stratum = Stratum(variable, level)
            p11, p10, p01, p00, p_g = joint_mod._xy_stratum_cells(table, stratum)
            cov_moments = joint_mod.cond_measure(table, Scale.COV, stratum).value
            cov_bracket = (p11 * p00 - p10 * p01) / (p_g * p_g)
            rec.absolute("cov_bracket_identity", cov_moments, cov_bracket)

            rd = joint_mod.cond_measure(table, Scale.RD, stratum).value
            e_x = (p11 + p10) / p_g
            var_x = e_x * (1.0 - e_x)
            rec.absolute("rd_cov_ratio_identity", rd, cov_moments / var_x)

    # Regression coefficient as a variance-weighted stratum average.
    g_name = params.kind.conditioning_variable
    raw1, raw0 = joint_mod.lm_normalizer_terms(table)
    rd1 = joint_mod.cond_measure(table, Scale.RD, Stratum(g_name, 1)).value
    rd0 = joint_mod.cond_measure(table, Scale.RD, Stratum(g_name, 0)).value
    averaged = (raw1 * rd1 + raw0 * rd0) / (raw1 + raw0)
    rec.absolute("lm_weighted_average_identity", joint_mod.lm_coefficient(table), averaged)

    # Symmetry of the weight normalizer in its two variables, over every pair
    # at once: (pairs, B) arrays of the first and pairwise moments.
    order = table.order
    left, right = zip(*itertools.combinations(range(len(order)), 2))
    means = table.probs(*({name: 1} for name in order))
    products = table.probs(*({order[f]: 1, order[g]: 1} for f, g in zip(left, right)))
    f1, g1 = means[list(left)], means[list(right)]
    raw1, raw0 = joint_mod.normalizer_terms(f1, g1, products)
    swapped1, swapped0 = joint_mod.normalizer_terms(g1, f1, products)
    rec.absolute("design_symmetry_identity", raw1 + raw0, swapped1 + swapped0)


def _check_supplementary(params: StructureParams, table, rec: _Recorder) -> None:
    kind = params.kind
    if kind is StructureKind.NABLA:
        return
    t = params.p_c_given
    pc1 = params.prob_collider(1)
    kernel = cf.lm_bias_kernel(params)
    mixture = (1.0 - pc1) * cf.cross_product_difference(t, 1) + pc1 * cf.cross_product_difference(t, 0)
    rec.absolute("lm_kernel_mixture_identity", kernel, mixture)

    raw1, raw0 = joint_mod.lm_normalizer_terms(table)
    rec.absolute("lm_normalizer_identity", cf.lm_weight_normalizer(params), raw1 + raw0)

    if kind.has_left_a:
        g_name = kind.conditioning_variable
        for level in (1, 0):
            closed_vr = cf.extension_variance_ratio(params, level)
            p_g = table.prob({g_name: level})
            a1 = table.prob({g_name: level, "A": 1}) / p_g
            x1_g = table.prob({g_name: level, "X": 1}) / p_g
            joint_vr = (a1 * (1.0 - a1)) / (x1_g * (1.0 - x1_g))
            rec.absolute("variance_ratio_identity", closed_vr, joint_vr)


def _check_extension_factorization(
    params: StructureParams, biases, core_biases, rec: _Recorder
) -> None:
    if not params.kind.is_extended:
        return
    import numpy as np

    rd_left, rd_right = cf.extension_rds(params)
    for level in (1, 0):
        for scale in (Scale.COV, Scale.RD):
            outer = biases[level, scale]
            inner = core_biases[level, scale]
            # Draws whose embedded bias is near zero are not checked.
            checked = abs(inner) > 1e-6
            declared = rd_left * rd_right
            if scale is Scale.RD:
                declared = declared * cf.extension_variance_ratio(params, level)
            ratio = outer / np.where(checked, inner, 1.0)
            rec.absolute("extension_factorization", ratio, declared, 1e-9, where=checked)


def _signs_agree(*signs) -> np.ndarray:
    """True for each draw where no two of ``signs`` are strictly opposite:
    every pair is equal or holds a Zero, which a sign flag reads as
    undecided."""
    import numpy as np

    positive = reduce(np.logical_or, [np.equal(sign, Sign.POSITIVE) for sign in signs])
    negative = reduce(np.logical_or, [np.equal(sign, Sign.NEGATIVE) for sign in signs])
    return ~(positive & negative)


def _child_case_sign(p_c_given: ColliderCpt, p_d_given_c: EdgeCpt, level: int) -> np.ndarray:
    """The paper's case rules for the sign of the child-stratum bias at
    D=level, as sign codes over a batch (a Sign for one draw).  With g1, g0
    the cross-product differences at the two collider levels and pd1, pd0 =
    P(D=level | C=1), P(D=level | C=0):

    1. g1 >= 0 and g0 <= 0: the sign of the collider's effect on P(D=level).
    2. g1 <= 0 and g0 >= 0: the opposite of that effect's sign.
    3. g1, g0 of one strict sign: zero when pd1/pd0 equals g0/g1 or 1; when
       both are negative, positive for pd1/pd0 strictly between g0/g1 and 1
       and negative outside; when both are positive, the reverse.

    The effect in cases 1 and 2 is banded at closedform.SIGN_TOL, and so are
    case 3's boundaries, as pd1 - pd0 and pd1 g1 - pd0 g0.
    """
    import numpy as np

    g1 = cf.cross_product_difference(p_c_given, 1)
    g0 = cf.cross_product_difference(p_c_given, 0)
    pd1 = p_d_given_c.level_given(level, 1)
    pd0 = p_d_given_c.level_given(level, 0)
    case1 = (g1 >= 0.0) & (g0 <= 0.0)
    case2 = (g1 <= 0.0) & (g0 >= 0.0)
    ratio = pd1 / pd0
    threshold = g0 / np.where(case1 | case2, 1.0, g1)  # g1 is nonzero in case 3
    inside = (np.minimum(threshold, 1.0) < ratio) & (ratio < np.maximum(threshold, 1.0))
    on_boundary = (cf.band_sign(pd1 - pd0) == 0) | (cf.band_sign(pd1 * g1 - pd0 * g0) == 0)
    case3 = np.where(on_boundary, 0, np.where(inside == (g1 < 0.0), 1, -1))
    codes = np.where(case1, cf.band_sign(pd1 - pd0), np.where(case2, cf.band_sign(pd0 - pd1), case3))
    return codes if codes.ndim else Sign(int(codes))


def _check_sign_rules(params: StructureParams, biases, core_biases, rec: _Recorder) -> None:
    import numpy as np

    kind = params.kind
    if kind is StructureKind.NABLA:
        return
    variable = kind.conditioning_variable

    for level in (1, 0):
        signs = {
            scale: cf.classify_sign(biases[level, scale], scale)
            for scale in (Scale.COV, Scale.RD, Scale.OR)
        }
        rec.flag("sign_scale_invariance", _signs_agree(*signs.values()))
        predicted = sm.extended_sign(params, Stratum(variable, level))
        rec.flag("extended_sign_rule", _signs_agree(predicted, signs[Scale.COV]))

    if kind.has_child_d:
        assert params.p_d_given_c is not None
        for level in (1, 0):
            case_sign = _child_case_sign(params.p_c_given, params.p_d_given_c, level)
            direct = sm.y_stratum_sign(params.p_c_given, params.p_d_given_c, level)
            numeric = cf.classify_sign(core_biases[level, Scale.COV], Scale.COV)
            rec.flag("child_sign_cases", _signs_agree(case_sign, direct, numeric))

    lm_predicted = sm.extended_sign(params, LINEAR_MODEL)
    lm_numeric = cf.classify_sign(cf.lm_bias(params).value, Scale.LM_COEF)
    rec.flag("lm_sign_rule", _signs_agree(lm_predicted, lm_numeric))

    pattern = sm.effect_pattern(params.p_c_given)

    def among(*patterns: sm.Pattern) -> np.ndarray:
        # A 0-d object array compares the enum members, not their str().
        return reduce(np.logical_or, [pattern == np.array(p, dtype=object) for p in patterns])

    s1, s0 = (sm.v_stratum_sign(params.p_c_given, level) for level in (1, 0))
    kernel_sign = cf.classify_sign(cf.lm_bias_kernel(params), Scale.LM_COEF)
    monotone = among(sm.Pattern.BOTH_POSITIVE, sm.Pattern.BOTH_NEGATIVE)
    pinned = monotone | among(sm.Pattern.OPPOSITE_SIGNS)
    # Monotone patterns pin a negative sign, opposite ones a positive sign.
    pinned_sign = np.where(monotone, -1, 1)
    rec.flag("monotone_pattern_signs", (s1 == pinned_sign) | (s0 == pinned_sign), where=pinned)
    rec.flag("monotone_lm_sign", kernel_sign == pinned_sign, where=pinned)
    qualitative = among(
        sm.Pattern.QUALITATIVE_IN_X, sm.Pattern.QUALITATIVE_IN_Y, sm.Pattern.QUALITATIVE_IN_BOTH
    )
    rec.flag("qualitative_pattern_signs", s1 * s0 == -1, where=qualitative)


def verify_kind(kind: StructureKind, draws: int, seed: int) -> KindVerification:
    """Run the full identity battery for one kind over ``draws`` random
    strict parameter sets.  Deterministic for a given seed.  The absolute
    identities use DEFAULT_ABS_TOL unless they name their own bound; the
    relative odds-ratio identities use DEFAULT_REL_TOL_OR."""
    import numpy as np

    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    started = mark = time.perf_counter()
    seconds = dict.fromkeys(STAGES, 0.0)

    def charge(stage: str) -> None:
        # Add the seconds since the last charge to ``stage``.
        nonlocal mark
        now = time.perf_counter()
        seconds[stage] += now - mark
        mark = now

    rng = np.random.default_rng(seed)
    rec = _Recorder()
    for first in range(0, draws, _BATCH):
        size = min(_BATCH, draws - first)
        params = random_structure_params(kind, rng, size)
        charge("draw")
        table = joint_mod.build_joint(params)
        # The embedded V or Y structure's; a V, Nabla or Y structure is its
        # own core.
        core_table = joint_mod.build_joint(cf.embedded_core(params)) if kind.is_extended else table
        charge("build")
        biases = _stratum_biases(table)
        core_biases = _stratum_biases(core_table) if kind.is_extended else biases
        _check_joint_basics(params, table, rec)
        charge("oracle")
        _check_closed_vs_oracle(params, table, biases, rec)
        charge("closed forms")
        _check_oracle_identities(params, table, rec)
        charge("oracle")
        _check_supplementary(params, table, rec)
        _check_extension_factorization(params, biases, core_biases, rec)
        charge("closed forms")
        _check_sign_rules(params, biases, core_biases, rec)
        charge("signs")
    return KindVerification(
        kind=kind,
        draws=draws,
        seed=seed,
        identities=rec.results(),
        elapsed_seconds=mark - started,
        stage_seconds=seconds,
    )


def verify_many(kinds: list[StructureKind], draws: int, seed: int) -> list[KindVerification]:
    """Verify several kinds, each with an independent seeded stream."""
    return [
        verify_kind(kind, draws=draws, seed=seed + offset) for offset, kind in enumerate(kinds)
    ]
