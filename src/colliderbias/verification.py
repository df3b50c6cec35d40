"""Randomized identity verification: closed forms against the joint oracle.

For a structure kind this module draws strictly valid random parameter sets
and, on every draw, checks each applicable analytic identity: the stratum
bias formulas and regression-adjustment formulas against the brute-force
joint table, the internal covariance/regression identities of the oracle itself, the
factorization of extended-structure bias into embedded bias times extension
terms, and the qualitative sign rules.  Results are aggregated per identity
with the maximum observed discrepancy, so one summary answers both "does
everything hold?" and "with how much room?".
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

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

DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL_OR = 1e-10
# Exact-arithmetic facts of the factorized joint (normalization, marginal
# independence of the collider's parents) hold to a few ulps.
_EXACT_TOL = 1e-14


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

    def record(self, discrepancy: float) -> None:
        self.checked += 1
        if discrepancy > self.max_discrepancy:
            self.max_discrepancy = discrepancy
        if discrepancy > self.tolerance:
            self.failures += 1


@dataclass
class KindVerification:
    """All identity results for one structure kind."""

    kind: StructureKind
    draws: int
    seed: int
    identities: list[IdentityResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

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
    compared, against DEFAULT_REL_TOL_OR."""
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class _Recorder:
    def __init__(self) -> None:
        self._results: dict[str, IdentityResult] = {}

    def _slot(self, name: str, tolerance: float) -> IdentityResult:
        if name not in self._results:
            self._results[name] = IdentityResult(name=name, tolerance=tolerance)
        return self._results[name]

    def absolute(self, name: str, a: float, b: float, tolerance: float = DEFAULT_ABS_TOL) -> None:
        self._slot(name, tolerance).record(abs(a - b))

    def relative(self, name: str, a: float, b: float) -> None:
        self._slot(name, DEFAULT_REL_TOL_OR).record(relative_discrepancy(a, b))

    def flag(self, name: str, ok: bool) -> None:
        self._slot(name, 0.0).record(0.0 if ok else 1.0)

    def results(self) -> list[IdentityResult]:
        return list(self._results.values())


def _oracle_stratum_bias(table, variable: str, level: int, scale: Scale) -> float:
    return joint_mod.bias(table, BiasQuery(Stratum(variable, level), scale)).value


def _check_joint_basics(params: StructureParams, table, rec: _Recorder) -> None:
    rec.absolute("joint_normalization", table.prob(), 1.0, _EXACT_TOL)
    if params.kind is not StructureKind.NABLA:
        roles = variable_roles(params.kind)
        joint_lr = table.expectation(roles.left_cause, roles.right_cause)
        product = table.expectation(roles.left_cause) * table.expectation(roles.right_cause)
        rec.absolute("parents_marginally_independent", joint_lr, product, _EXACT_TOL)


def _check_closed_vs_oracle(params: StructureParams, table, rec: _Recorder) -> None:
    kind = params.kind
    variable = kind.conditioning_variable
    for level in (1, 0):
        for scale in (Scale.COV, Scale.RD, Scale.OR):
            query = BiasQuery(Stratum(variable, level), scale)
            report = cf.closed_form(params, query)
            if report is None:
                continue
            oracle = joint_mod.bias(table, query).value
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


def _stratum_variables(kind: StructureKind) -> tuple[str, ...]:
    return ("C", "D") if kind.has_child_d else ("C",)


def _check_oracle_identities(params: StructureParams, table, rec: _Recorder) -> None:
    for variable in _stratum_variables(params.kind):
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
    rec.absolute(
        "lm_weighted_average_identity", joint_mod.lm_coefficient(table), averaged
    )

    # Symmetry of the weight normalizer in its two variables.
    def normalizer(f: str, g: str) -> float:
        raw1, raw0 = joint_mod.lm_normalizer_terms(table, f, g)
        return raw1 + raw0

    for f, g in itertools.combinations(table.order, 2):
        rec.absolute("design_symmetry_identity", normalizer(f, g), normalizer(g, f))


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
    params: StructureParams, table, core_table, rec: _Recorder
) -> None:
    if not params.kind.is_extended:
        return
    variable = params.kind.conditioning_variable
    rd_left, rd_right = cf.extension_rds(params)
    for level in (1, 0):
        for scale in (Scale.COV, Scale.RD):
            outer = _oracle_stratum_bias(table, variable, level, scale)
            inner = _oracle_stratum_bias(core_table, variable, level, scale)
            if abs(inner) <= 1e-6:
                continue
            declared = rd_left * rd_right
            if scale is Scale.RD:
                declared *= cf.extension_variance_ratio(params, level)
            rec.absolute("extension_factorization", outer / inner, declared, 1e-9)


def _signs_agree(*signs: Sign) -> bool:
    """True when no two of ``signs`` are strictly opposite: every pair is
    equal or holds a Zero, which a sign flag reads as undecided."""
    return not {Sign.POSITIVE, Sign.NEGATIVE} <= set(signs)


def _child_case_sign(p_c_given: ColliderCpt, p_d_given_c: EdgeCpt, level: int) -> Sign:
    """The paper's case rules for the sign of the child-stratum bias at
    D=level.  With g1, g0 the cross-product differences at the two collider
    levels and pd1, pd0 = P(D=level | C=1), P(D=level | C=0):

    1. g1 >= 0 and g0 <= 0: the sign of the collider's effect on P(D=level).
    2. g1 <= 0 and g0 >= 0: the opposite of that effect's sign.
    3. g1, g0 of one strict sign: zero when pd1/pd0 equals g0/g1 or 1; when
       both are negative, positive for pd1/pd0 strictly between g0/g1 and 1
       and negative outside; when both are positive, the reverse.

    The effect in cases 1 and 2 is banded at closedform.SIGN_TOL.
    """
    g1 = cf.cross_product_difference(p_c_given, 1)
    g0 = cf.cross_product_difference(p_c_given, 0)
    pd1 = p_d_given_c.level_given(level, 1)
    pd0 = p_d_given_c.level_given(level, 0)
    if g1 >= 0.0 and g0 <= 0.0:
        return cf.band_sign(pd1 - pd0)
    if g1 <= 0.0 and g0 >= 0.0:
        return cf.band_sign(pd0 - pd1)
    ratio = pd1 / pd0
    threshold = g0 / g1
    if ratio == threshold or ratio == 1.0:
        return Sign.ZERO
    inside = min(threshold, 1.0) < ratio < max(threshold, 1.0)
    if g1 < 0.0:
        return Sign.POSITIVE if inside else Sign.NEGATIVE
    return Sign.NEGATIVE if inside else Sign.POSITIVE


def _check_sign_rules(params: StructureParams, table, core_table, rec: _Recorder) -> None:
    kind = params.kind
    if kind is StructureKind.NABLA:
        return
    variable = kind.conditioning_variable

    for level in (1, 0):
        signs = {
            scale: cf.classify_sign(_oracle_stratum_bias(table, variable, level, scale), scale)
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
            numeric = cf.classify_sign(
                _oracle_stratum_bias(core_table, "D", level, Scale.COV), Scale.COV
            )
            rec.flag("child_sign_cases", _signs_agree(case_sign, direct, numeric))

    lm_predicted = sm.extended_sign(params, LINEAR_MODEL)
    lm_numeric = cf.classify_sign(cf.lm_bias(params).value, Scale.LM_COEF)
    rec.flag("lm_sign_rule", _signs_agree(lm_predicted, lm_numeric))

    pattern = sm.classify_effects(params.p_c_given).pattern
    g_signs = {sm.v_stratum_sign(params.p_c_given, level) for level in (1, 0)}
    kernel_sign = cf.classify_sign(cf.lm_bias_kernel(params), Scale.LM_COEF)
    if pattern in (sm.Pattern.BOTH_POSITIVE, sm.Pattern.BOTH_NEGATIVE):
        rec.flag("monotone_pattern_signs", Sign.NEGATIVE in g_signs)
        rec.flag("monotone_lm_sign", kernel_sign is Sign.NEGATIVE)
    elif pattern is sm.Pattern.OPPOSITE_SIGNS:
        rec.flag("monotone_pattern_signs", Sign.POSITIVE in g_signs)
        rec.flag("monotone_lm_sign", kernel_sign is Sign.POSITIVE)
    elif pattern in (
        sm.Pattern.QUALITATIVE_IN_X,
        sm.Pattern.QUALITATIVE_IN_Y,
        sm.Pattern.QUALITATIVE_IN_BOTH,
    ):
        rec.flag(
            "qualitative_pattern_signs",
            g_signs == {Sign.POSITIVE, Sign.NEGATIVE},
        )


def verify_kind(kind: StructureKind, draws: int, seed: int) -> KindVerification:
    """Run the full identity battery for one kind over ``draws`` random
    strict parameter sets.  Deterministic for a given seed.  The absolute
    identities use DEFAULT_ABS_TOL unless they name their own bound; the
    relative odds-ratio identities use DEFAULT_REL_TOL_OR."""
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    rec = _Recorder()
    for _ in range(draws):
        params = random_structure_params(kind, rng)
        table = joint_mod.build_joint(params)
        # The embedded V or Y structure's table; a V, Nabla or Y structure is
        # its own core.
        if kind.is_extended:
            core_table = joint_mod.build_joint(cf.embedded_core(params))
        else:
            core_table = table
        _check_joint_basics(params, table, rec)
        _check_closed_vs_oracle(params, table, rec)
        _check_oracle_identities(params, table, rec)
        _check_supplementary(params, table, rec)
        _check_extension_factorization(params, table, core_table, rec)
        _check_sign_rules(params, table, core_table, rec)
    return KindVerification(
        kind=kind,
        draws=draws,
        seed=seed,
        identities=rec.results(),
        elapsed_seconds=time.perf_counter() - started,
    )


def verify_many(kinds: list[StructureKind], draws: int, seed: int) -> list[KindVerification]:
    """Verify several kinds, each with an independent seeded stream."""
    return [
        verify_kind(kind, draws=draws, seed=seed + offset) for offset, kind in enumerate(kinds)
    ]
