import ast
import dataclasses
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import colliderbias
from colliderbias import (
    LINEAR_MODEL,
    BiasQuery,
    BiasReport,
    ColliderCpt,
    EdgeCpt,
    ParameterError,
    PrecisionLossError,
    Scale,
    Sign,
    Stratum,
    StructureKind,
    StructureParams,
    UndefinedRatioError,
    bias,
    build_joint,
    classify_sign,
    closed_form,
    cross_product_difference,
    embedded_core,
    extended_stratum_bias,
    extension_variance_ratio,
    lm_bias,
    lm_bias_kernel,
    lm_stratum_weights,
    lm_weight_normalizer,
    nabla_or_bias_factor,
    random_structure_params,
    v_lm_bias,
    v_stratum_bias,
    y_bias_from_embedded_v,
    y_stratum_bias,
)
from conftest import REFERENCE_CPT, UNIFORM_CPT

EXTENDED = [
    StructureKind.M,
    StructureKind.LEFT_M,
    StructureKind.RIGHT_M,
    StructureKind.LONG_M,
    StructureKind.LEFT_LONG_M,
    StructureKind.RIGHT_LONG_M,
]


# -- cross-product difference ------------------------------------------------


def test_cross_product_no_interaction():
    assert cross_product_difference(UNIFORM_CPT, 1) == 0.0
    assert cross_product_difference(UNIFORM_CPT, 0) == 0.0


def test_cross_product_reference_point():
    assert math.isclose(cross_product_difference(REFERENCE_CPT, 1), 0.05, abs_tol=1e-15)
    assert math.isclose(cross_product_difference(REFERENCE_CPT, 0), -0.35, abs_tol=1e-15)


def test_cross_product_exact_rr_non_interaction():
    # 0.8/0.2 = (0.4/0.2) * (0.4/0.2): multiplicative effects at level 1
    cpt = ColliderCpt(given_00=0.2, given_01=0.4, given_10=0.4, given_11=0.8)
    assert abs(cross_product_difference(cpt, 1)) <= 1e-15


# -- V stratum bias ----------------------------------------------------------


def test_v_stratum_uniform_is_null(uniform_v_params):
    for level in (0, 1):
        assert v_stratum_bias(uniform_v_params, level, Scale.COV).value == 0.0
        assert v_stratum_bias(uniform_v_params, level, Scale.RD).value == 0.0
        assert v_stratum_bias(uniform_v_params, level, Scale.OR).value == 1.0
        assert v_stratum_bias(uniform_v_params, level, Scale.OR).sign is Sign.ZERO


def test_v_stratum_reference_cov(reference_v_params):
    report = v_stratum_bias(reference_v_params, 1, Scale.COV)
    assert math.isclose(report.value, 0.025510204081632654, abs_tol=1e-15)
    assert report.sign is Sign.POSITIVE
    assert math.isclose(report.factors["cross_product_diff"], 0.05, abs_tol=1e-15)
    assert math.isclose(report.factors["p_stratum"], 0.35, abs_tol=1e-15)
    oracle = bias(build_joint(reference_v_params), BiasQuery(Stratum("C", 1), Scale.COV))
    assert math.isclose(report.value, oracle.value, abs_tol=1e-13)


def test_v_stratum_reference_or(reference_v_params):
    report = v_stratum_bias(reference_v_params, 1, Scale.OR)
    assert math.isclose(report.value, 1.8, rel_tol=1e-14)
    oracle = bias(build_joint(reference_v_params), BiasQuery(Stratum("C", 1), Scale.OR))
    assert math.isclose(report.value, oracle.value, rel_tol=1e-12)


def test_v_stratum_rd_vs_oracle(reference_v_params):
    for level in (0, 1):
        report = v_stratum_bias(reference_v_params, level, Scale.RD)
        oracle = bias(
            build_joint(reference_v_params), BiasQuery(Stratum("C", level), Scale.RD)
        )
        assert math.isclose(report.value, oracle.value, abs_tol=1e-13)


def test_v_stratum_or_undefined_at_zero_cell():
    params = StructureParams(
        kind=StructureKind.V,
        p_left=0.5,
        p_right=0.5,
        p_c_given=ColliderCpt(given_00=0.5, given_01=0.0, given_10=0.5, given_11=0.5),
    )
    with pytest.raises(UndefinedRatioError):
        v_stratum_bias(params, 1, Scale.OR)


def test_v_stratum_rejects_rr_scale(reference_v_params):
    with pytest.raises(ParameterError):
        v_stratum_bias(reference_v_params, 1, Scale.RR)


# -- Nabla OR factor ---------------------------------------------------------


def test_nabla_factor_without_rr_interaction():
    params = StructureParams(
        kind=StructureKind.NABLA,
        p_left=0.4,
        p_c_given=ColliderCpt(given_00=0.2, given_01=0.4, given_10=0.4, given_11=0.8),
        p_y_given_b=EdgeCpt(given_0=0.3, given_1=0.7),
    )
    assert math.isclose(nabla_or_bias_factor(params, 1).value, 1.0, rel_tol=1e-14)


def test_nabla_factor_reference_point_with_direct_edge():
    params = StructureParams(
        kind=StructureKind.NABLA,
        p_left=0.5,
        p_c_given=REFERENCE_CPT,
        p_y_given_b=EdgeCpt(given_0=0.3, given_1=0.7),
    )
    report = nabla_or_bias_factor(params, 1)
    assert math.isclose(report.value, 1.8, rel_tol=1e-14)
    table = build_joint(params)
    oracle = bias(table, BiasQuery(Stratum("C", 1), Scale.OR)).value
    assert math.isclose(report.value, oracle, rel_tol=1e-12)
    assert not math.isclose(report.factors["marginal_or"], 1.0, rel_tol=1e-3)


def test_v_is_degenerate_nabla(rng):
    cpt = ColliderCpt(given_00=0.1, given_01=0.3, given_10=0.45, given_11=0.8)
    nabla = StructureParams(
        kind=StructureKind.NABLA,
        p_left=0.35,
        p_c_given=cpt,
        p_y_given_b=EdgeCpt(given_0=0.6, given_1=0.6),
    )
    v = StructureParams(kind=StructureKind.V, p_left=0.35, p_right=0.6, p_c_given=cpt)
    for level in (0, 1):
        assert math.isclose(
            nabla_or_bias_factor(nabla, level).value,
            v_stratum_bias(v, level, Scale.OR).value,
            rel_tol=1e-14,
        )


# -- Y stratum bias ----------------------------------------------------------


def test_y_uninformative_child_is_null():
    params = StructureParams(
        kind=StructureKind.Y,
        p_left=0.3,
        p_right=0.7,
        p_c_given=REFERENCE_CPT,
        p_d_given_c=EdgeCpt(given_0=0.45, given_1=0.45),
    )
    for level in (0, 1):
        assert abs(y_stratum_bias(params, level, Scale.COV).value) <= 1e-15
        assert abs(y_stratum_bias(params, level, Scale.RD).value) <= 1e-15
        assert math.isclose(y_stratum_bias(params, level, Scale.OR).value, 1.0, rel_tol=1e-14)


def test_y_perfect_proxy_matches_embedded_v():
    # D identical to C: conditioning on D=c is conditioning on C=c.
    params = StructureParams(
        kind=StructureKind.Y,
        p_left=0.4,
        p_right=0.55,
        p_c_given=REFERENCE_CPT,
        p_d_given_c=EdgeCpt(given_0=0.0, given_1=1.0),
    )
    embedded = StructureParams(
        kind=StructureKind.V, p_left=0.4, p_right=0.55, p_c_given=REFERENCE_CPT
    )
    for level in (0, 1):
        assert math.isclose(
            y_stratum_bias(params, level, Scale.COV).value,
            v_stratum_bias(embedded, level, Scale.COV).value,
            rel_tol=1e-13,
        )


def test_y_stratum_vs_oracle(rng):
    for _ in range(25):
        params = random_structure_params(StructureKind.Y, rng)
        table = build_joint(params)
        for level in (0, 1):
            for scale in (Scale.COV, Scale.RD, Scale.OR):
                closed = y_stratum_bias(params, level, scale).value
                oracle = bias(table, BiasQuery(Stratum("D", level), scale)).value
                if scale is Scale.OR:
                    assert math.isclose(closed, oracle, rel_tol=1e-10)
                else:
                    assert math.isclose(closed, oracle, abs_tol=1e-12)


# -- embedded-V contrast -----------------------------------------------------


def test_embedded_contrast_null_child():
    params = StructureParams(
        kind=StructureKind.Y,
        p_left=0.3,
        p_right=0.7,
        p_c_given=REFERENCE_CPT,
        p_d_given_c=EdgeCpt(given_0=0.45, given_1=0.45),
    )
    assert abs(y_bias_from_embedded_v(params, 1)) <= 1e-15


def test_embedded_contrast_perfect_proxy():
    params = StructureParams(
        kind=StructureKind.Y,
        p_left=0.4,
        p_right=0.55,
        p_c_given=REFERENCE_CPT,
        p_d_given_c=EdgeCpt(given_0=0.0, given_1=1.0),
    )
    embedded = StructureParams(
        kind=StructureKind.V, p_left=0.4, p_right=0.55, p_c_given=REFERENCE_CPT
    )
    assert math.isclose(
        y_bias_from_embedded_v(params, 1),
        v_stratum_bias(embedded, 1, Scale.COV).value,
        rel_tol=1e-13,
    )


def test_embedded_contrast_equals_direct(rng):
    for _ in range(25):
        params = random_structure_params(StructureKind.Y, rng)
        for level in (0, 1):
            assert math.isclose(
                y_bias_from_embedded_v(params, level),
                y_stratum_bias(params, level, Scale.COV).value,
                abs_tol=1e-12,
            )


# -- extended structures -----------------------------------------------------


def test_broken_left_extension_kills_bias():
    params = StructureParams(
        kind=StructureKind.LEFT_M,
        p_left=0.4,
        p_right=0.6,
        p_c_given=REFERENCE_CPT,
        p_x_given_a=EdgeCpt(given_0=0.35, given_1=0.35),
    )
    for scale in (Scale.COV, Scale.RD):
        report = extended_stratum_bias(params, 1, scale)
        assert report.value == 0.0
        assert report.factors["rd_left"] == 0.0


def test_right_extension_identity_edge_matches_embedded():
    # B copied into Y: the extension is the identity, so the bias is the
    # embedded V bias on both scales.
    params = StructureParams(
        kind=StructureKind.RIGHT_M,
        p_left=0.45,
        p_right=0.6,
        p_c_given=REFERENCE_CPT,
        p_y_given_b=EdgeCpt(given_0=0.0, given_1=1.0),
    )
    embedded = StructureParams(
        kind=StructureKind.V, p_left=0.45, p_right=0.6, p_c_given=REFERENCE_CPT
    )
    for scale in (Scale.COV, Scale.RD):
        assert math.isclose(
            extended_stratum_bias(params, 1, scale).value,
            v_stratum_bias(embedded, 1, scale).value,
            rel_tol=1e-13,
        )
        assert extended_stratum_bias(params, 1, Scale.RD).factors["variance_ratio"] == 1.0


@pytest.mark.parametrize("kind", EXTENDED)
def test_extended_vs_oracle(kind, rng):
    variable = kind.conditioning_variable
    for _ in range(10):
        params = random_structure_params(kind, rng)
        table = build_joint(params)
        for level in (0, 1):
            for scale in (Scale.COV, Scale.RD):
                closed = extended_stratum_bias(params, level, scale).value
                oracle = bias(table, BiasQuery(Stratum(variable, level), scale)).value
                assert math.isclose(closed, oracle, abs_tol=1e-12), (kind, level, scale)


def test_extended_rejects_or_scale(rng):
    params = random_structure_params(StructureKind.M, rng)
    with pytest.raises(ParameterError):
        extended_stratum_bias(params, 1, Scale.OR)


def test_variance_ratio_right_side_is_one(rng):
    params = random_structure_params(StructureKind.RIGHT_M, rng)
    assert extension_variance_ratio(params, 1) == 1.0


# -- lm kernel and lm bias ---------------------------------------------------


def test_kernel_zero_when_left_cause_inert():
    cpt = ColliderCpt(given_00=0.3, given_01=0.6, given_10=0.3, given_11=0.6)
    params = StructureParams(kind=StructureKind.V, p_left=0.45, p_right=0.3, p_c_given=cpt)
    assert abs(lm_bias_kernel(params)) <= 1e-15


def test_kernel_reference_point(reference_v_params):
    kernel = lm_bias_kernel(reference_v_params)
    assert math.isclose(kernel, -0.09, abs_tol=1e-15)
    # size-weighted mixture route
    mixture = 0.65 * 0.05 + 0.35 * (-0.35)
    assert math.isclose(kernel, mixture, abs_tol=1e-15)


def test_kernel_negative_under_positive_effects(rng):
    for _ in range(50):
        values = sorted(rng.uniform(0.05, 0.95, size=4))
        cpt = ColliderCpt(
            given_00=values[0], given_01=values[1], given_10=values[2], given_11=values[3]
        )
        params = StructureParams(
            kind=StructureKind.V,
            p_left=float(rng.uniform(0.05, 0.95)),
            p_right=float(rng.uniform(0.05, 0.95)),
            p_c_given=cpt,
        )
        assert lm_bias_kernel(params) < 0.0


def test_v_lm_uniform_is_zero(uniform_v_params):
    assert v_lm_bias(uniform_v_params).value == 0.0


def test_v_lm_reference_point(reference_v_params):
    report = v_lm_bias(reference_v_params)
    assert math.isclose(report.value, -9.0 / 82.0, rel_tol=1e-14)
    assert report.sign is Sign.NEGATIVE
    oracle = bias(build_joint(reference_v_params), BiasQuery(LINEAR_MODEL)).value
    assert math.isclose(report.value, oracle, abs_tol=1e-13)
    assert math.isclose(report.factors["weight_1"] + report.factors["weight_0"], 1.0, abs_tol=1e-14)


def test_v_lm_vs_oracle(rng):
    for _ in range(25):
        params = random_structure_params(StructureKind.V, rng)
        report = v_lm_bias(params)
        table = build_joint(params)
        oracle = bias(table, BiasQuery(LINEAR_MODEL)).value
        assert math.isclose(report.value, oracle, abs_tol=1e-12)
        w1, w0 = lm_stratum_weights(table)
        assert math.isclose(report.factors["weight_1"], w1, abs_tol=1e-12)
        assert math.isclose(report.factors["weight_0"], w0, abs_tol=1e-12)


def test_general_lm_reduces_to_v_form(rng):
    for _ in range(25):
        params = random_structure_params(StructureKind.V, rng)
        assert math.isclose(lm_bias(params).value, v_lm_bias(params).value, abs_tol=1e-14)


def test_general_lm_null_child_edge():
    params = StructureParams(
        kind=StructureKind.LONG_M,
        p_left=0.4,
        p_right=0.6,
        p_c_given=REFERENCE_CPT,
        p_x_given_a=EdgeCpt(given_0=0.3, given_1=0.8),
        p_y_given_b=EdgeCpt(given_0=0.2, given_1=0.7),
        p_d_given_c=EdgeCpt(given_0=0.5, given_1=0.5),
    )
    report = lm_bias(params)
    assert report.value == 0.0
    assert report.factors["rd_child"] == 0.0


@pytest.mark.parametrize(
    "kind", [k for k in StructureKind if k is not StructureKind.NABLA]
)
def test_general_lm_vs_oracle(kind, rng):
    for _ in range(10):
        params = random_structure_params(kind, rng)
        closed = lm_bias(params).value
        oracle = bias(build_joint(params), BiasQuery(LINEAR_MODEL)).value
        assert math.isclose(closed, oracle, abs_tol=1e-12), kind


def test_general_lm_rejects_nabla(rng):
    params = random_structure_params(StructureKind.NABLA, rng)
    with pytest.raises(ParameterError):
        lm_bias(params)


def test_embedded_contrast_degenerate_child_stratum():
    params = StructureParams(
        kind=StructureKind.Y,
        p_left=0.5,
        p_right=0.5,
        p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5),
        p_d_given_c=EdgeCpt(given_0=0.0, given_1=0.0),
    )
    from colliderbias import DegenerateStratumError

    with pytest.raises(DegenerateStratumError):
        y_bias_from_embedded_v(params, 1)


def test_embedded_contrast_underflowing_child_stratum():
    # P(D=1) = 5e-301 is positive, but its square underflows to zero.
    params = StructureParams(
        kind=StructureKind.Y,
        p_left=0.5,
        p_right=0.5,
        p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5),
        p_d_given_c=EdgeCpt(given_0=0.0, given_1=1e-300),
    )
    from colliderbias import DegenerateStratumError

    with pytest.raises(DegenerateStratumError):
        y_bias_from_embedded_v(params, 1)


def test_nabla_factor_undefined_at_zero_cell():
    params = StructureParams(
        kind=StructureKind.NABLA,
        p_left=0.5,
        p_c_given=ColliderCpt(given_00=0.5, given_01=0.0, given_10=0.5, given_11=0.5),
        p_y_given_b=EdgeCpt(given_0=0.3, given_1=0.7),
    )
    with pytest.raises(UndefinedRatioError):
        nabla_or_bias_factor(params, 1)


def test_sign_scale_agreement(reference_v_params):
    cov = v_stratum_bias(reference_v_params, 1, Scale.COV)
    rd = v_stratum_bias(reference_v_params, 1, Scale.RD)
    or_ = v_stratum_bias(reference_v_params, 1, Scale.OR)
    assert cov.sign is rd.sign is or_.sign is Sign.POSITIVE


@pytest.mark.parametrize("scale", [Scale.RR, Scale.OR])
def test_classify_sign_ratio_scales_use_null_one(scale):
    assert classify_sign(0.5, scale) is Sign.NEGATIVE
    assert classify_sign(1.0, scale) is Sign.ZERO
    assert classify_sign(1.0 + 5e-12, scale) is Sign.ZERO
    assert classify_sign(1.0 + 5e-11, scale) is Sign.POSITIVE
    assert classify_sign(0.0, scale) is Sign.NEGATIVE


# -- independence from the oracle --------------------------------------------


@pytest.mark.parametrize("module", ["closedform.py", "signmap.py"])
def test_closed_forms_import_nothing_from_joint(module):
    tree = ast.parse((Path(colliderbias.__file__).parent / module).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        else:
            continue
        for path in paths:
            assert "joint" not in path.split("."), f"{module} imports {path}"


def _narrows_optional(test: ast.expr) -> bool:
    """True for ``x is not None``, alone or joined by ``and``."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return all(_narrows_optional(value) for value in test.values)
    return (
        isinstance(test, ast.Compare)
        and [type(op) for op in test.ops] == [ast.IsNot]
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


@pytest.mark.parametrize(
    "path", sorted(Path(colliderbias.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_no_assert_is_a_runtime_check(path):
    # A failed runtime check must reach the user as a ColliderBiasError, never
    # as an AssertionError, and must not vanish under python -O; an assert may
    # only narrow an Optional for the type checker.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            assert node.msg is None and _narrows_optional(node.test), where
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            assert not (isinstance(exc, ast.Name) and exc.id == "AssertionError"), where


def test_closed_forms_never_build_the_joint(monkeypatch, rng):
    def refuse(params):
        raise AssertionError("a closed form built the joint table")

    monkeypatch.setattr(colliderbias.joint, "build_joint", refuse)
    for kind in StructureKind:
        params = random_structure_params(kind, rng)
        variable = kind.conditioning_variable
        queries = [BiasQuery(LINEAR_MODEL)] + [
            BiasQuery(Stratum(variable, level), scale)
            for level in (1, 0)
            for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
        ]
        answered = [closed_form(params, query) for query in queries]
        assert any(report is not None for report in answered), kind
        if kind is not StructureKind.NABLA:
            lm_weight_normalizer(params)
        if kind is StructureKind.V:
            v_lm_bias(params)
        if kind is StructureKind.Y:
            y_bias_from_embedded_v(params, 1)


# The factors extended_stratum_bias adds to those of its embedded V or Y.
EXTENSION_FACTORS = {"embedded_value", "rd_left", "rd_right", "variance_ratio"}


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("draws", [None, 40])
@pytest.mark.parametrize("kind", EXTENDED)
def test_extended_forms_read_the_embedded_core_in_place(kind, draws):
    # The embedded bias read from the extended params equals, bit for bit,
    # the V or Y stratum bias of the core built as its own StructureParams.
    params = random_structure_params(kind, np.random.default_rng(22), draws)
    core = embedded_core(params)
    core_bias = y_stratum_bias if kind.has_child_d else v_stratum_bias
    for level in (1, 0):
        for scale in (Scale.COV, Scale.RD):
            report = extended_stratum_bias(params, level, scale)
            inner = core_bias(core, level, scale)
            assert _bits(report.factors["embedded_value"]) == _bits(inner.value), (level, scale)
            assert set(report.factors) - EXTENSION_FACTORS == set(inner.factors)
            for name, value in inner.factors.items():
                assert _bits(report.factors[name]) == _bits(value), (level, scale, name)


@pytest.mark.parametrize("draws", [None, 40])
def test_y_bias_from_embedded_v_matches_the_built_v_core(draws):
    params = random_structure_params(StructureKind.Y, np.random.default_rng(23), draws)
    v_core = StructureParams(
        kind=StructureKind.V, p_left=params.p_left, p_right=params.p_right,
        p_c_given=params.p_c_given,
    )
    pc1, pc0 = params.prob_collider(1), params.prob_collider(0)
    for d in (1, 0):
        pd1 = params.p_d_given_c.level_given(d, 1)
        pd0 = params.p_d_given_c.level_given(d, 0)
        p_d = params.prob_child(d)
        built = (pd1 - pd0) / (p_d * p_d) * (
            pd1 * pc1 * pc1 * v_stratum_bias(v_core, 1, Scale.COV).value
            - pd0 * pc0 * pc0 * v_stratum_bias(v_core, 0, Scale.COV).value
        )
        assert _bits(y_bias_from_embedded_v(params, d)) == _bits(built), d


def test_closed_forms_on_a_batch_build_no_params(monkeypatch):
    batches = [random_structure_params(kind, np.random.default_rng(24), 30) for kind in EXTENDED]
    y_batch = random_structure_params(StructureKind.Y, np.random.default_rng(24), 30)
    built = []
    post_init = StructureParams.__post_init__

    def counting_post_init(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(StructureParams, "__post_init__", counting_post_init)
    for params in batches:
        variable = params.kind.conditioning_variable
        closed_form(params, BiasQuery(LINEAR_MODEL))
        for level in (1, 0):
            for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR):
                closed_form(params, BiasQuery(Stratum(variable, level), scale))
    for level in (1, 0):
        y_bias_from_embedded_v(y_batch, level)
    assert built == []
    embedded_core(batches[0])  # the probe counts a build
    assert built == [StructureKind.V]


# Digest of the exact bits every closed form gives at one fixed draw per
# kind; moving any operand order changes a last bit and so the digest.
CLOSED_FORM_DIGEST = "1aad54408e12add8b7eceb12e32c7d756c09ea75a966cda28d59a1a7897708d6"


def test_closed_form_bits_pinned():
    rng = np.random.default_rng(2016)
    lines = []
    for kind in StructureKind:
        params = random_structure_params(kind, rng)
        variable = kind.conditioning_variable
        queries = [BiasQuery(LINEAR_MODEL)] + [
            BiasQuery(Stratum(variable, level), scale)
            for level in (1, 0)
            for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)
        ]
        for query in queries:
            report = closed_form(params, query)
            if report is not None:
                lines.append(repr((str(query.conditioning), query.scale.value, report.value,
                                   sorted(report.factors.items()))))
        lines.append(repr((params.prob_collider(1), params.prob_collider(0))))
        if kind is not StructureKind.NABLA:
            lines.append(repr((lm_bias_kernel(params), lm_weight_normalizer(params))))
        if kind is StructureKind.V:
            report = v_lm_bias(params)
            lines.append(repr((report.value, sorted(report.factors.items()))))
        if kind is StructureKind.Y:
            lines.append(repr([y_bias_from_embedded_v(params, level) for level in (1, 0)]))
        if kind.has_left_a:
            lines.append(repr([extension_variance_ratio(params, level) for level in (1, 0)]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CLOSED_FORM_DIGEST


def test_kind_error_lists_kinds_in_declaration_order(reference_v_params):
    with pytest.raises(ParameterError) as info:
        embedded_core(reference_v_params)
    assert str(info.value) == (
        "operation requires kind in {M, LeftM, RightM, LongM, LeftLongM, RightLongM}, got V"
    )


# P(C=1|10) P(C=1|01) is subnormal but positive, so the stratum odds ratio
# overflows; both closed forms built on it must raise instead of returning inf.
OVERFLOWING_OR_CPT = ColliderCpt(given_00=0.5, given_01=5e-324, given_10=1.0, given_11=0.5)


def test_overflowing_stratum_or_raises():
    v_params = StructureParams(
        kind=StructureKind.V, p_left=0.5, p_right=0.5, p_c_given=OVERFLOWING_OR_CPT
    )
    with pytest.raises(PrecisionLossError, match="value = inf"):
        v_stratum_bias(v_params, 1, Scale.OR)
    nabla_params = StructureParams(
        kind=StructureKind.NABLA,
        p_left=0.5,
        p_c_given=OVERFLOWING_OR_CPT,
        p_y_given_b=EdgeCpt(given_0=0.3, given_1=0.6),
    )
    with pytest.raises(PrecisionLossError, match="conditional_or = inf"):
        nabla_or_bias_factor(nabla_params, 1)


@pytest.mark.parametrize("value, factor", [(math.inf, 1.0), (math.nan, 1.0), (1.0, -math.inf)])
def test_bias_report_rejects_non_finite(value, factor):
    with pytest.raises(PrecisionLossError):
        BiasReport(
            value=value,
            scale=Scale.COV,
            conditioning=Stratum("C", 1),
            factors={"p_stratum": factor},
        )


def test_each_public_closed_form_builds_one_report(monkeypatch):
    # closed_form answers through v_stratum_bias, y_stratum_bias,
    # extended_stratum_bias, nabla_or_bias_factor and lm_bias; v_lm_bias is
    # V's second lm route.  Each builds the one report it returns, and
    # y_bias_from_embedded_v, which returns a number, builds none.
    built = []
    check = BiasReport.__post_init__
    monkeypatch.setattr(BiasReport, "__post_init__", lambda self: (built.append(self), check(self))[1])
    for kind in StructureKind:
        params = random_structure_params(kind, np.random.default_rng(6))
        queries = [BiasQuery(Stratum(kind.conditioning_variable, level), scale)
                   for level in (1, 0) for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR)]
        forms = [lambda query=query: closed_form(params, query) for query in queries + [BiasQuery(LINEAR_MODEL)]]
        if kind is StructureKind.V:
            forms.append(lambda: v_lm_bias(params))
        for form in forms:
            del built[:]
            report = form()
            assert [id(one) for one in built] == ([] if report is None else [id(report)]), kind
        if kind is StructureKind.Y:
            del built[:]
            y_bias_from_embedded_v(params, 1)
            assert built == []


@pytest.mark.parametrize("kind, factor", [
    (StructureKind.LEFT_M, "cross_product_diff"),
    (StructureKind.LEFT_LONG_M, "cross_product_diff_c1"),
    (StructureKind.Y, "cross_product_diff"),
])
def test_a_non_finite_inner_value_raises_the_inner_error(kind, factor, monkeypatch):
    # The embedded V or Y form checks its value and factors before the
    # extended form (or y_bias_from_embedded_v) uses them.  Here X copies no
    # part of A, so the extension's variance ratio is undefined: the real
    # RD form raises that, and with a NaN collider contrast (standing for
    # any non-finite inner value) the inner form's error comes first.  A
    # batch names the draw.
    single = random_structure_params(kind, np.random.default_rng(9))
    batch = random_structure_params(kind, np.random.default_rng(9), 4)
    if kind.is_extended:
        form = lambda params: extended_stratum_bias(params, 1, Scale.RD)  # noqa: E731
        single = dataclasses.replace(single, p_x_given_a=EdgeCpt(given_0=0.0, given_1=0.0))
        batch = dataclasses.replace(batch, p_x_given_a=EdgeCpt(given_0=np.zeros(4), given_1=np.zeros(4)))
        with pytest.raises(UndefinedRatioError, match=re.escape("var(X | stratum) = 0")):
            form(single)
    else:
        form = lambda params: y_bias_from_embedded_v(params, 1)  # noqa: E731
    real = colliderbias.closedform.cross_product_difference

    def nan_at_draw_1(table, level):
        value = real(table, level)
        return np.where(np.arange(value.size) == 1, np.nan, value) if getattr(value, "ndim", 0) else math.nan

    monkeypatch.setattr(colliderbias.closedform, "cross_product_difference", nan_at_draw_1)
    for params, prefix in ((single, ""), (batch, "draw 1: ")):
        with pytest.raises(PrecisionLossError) as info:
            form(params)
        assert str(info.value) == f"{prefix}closed form gave non-finite {factor} = nan"
