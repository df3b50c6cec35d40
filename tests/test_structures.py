import math

import pytest

from colliderbias import (
    ColliderCpt,
    DegenerateStratumError,
    EdgeCpt,
    ExtraFieldError,
    MissingFieldError,
    OutOfRangeError,
    ParameterError,
    StructureKind,
    StructureParams,
    params_from_dict,
    random_structure_params,
    validate,
    variable_roles,
)

ALL_KINDS = list(StructureKind)


def test_exactly_nine_kinds():
    assert len(ALL_KINDS) == 9
    assert {k.value for k in ALL_KINDS} == {
        "V", "Nabla", "Y", "M", "LeftM", "RightM", "LongM", "LeftLongM", "RightLongM",
    }


@pytest.mark.parametrize(
    "kind,variables",
    [
        (StructureKind.V, {"X", "Y", "C"}),
        (StructureKind.NABLA, {"X", "Y", "C"}),
        (StructureKind.Y, {"X", "Y", "C", "D"}),
        (StructureKind.M, {"A", "B", "X", "Y", "C"}),
        (StructureKind.LEFT_M, {"A", "X", "Y", "C"}),
        (StructureKind.RIGHT_M, {"X", "B", "Y", "C"}),
        (StructureKind.LONG_M, {"A", "B", "X", "Y", "C", "D"}),
        (StructureKind.LEFT_LONG_M, {"A", "X", "Y", "C", "D"}),
        (StructureKind.RIGHT_LONG_M, {"X", "B", "Y", "C", "D"}),
    ],
)
def test_variable_sets(kind, variables):
    assert set(variable_roles(kind).order) == variables


def test_kind_flags():
    d_kinds = {k for k in ALL_KINDS if k.has_child_d}
    assert d_kinds == {
        StructureKind.Y,
        StructureKind.LONG_M,
        StructureKind.LEFT_LONG_M,
        StructureKind.RIGHT_LONG_M,
    }
    a_kinds = {k for k in ALL_KINDS if k.has_left_a}
    assert a_kinds == {
        StructureKind.M,
        StructureKind.LEFT_M,
        StructureKind.LONG_M,
        StructureKind.LEFT_LONG_M,
    }
    b_kinds = {k for k in ALL_KINDS if k.has_right_b}
    assert b_kinds == {
        StructureKind.M,
        StructureKind.RIGHT_M,
        StructureKind.LONG_M,
        StructureKind.RIGHT_LONG_M,
    }
    extended_kinds = {k for k in ALL_KINDS if k.is_extended}
    assert extended_kinds == {
        StructureKind.M,
        StructureKind.LEFT_M,
        StructureKind.RIGHT_M,
        StructureKind.LONG_M,
        StructureKind.LEFT_LONG_M,
        StructureKind.RIGHT_LONG_M,
    }


def test_roles_v():
    roles = variable_roles(StructureKind.V)
    assert roles.parents["C"] == ("X", "Y")
    assert roles.collider_child is None
    assert roles.left_cause == "X" and roles.right_cause == "Y"


def test_roles_left_long_m():
    roles = variable_roles(StructureKind.LEFT_LONG_M)
    assert roles.parents["X"] == ("A",)
    assert roles.parents["C"] == ("A", "Y")
    assert roles.parents["D"] == ("C",)
    assert roles.roles_of("A") == {"left-cause"}
    assert roles.roles_of("X") == {"exposure"}


def test_roles_nabla():
    roles = variable_roles(StructureKind.NABLA)
    assert roles.parents["Y"] == ("X",)
    assert roles.parents["C"] == ("X", "Y")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_role_order_is_topological(kind):
    roles = variable_roles(kind)
    seen = set()
    for name in roles.order:
        assert all(parent in seen for parent in roles.parents[name])
        seen.add(name)


def test_interior_point_is_valid(uniform_v_params):
    assert validate(uniform_v_params, strict=True) is uniform_v_params


def test_out_of_range_rejected():
    with pytest.raises(OutOfRangeError) as info:
        StructureParams(
            kind=StructureKind.V,
            p_left=0.5,
            p_right=0.5,
            p_c_given=ColliderCpt(given_00=0.15, given_01=0.25, given_10=0.25, given_11=1.2),
        )
    assert "p_c_given[11]" in str(info.value)


def test_nan_rejected():
    with pytest.raises(OutOfRangeError):
        StructureParams(
            kind=StructureKind.V,
            p_left=math.nan,
            p_right=0.5,
            p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5),
        )


def test_degenerate_collider_rejected_in_strict_mode():
    params = StructureParams(
        kind=StructureKind.Y,
        p_left=0.5,
        p_right=0.5,
        p_c_given=ColliderCpt(0.0, 0.0, 0.0, 0.0),
        p_d_given_c=EdgeCpt(given_0=0.3, given_1=0.6),
    )
    with pytest.raises(DegenerateStratumError) as info:
        validate(params, strict=True)
    assert info.value.variable == "C" and info.value.level == 1


def test_strict_mode_rejects_boundary_probability(uniform_v_params):
    params = StructureParams(
        kind=StructureKind.V, p_left=0.0, p_right=0.5, p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5)
    )
    validate(params)  # lenient is fine
    with pytest.raises(OutOfRangeError) as info:
        validate(params, strict=True)
    assert str(info.value) == "p_left = 0.0 is outside (0.0, 1.0)"


def test_lenient_validate_rescans_replaced_fields(uniform_v_params):
    object.__setattr__(uniform_v_params, "p_right", 1.5)
    with pytest.raises(OutOfRangeError) as info:
        validate(uniform_v_params)
    assert str(info.value) == "p_right = 1.5 is outside [0.0, 1.0]"


def test_extra_field_rejected():
    with pytest.raises(ExtraFieldError):
        StructureParams(
            kind=StructureKind.V,
            p_left=0.5,
            p_right=0.5,
            p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5),
            p_d_given_c=EdgeCpt(0.5, 0.5),
        )


def test_missing_field_rejected():
    with pytest.raises(MissingFieldError):
        StructureParams(
            kind=StructureKind.M,
            p_left=0.5,
            p_right=0.5,
            p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5),
            p_y_given_b=EdgeCpt(0.4, 0.6),
        )


def test_nabla_rejects_p_right():
    with pytest.raises(ExtraFieldError):
        StructureParams(
            kind=StructureKind.NABLA,
            p_left=0.5,
            p_right=0.5,
            p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5),
            p_y_given_b=EdgeCpt(0.3, 0.7),
        )


def test_nabla_requires_outcome_edge():
    with pytest.raises(MissingFieldError):
        StructureParams(
            kind=StructureKind.NABLA,
            p_left=0.5,
            p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5),
        )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_json_round_trip_is_bit_identical(kind, rng):
    params = random_structure_params(kind, rng)
    assert StructureParams.from_json(params.to_json()) == params


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ParameterError):
        params_from_dict({"kind": "W", "p_left": 0.5})


def test_from_dict_rejects_extra_keys():
    with pytest.raises(ExtraFieldError):
        params_from_dict(
            {
                "kind": "V",
                "p_left": 0.5,
                "p_right": 0.5,
                "p_c_given": {"00": 0.5, "01": 0.5, "10": 0.5, "11": 0.5},
                "p_d_given_c": {"0": 0.5, "1": 0.5},
            }
        )


def test_from_dict_names_missing_collider_key():
    with pytest.raises(MissingFieldError) as info:
        params_from_dict(
            {
                "kind": "V",
                "p_left": 0.5,
                "p_right": 0.5,
                "p_c_given": {"00": 0.5, "01": 0.5, "10": 0.5},
            }
        )
    assert "p_c_given[11]" in str(info.value)


def test_collider_cpt_accessors():
    cpt = ColliderCpt(given_00=0.1, given_01=0.2, given_10=0.3, given_11=0.4)
    assert cpt.given(0, 1) == 0.2
    assert cpt.given(1, 0) == 0.3
    assert cpt.level_given(0, 1, 1) == 1.0 - 0.4


def test_implied_marginals(reference_v_params, reference_y_params):
    assert math.isclose(reference_v_params.prob_collider(1), 0.35, abs_tol=1e-15)
    # P(D=1) = P(C=1) P(D=1|C=1) + P(C=0) P(D=1|C=0) = 0.35*0.7 + 0.65*0.2
    assert math.isclose(reference_y_params.prob_child(1), 0.375, abs_tol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_random_params_are_strict(kind, rng):
    for _ in range(25):
        params = random_structure_params(kind, rng)
        assert validate(params, strict=True) is params
