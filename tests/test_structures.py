import dataclasses
import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np
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
from colliderbias.structures import _FIELD_TYPES, _KIND_FIELDS, _PROBABILITY_NAMES

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
    assert roles.left_cause == "X" and roles.right_cause == "Y"


def test_roles_left_long_m():
    roles = variable_roles(StructureKind.LEFT_LONG_M)
    assert roles.parents["X"] == ("A",)
    assert roles.parents["C"] == ("A", "Y")
    assert roles.parents["D"] == ("C",)


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"p_c_given": 0.5}, "p_c_given must be a ColliderCpt, got 0.5"),
        ({"p_left": "0.5"}, "p_left must be a number, got '0.5'"),
        ({"p_c_given": ColliderCpt(None, 0.5, 0.5, 0.5)}, "p_c_given[00] must be a number, got None"),
    ],
)
def test_a_field_of_the_wrong_type_is_a_parameter_error(fields, message):
    # As params_from_dict says it, not an AttributeError or a TypeError; and
    # lenient validate, which constructs again, says the same.
    good = dict(kind=StructureKind.V, p_left=0.5, p_right=0.5, p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ParameterError) as info:
        StructureParams(**{**good, **fields})
    assert str(info.value) == message
    params = StructureParams(**good)
    for name, value in fields.items():
        object.__setattr__(params, name, value)
    with pytest.raises(ParameterError) as info:
        validate(params)
    assert str(info.value) == message


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
    assert validate(uniform_v_params) is uniform_v_params
    object.__setattr__(uniform_v_params, "p_right", 1.5)
    with pytest.raises(OutOfRangeError) as info:
        validate(uniform_v_params)
    assert str(info.value) == "p_right = 1.5 is outside [0.0, 1.0]"
    # A field the kind does not take, or a required field taken away, is
    # the error construction gives, not a TypeError from a range check.
    for field, value, error in (
        ("p_x_given_a", EdgeCpt(0.3, 0.6), ExtraFieldError),
        ("p_right", None, MissingFieldError),
    ):
        params = StructureParams(
            kind=StructureKind.V, p_left=0.5, p_right=0.5, p_c_given=ColliderCpt(0.5, 0.5, 0.5, 0.5)
        )
        object.__setattr__(params, field, value)
        with pytest.raises(error) as info:
            validate(params)
        assert (info.value.kind, info.value.field) == ("V", field)


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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_params_hash_by_value_and_a_batch_by_identity(kind, rng):
    params = random_structure_params(kind, rng)
    again = StructureParams.from_json(params.to_json())
    assert again is not params and hash(again) == hash(params)
    assert {params, again} == {params}
    batches = [random_structure_params(kind, np.random.default_rng(3), 4) for _ in range(2)]
    assert len({batch: None for batch in batches * 2}) == 2


@pytest.mark.parametrize("draws", [1, 3])
def test_params_equality_agrees_with_the_hash(draws):
    # A batch compares by identity, as it hashes, even when its draws are
    # equal; one draw compares by value.
    a, b = (random_structure_params(StructureKind.V, np.random.default_rng(1), draws)
            for _ in range(2))
    assert a == a and a != b and not a == b
    assert len({a, b}) == 2 and len({a, a}) == 1
    one = random_structure_params(StructureKind.V, np.random.default_rng(1))
    assert one == StructureParams.from_json(one.to_json()) and one != a
    assert len({one, StructureParams.from_json(one.to_json())}) == 1


def test_schema_covers_every_field_in_one_order():
    order = list(_FIELD_TYPES)
    assert set(order) == {f.name for f in dataclasses.fields(StructureParams)} - {"kind"}
    for fields in _KIND_FIELDS.values():
        assert list(fields) == sorted(fields, key=order.index)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_route_follows_the_kind_schema(kind, rng):
    params = random_structure_params(kind, rng)
    fields = [name.partition("[")[0] for name in _PROBABILITY_NAMES[kind]]
    assert list(dict.fromkeys(fields)) == list(_KIND_FIELDS[kind])
    assert len(fields) == len(params.probabilities)
    assert list(params.to_dict()) == ["kind", *_KIND_FIELDS[kind]]
    assert params_from_dict(params.to_dict()) == params


def test_from_keyed_ignores_the_key_order():
    assert EdgeCpt.from_keyed({"1": 0.7, "0": 0.2}) == EdgeCpt(0.2, 0.7)
    keyed = {"11": 0.4, "01": 0.2, "10": 0.3, "00": 0.1}
    assert ColliderCpt.from_keyed(keyed) == ColliderCpt(0.1, 0.2, 0.3, 0.4)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", "parameters are not valid JSON: Expecting property name enclosed in double quotes"),
        ("[1]", "parameters must be a JSON object, got list"),
        ('"V"', "parameters must be a JSON object, got str"),
        ("null", "parameters must be a JSON object, got NoneType"),
    ],
)
def test_malformed_json_is_a_parameter_error(text, message):
    with pytest.raises(ParameterError) as info:
        StructureParams.from_json(text)
    assert str(info.value).startswith(message)
    assert not isinstance(info.value, MissingFieldError)


def test_from_dict_names_a_non_string_key():
    doc = {"kind": "V", "p_left": 0.5, "p_right": 0.5, 7: 0.5, "zz": 0.5,
           "p_c_given": {"00": 0.5, "01": 0.5, "10": 0.5, "11": 0.5}}
    with pytest.raises(ExtraFieldError, match="^structure kind V does not take field 7$"):
        params_from_dict(doc)
    doc.pop(7), doc.pop("zz")
    doc["p_c_given"][0] = 0.5
    with pytest.raises(ExtraFieldError, match=r"field p_c_given\[0\]$"):
        params_from_dict(doc)


def test_from_dict_rejects_a_non_mapping():
    with pytest.raises(ParameterError, match="^parameters must be a JSON object, got tuple$"):
        params_from_dict(("kind", "V"))


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


@pytest.mark.parametrize("level", [2, -1, 0.5])
def test_level_outside_zero_one_is_rejected(level):
    cpt = ColliderCpt(given_00=0.1, given_01=0.2, given_10=0.3, given_11=0.4)
    edge = EdgeCpt(given_0=0.25, given_1=0.75)
    with pytest.raises(ParameterError, match=f"^level must be 0 or 1, got {level}$"):
        cpt.level_given(level, 1, 0)
    with pytest.raises(ParameterError, match=f"^level must be 0 or 1, got {level}$"):
        edge.level_given(level, 1)
    with pytest.raises(ParameterError, match="^level must be 0 or 1"):
        edge.mixture(level, 0.5, 0.5)
    assert (edge.level_given(1, 1), edge.level_given(0, 1)) == (0.75, 1.0 - 0.75)


def test_implied_marginals(reference_v_params, reference_y_params):
    assert math.isclose(reference_v_params.prob_collider(1), 0.35, abs_tol=1e-15)
    # P(D=1) = P(C=1) P(D=1|C=1) + P(C=0) P(D=1|C=0) = 0.35*0.7 + 0.65*0.2
    assert math.isclose(reference_y_params.prob_child(1), 0.375, abs_tol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_random_params_are_strict(kind, rng):
    for _ in range(25):
        params = random_structure_params(kind, rng)
        assert validate(params, strict=True) is params


def test_package_exports_its_api_and_no_helper():
    import colliderbias

    exported = set(colliderbias.__all__)
    assert {"StructureParams", "build_joint", "verify_many", "closed_form"} <= exported
    assert not exported & {"types", "ModuleType", "np", "closedform", "joint"}
    assert all(hasattr(colliderbias, name) for name in exported)


# -- parse errors ------------------------------------------------------------

_LONG_M_DOC = {
    "kind": "LongM", "p_left": 0.4, "p_right": 0.6,
    "p_c_given": {"00": 0.15, "01": 0.25, "10": 0.25, "11": 0.75},
    "p_x_given_a": {"0": 0.3, "1": 0.8}, "p_y_given_b": {"0": 0.2, "1": 0.7},
    "p_d_given_c": {"0": 0.2, "1": 0.7},
}


def _edited(drop=(), entries=(), **fields):
    """The LongM document without the ``drop`` fields, with ``fields`` set,
    and with each (table, key, value) of ``entries`` set in its table; a
    value of ``...`` deletes that entry."""
    doc = {name: dict(value) if isinstance(value, dict) else value
           for name, value in _LONG_M_DOC.items() if name not in drop}
    doc.update(fields)
    for table, key, value in entries:
        if value is ...:
            del doc[table][key]
        else:
            doc[table][key] = value
    return doc


# Each malformed document with the type and message of its error.  The
# parser looks for the field an error names only when a key set differs, so
# these pin that it still names the same field, in a dict or in a proxy.
PARSE_ERRORS = {
    "extra-field": (_edited(p_extra=0.5), "ExtraFieldError",
                    "structure kind LongM does not take field p_extra"),
    "extra-non-string-field": (_edited() | {7: 0.5}, "ExtraFieldError",
                               "structure kind LongM does not take field 7"),
    "missing-field": (_edited(drop=("p_d_given_c",)), "MissingFieldError",
                      "structure kind LongM requires field p_d_given_c"),
    "missing-two-fields": (_edited(drop=("p_y_given_b", "p_right")), "MissingFieldError",
                           "structure kind LongM requires field p_right"),
    "extra-and-missing-field": (_edited(drop=("p_left",), zz=0.5), "ExtraFieldError",
                                "structure kind LongM does not take field zz"),
    "missing-kind": (_edited(drop=("kind",)), "MissingFieldError",
                     "structure kind ? requires field kind"),
    "unknown-kind": (_edited(kind="W"), "ParameterError", "unknown structure kind 'W'"),
    "extra-table-key": (_edited(entries=[("p_c_given", "12", 0.5)]), "ExtraFieldError",
                        "structure kind LongM does not take field p_c_given[12]"),
    "missing-table-key": (_edited(entries=[("p_c_given", "11", ...)]), "MissingFieldError",
                          "structure kind LongM requires field p_c_given[11]"),
    "extra-and-missing-table-key": (
        _edited(entries=[("p_c_given", "11", ...), ("p_c_given", "5", 0.5)]), "MissingFieldError",
        "structure kind LongM requires field p_c_given[11]",
    ),
    "non-string-table-key": (_edited(entries=[("p_x_given_a", 0, 0.5)]), "ExtraFieldError",
                             "structure kind LongM does not take field p_x_given_a[0]"),
    "non-string-table-key-for-a-key": (
        _edited(entries=[("p_d_given_c", "1", ...), ("p_d_given_c", 1, 0.7)]), "MissingFieldError",
        "structure kind LongM requires field p_d_given_c[1]",
    ),
    "table-is-a-list": (_edited(p_c_given=[0.15, 0.25, 0.25, 0.75]), "ParameterError",
                        "p_c_given must be an object with keys 00/01/10/11"),
    "table-is-a-number": (_edited(p_d_given_c=0.5), "ParameterError",
                          "p_d_given_c must be an object with keys 0/1"),
    "table-is-none": (_edited(p_y_given_b=None), "ParameterError",
                      "p_y_given_b must be an object with keys 0/1"),
    "bool": (_edited(p_left=True), "ParameterError", "p_left must be a number, got True"),
    "bool-entry": (_edited(entries=[("p_c_given", "01", False)]), "ParameterError",
                   "p_c_given[01] must be a number, got False"),
    "string": (_edited(p_right="0.6"), "ParameterError", "p_right must be a number, got '0.6'"),
    "string-entry": (_edited(entries=[("p_x_given_a", "1", "0.8")]), "ParameterError",
                     "p_x_given_a[1] must be a number, got '0.8'"),
    "none": (_edited(p_left=None), "ParameterError", "p_left must be a number, got None"),
    "none-entry": (_edited(entries=[("p_d_given_c", "0", None)]), "ParameterError",
                   "p_d_given_c[0] must be a number, got None"),
    "nan": (_edited(p_right=math.nan), "OutOfRangeError", "p_right = nan is outside [0.0, 1.0]"),
    "nan-entry": (_edited(entries=[("p_y_given_b", "0", math.nan)]), "OutOfRangeError",
                  "p_y_given_b[0] = nan is outside [0.0, 1.0]"),
    "inf": (_edited(p_left=math.inf), "OutOfRangeError", "p_left = inf is outside [0.0, 1.0]"),
    "minus-inf-entry": (_edited(entries=[("p_c_given", "10", -math.inf)]), "OutOfRangeError",
                        "p_c_given[10] = -inf is outside [0.0, 1.0]"),
    "above-one": (_edited(p_right=1.5), "OutOfRangeError", "p_right = 1.5 is outside [0.0, 1.0]"),
    "below-zero-entry": (_edited(entries=[("p_d_given_c", "1", -0.25)]), "OutOfRangeError",
                         "p_d_given_c[1] = -0.25 is outside [0.0, 1.0]"),
    "integer-above-one": (_edited(entries=[("p_x_given_a", "0", 2)]), "OutOfRangeError",
                          "p_x_given_a[0] = 2.0 is outside [0.0, 1.0]"),
    # A Fraction is a number, kept exact and range-checked as any other.
    "fraction-above-one": (_edited(p_left=Fraction(3, 2)), "OutOfRangeError",
                           "p_left = Fraction(3, 2) is outside [0.0, 1.0]"),
    "fraction-below-zero-entry": (_edited(entries=[("p_c_given", "00", Fraction(-1, 4))]), "OutOfRangeError",
                                  "p_c_given[00] = Fraction(-1, 4) is outside [0.0, 1.0]"),
    # A value that is not a number fails while parsing, before any range check.
    "nan-then-bool-entry": (_edited(p_left=math.nan, entries=[("p_y_given_b", "1", True)]),
                            "ParameterError", "p_y_given_b[1] must be a number, got True"),
    "nan-then-inf-entry": (_edited(p_right=math.nan, entries=[("p_c_given", "00", math.inf)]),
                           "OutOfRangeError", "p_right = nan is outside [0.0, 1.0]"),
}


def _proxied(doc):
    """``doc`` and each of its tables as read-only MappingProxyType views."""
    return MappingProxyType({key: _proxied(value) if isinstance(value, dict) else value
                             for key, value in doc.items()})


@pytest.mark.parametrize("wrap", [dict, _proxied], ids=["dict", "proxy"])
@pytest.mark.parametrize("doc, error, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_errors_are_pinned(doc, error, message, wrap):
    with pytest.raises(ParameterError) as info:
        params_from_dict(wrap(doc))
    assert (type(info.value).__name__, str(info.value)) == (error, message)


@pytest.mark.parametrize("wrap", [dict, _proxied], ids=["dict", "proxy"])
@pytest.mark.parametrize("field, key", [("p_left", None), ("p_c_given", "11")])
def test_oversized_integer_is_out_of_range(field, key, wrap):
    huge = 10**400
    doc = _edited(**{field: huge}) if key is None else _edited(entries=[(field, key, huge)])
    with pytest.raises(OutOfRangeError) as info:
        params_from_dict(wrap(doc))
    name = field if key is None else f"{field}[{key}]"
    assert str(info.value) == f"{name} = {huge!r} is outside [0.0, 1.0]"
    assert info.value.field == name


def test_integer_too_long_to_print_is_out_of_range():
    huge = 10**5000
    with pytest.raises(OutOfRangeError) as info:
        params_from_dict(_edited(p_left=huge))
    assert str(info.value) == (
        f"p_left = an integer of {huge.bit_length()} bits is outside [0.0, 1.0]"
    )


def test_overlong_integer_in_json_text_is_a_parameter_error():
    with pytest.raises(ParameterError, match="^parameters are not valid JSON: "):
        StructureParams.from_json('{"kind": "V", "p_left": 1' + "0" * 5000 + "}")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_probabilities_follow_the_schema(kind, rng):
    params = random_structure_params(kind, rng)
    # The vector and its names, rebuilt from the JSON document: its fields
    # in schema order, each table's entries in the order of its KEYS.
    names, values = [], []
    for field, value in list(params.to_dict().items())[1:]:
        table = value if isinstance(value, dict) else {None: value}
        names += [field if key is None else f"{field}[{key}]" for key in table]
        values += table.values()
    assert params.probabilities == tuple(values)
    assert _PROBABILITY_NAMES[kind] == tuple(names)
    assert all(type(value) is float for value in params.probabilities)
