"""Causal structure definitions: the nine binary-variable topologies.

Every structure has a collider C with two marginally independent causes
(except the Nabla variant, where the exposure also affects the outcome
directly).  The exposure X and outcome Y either are those causes or are
children of them; four structures add a child D of the collider.

Index convention for the collider table: ``p_c_given`` entries are keyed
(left parent value, right parent value), so ``given_01`` is
P(C=1 | left=0, right=1).  Use the named accessors; never unpack the four
probabilities positionally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache
from types import MappingProxyType
from typing import ClassVar, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DegenerateStratumError,
    ExtraFieldError,
    MissingFieldError,
    OutOfRangeError,
    ParameterError,
    raise_where,
)


class StructureKind(str, Enum):
    """The nine supported DAG topologies."""

    V = "V"                        # X -> C <- Y
    NABLA = "Nabla"                # X -> C <- Y plus X -> Y
    Y = "Y"                        # X -> C <- Y, C -> D
    M = "M"                        # A -> X, B -> Y, A -> C <- B
    LEFT_M = "LeftM"               # A -> X, A -> C <- Y
    RIGHT_M = "RightM"             # B -> Y, X -> C <- B
    LONG_M = "LongM"               # M plus C -> D
    LEFT_LONG_M = "LeftLongM"      # LeftM plus C -> D
    RIGHT_LONG_M = "RightLongM"    # RightM plus C -> D

    @property
    def has_child_d(self) -> bool:
        """True when the structure conditions on a child D of the collider."""
        return "p_d_given_c" in _KIND_FIELDS[self]

    @property
    def has_left_a(self) -> bool:
        """True when the left cause of the collider is A rather than X."""
        return "p_x_given_a" in _KIND_FIELDS[self]

    @property
    def has_right_b(self) -> bool:
        """True when the right cause of the collider is B rather than Y."""
        return self is not StructureKind.NABLA and "p_y_given_b" in _KIND_FIELDS[self]

    @property
    def is_extended(self) -> bool:
        """True when a cause of the collider is a parent of X or Y rather
        than X or Y itself: the six M-type structures."""
        return self.has_left_a or self.has_right_b

    @property
    def conditioning_variable(self) -> str:
        """The variable conditioned on: D where present, otherwise C."""
        return "D" if self.has_child_d else "C"


# The optional parameter fields each kind takes; every other per-kind rule
# (topology, validation, the JSON schema, random draws) reads this table.
# The properties above resolve it at call time, after the enum exists.  For
# Nabla, p_y_given_b holds P(Y=1 | X=x) and there is no p_right.
_KIND_FIELDS: dict[StructureKind, tuple[str, ...]] = {
    StructureKind.V: ("p_right",),
    StructureKind.NABLA: ("p_y_given_b",),
    StructureKind.Y: ("p_right", "p_d_given_c"),
    StructureKind.M: ("p_right", "p_x_given_a", "p_y_given_b"),
    StructureKind.LEFT_M: ("p_right", "p_x_given_a"),
    StructureKind.RIGHT_M: ("p_right", "p_y_given_b"),
    StructureKind.LONG_M: ("p_right", "p_x_given_a", "p_y_given_b", "p_d_given_c"),
    StructureKind.LEFT_LONG_M: ("p_right", "p_x_given_a", "p_d_given_c"),
    StructureKind.RIGHT_LONG_M: ("p_right", "p_y_given_b", "p_d_given_c"),
}


class Sign(IntEnum):
    """Direction of a bias or effect; integer values compose by product."""

    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1

    def __mul__(self, other: "Sign") -> "Sign":  # type: ignore[override]
        if not isinstance(other, int):
            return NotImplemented  # an array of sign codes multiplies elementwise
        return Sign(int(self) * int(other))

    __rmul__ = __mul__

    @property
    def label(self) -> str:
        return self.name.lower()


class Scale(str, Enum):
    """Effect scale on which an association (and its bias) is measured."""

    COV = "cov"
    RD = "rd"
    RR = "rr"
    OR = "or"
    LM_COEF = "lm"

    @property
    def is_ratio(self) -> bool:
        """True on the ratio scales (rr, or): the null point is 1 and a bias
        is a quotient, so values are compared relatively."""
        return self in (Scale.RR, Scale.OR)


@dataclass(frozen=True)
class Stratum:
    """Conditioning event ``variable = level`` with variable C or D."""

    variable: str
    level: int

    def __post_init__(self) -> None:
        if self.variable not in ("C", "D"):
            raise ParameterError(f"stratum variable must be C or D, got {self.variable!r}")
        if self.level not in (0, 1):
            raise ParameterError(f"stratum level must be 0 or 1, got {self.level!r}")

    def __str__(self) -> str:
        return f"{self.variable}={self.level}"


class LinearModel:
    """Marker for linear-regression adjustment (coefficient of X given the
    collider or its child as covariate)."""

    _instance = None

    def __new__(cls) -> "LinearModel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "LinearModel"

    def __str__(self) -> str:
        return "lm"


LINEAR_MODEL = LinearModel()

Conditioning = Stratum | LinearModel


@dataclass(frozen=True)
class BiasQuery:
    """Which bias to compute: a conditioning event plus an effect scale.

    The scale field is ignored (fixed to RD-coefficient semantics) when the
    conditioning is linear-model adjustment.
    """

    conditioning: Conditioning
    scale: Scale = Scale.RD

    def check_valid_for(self, kind: StructureKind) -> None:
        """Reject conditioning events not defined for this structure."""
        if isinstance(self.conditioning, Stratum):
            want = kind.conditioning_variable
            if self.conditioning.variable != want:
                raise ParameterError(
                    f"{kind.value} conditions on {want}, not "
                    f"{self.conditioning.variable}"
                )
            if self.scale is Scale.LM_COEF:
                raise ParameterError("lm scale requires linear-model conditioning")


@dataclass(frozen=True)
class ColliderCpt:
    """P(C=1 | left parent, right parent).

    Field suffix is (left value, right value): ``given_01`` is the entry for
    left=0, right=1.  The matching JSON keys are ``KEYS``.  A field may be a
    float64 array; the lookups, and the sign-grid closed forms built on them
    (``cross_product_difference``, ``child_contrast``, ``lm_kernel``), are
    then evaluated elementwise.
    """

    KEYS: ClassVar[tuple[str, ...]] = ("00", "01", "10", "11")

    given_00: float
    given_01: float
    given_10: float
    given_11: float

    def given(self, left: int, right: int) -> float:
        """P(C=1 | left, right)."""
        return (
            (self.given_11 if right else self.given_10)
            if left
            else (self.given_01 if right else self.given_00)
        )

    def level_given(self, c: int, left: int, right: int) -> float:
        """P(C=c | left, right)."""
        p1 = self.given(left, right)
        return p1 if c == 1 else 1.0 - p1

    def items(self) -> Iterator[tuple[str, float]]:
        return zip(self.KEYS, (self.given_00, self.given_01, self.given_10, self.given_11))


@dataclass(frozen=True)
class EdgeCpt:
    """P(child=1 | parent) along a single edge; the JSON keys are ``KEYS``."""

    KEYS: ClassVar[tuple[str, ...]] = ("0", "1")

    given_0: float
    given_1: float

    def given(self, parent: int) -> float:
        return self.given_1 if parent else self.given_0

    def level_given(self, value: int, parent: int) -> float:
        p1 = self.given(parent)
        return p1 if value == 1 else 1.0 - p1

    @property
    def risk_difference(self) -> float:
        return self.given_1 - self.given_0

    def items(self) -> Iterator[tuple[str, float]]:
        return zip(self.KEYS, (self.given_0, self.given_1))


@dataclass(frozen=True)
class RoleMap:
    """Variables of a structure, their parents, and their roles.

    ``order`` is a topological order of the DAG; ``parents`` maps each
    variable to its parent tuple.
    """

    kind: StructureKind
    order: tuple[str, ...]
    parents: Mapping[str, tuple[str, ...]]
    exposure: str
    outcome: str
    collider: str
    left_cause: str
    right_cause: str
    collider_child: str | None

    def roles_of(self, variable: str) -> frozenset[str]:
        holders = {
            "exposure": self.exposure,
            "outcome": self.outcome,
            "collider": self.collider,
            "collider-child": self.collider_child,
            "left-cause": self.left_cause,
            "right-cause": self.right_cause,
        }
        return frozenset(role for role, holder in holders.items() if holder == variable)


@lru_cache(maxsize=None)
def variable_roles(kind: StructureKind) -> RoleMap:
    """Role map for one of the nine structure kinds, built once per kind.

    The left cause of the collider is A when present, otherwise X; the right
    cause is B when present, otherwise Y.  In the Nabla structure X is also
    a parent of Y (the direct exposure-outcome edge).
    """
    left = "A" if kind.has_left_a else "X"
    right = "B" if kind.has_right_b else "Y"
    # Inserted in topological order, which is the role map's order.
    parents: dict[str, tuple[str, ...]] = {left: ()}
    if kind.has_right_b:
        parents["B"] = ()
    if kind.has_left_a:
        parents["X"] = ("A",)
    parents["Y"] = ("X",) if kind is StructureKind.NABLA else ("B",) if kind.has_right_b else ()
    parents["C"] = (left, right)
    if kind.has_child_d:
        parents["D"] = ("C",)

    return RoleMap(
        kind=kind,
        order=tuple(parents),
        parents=MappingProxyType(parents),
        exposure="X",
        outcome="Y",
        collider="C",
        left_cause=left,
        right_cause=right,
        collider_child="D" if kind.has_child_d else None,
    )


def check_probabilities(
    items: Iterable[tuple[str, str | None, float]], open_interval: bool = False
) -> None:
    """Raise OutOfRangeError for the first (field, key, value) whose value is
    outside [0, 1], or outside (0, 1) with ``open_interval``; NaN fails both.
    The error names ``field``, or ``field[key]`` for a table entry, built
    only when raising.  A value may be an array over a batch of draws."""
    for field, key, value in items:
        if type(value) is float and (0.0 < value < 1.0 if open_interval else 0.0 <= value <= 1.0):
            continue  # the common case, without the elementwise form below
        inside = (0.0 < value) & (value < 1.0) if open_interval else (0.0 <= value) & (value <= 1.0)
        name = field if key is None else f"{field}[{key}]"
        raise_where(~np.asarray(inside), lambda v: OutOfRangeError(name, v, open_interval), value)


# The single-edge tables among the optional fields, in draw order.
_CONDITIONAL_FIELDS = ("p_x_given_a", "p_y_given_b", "p_d_given_c")


@dataclass(frozen=True)
class StructureParams:
    """Full parameterization of one structure instance.

    ``p_left`` and ``p_right`` are the marginal probabilities of the
    collider's left and right causes (P(X=1) or P(A=1), and P(Y=1) or
    P(B=1)).  For the Nabla structure the outcome is endogenous, so
    ``p_right`` must be absent and ``p_y_given_b`` holds P(Y=1 | X=x)
    instead of P(Y=1 | B=b).

    Construction performs lenient validation: every probability must lie in
    [0, 1] and fields not applicable to the kind must be absent.  Use
    :func:`validate` with ``strict=True`` to additionally require interior
    probabilities and non-degenerate C and D strata.  A batch, such as
    :func:`random_structure_params` draws with a draw count, holds one kind's
    draws with every probability an array over them, checked elementwise.
    """

    kind: StructureKind
    p_left: float
    p_c_given: ColliderCpt
    p_right: float | None = None
    p_x_given_a: EdgeCpt | None = None
    p_y_given_b: EdgeCpt | None = None
    p_d_given_c: EdgeCpt | None = None

    def __post_init__(self) -> None:
        fields = _KIND_FIELDS[self.kind]
        for field_name in ("p_right", *_CONDITIONAL_FIELDS):
            value = getattr(self, field_name)
            if field_name in fields and value is None:
                raise MissingFieldError(self.kind.value, field_name)
            if field_name not in fields and value is not None:
                raise ExtraFieldError(self.kind.value, field_name)
        check_probabilities(self._probability_items())

    def _probability_items(self) -> Iterator[tuple[str, str | None, float]]:
        """(field, table key or None, value) for every probability."""
        yield "p_left", None, self.p_left
        if self.p_right is not None:
            yield "p_right", None, self.p_right
        for key, value in self.p_c_given.items():
            yield "p_c_given", key, value
        for field_name in _CONDITIONAL_FIELDS:
            cpt = getattr(self, field_name)
            if cpt is not None:
                for key, value in cpt.items():
                    yield field_name, key, value

    # -- implied marginals -------------------------------------------------

    def prob_collider(self, c: int) -> float:
        """P(C=c) implied by the parameterization.

        For Nabla the right cause is Y, which depends on the left cause X
        through p_y_given_b; elsewhere the two causes are independent.
        """
        total = 0.0
        for left in (0, 1):
            pl = self.p_left if left else 1.0 - self.p_left
            for right in (0, 1):
                if self.p_right is not None:
                    pr = self.p_right if right else 1.0 - self.p_right
                else:
                    assert self.p_y_given_b is not None
                    pr = self.p_y_given_b.level_given(right, left)
                total += pl * pr * self.p_c_given.level_given(c, left, right)
        return total

    def prob_child(self, d: int) -> float:
        """P(D=d) implied by the parameterization (kinds with a child D)."""
        if self.p_d_given_c is None:
            raise MissingFieldError(self.kind.value, "p_d_given_c")
        pc1 = self.prob_collider(1)
        return pc1 * self.p_d_given_c.level_given(d, 1) + (1.0 - pc1) * self.p_d_given_c.level_given(d, 0)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {
            "kind": self.kind.value,
            "p_left": self.p_left,
            "p_c_given": dict(self.p_c_given.items()),
        }
        if self.p_right is not None:
            doc["p_right"] = self.p_right
        for field_name in _CONDITIONAL_FIELDS:
            cpt = getattr(self, field_name)
            if cpt is not None:
                doc[field_name] = dict(cpt.items())
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "StructureParams":
        return params_from_dict(json.loads(text))


def _float_field(doc: Mapping, field: str, label: str | None = None) -> float:
    """``doc[field]`` as a float; ``label`` names it in the error."""
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OutOfRangeError(label or field, value)
    return float(value)


def _table_fields(doc: Mapping, field: str, kind: str, keys: tuple[str, ...]) -> dict:
    """The keyed probability table ``doc[field]`` as CPT constructor
    arguments: key "01" becomes ``given_01``."""
    table = doc[field]
    if not isinstance(table, Mapping):
        raise ParameterError(f"{field} must be an object with keys {'/'.join(keys)}")
    missing = set(keys) - set(table)
    if missing:
        raise MissingFieldError(kind, f"{field}[{sorted(missing)[0]}]")
    extra = set(table) - set(keys)
    if extra:
        raise ExtraFieldError(kind, f"{field}[{sorted(extra)[0]}]")
    return {f"given_{key}": _float_field(table, key, f"{field}[{key}]") for key in keys}


def params_from_dict(doc: Mapping) -> StructureParams:
    """Parse the JSON parameter schema into a validated StructureParams."""
    if "kind" not in doc:
        raise MissingFieldError("?", "kind")
    try:
        kind = StructureKind(doc["kind"])
    except ValueError:
        raise ParameterError(f"unknown structure kind {doc['kind']!r}") from None
    fields = _KIND_FIELDS[kind]
    allowed = {"kind", "p_left", "p_c_given", *fields}
    extra = set(doc) - allowed
    if extra:
        raise ExtraFieldError(kind.value, sorted(extra)[0])
    missing = allowed - set(doc)
    if missing:
        raise MissingFieldError(kind.value, sorted(missing)[0])

    kwargs: dict = {
        "kind": kind,
        "p_left": _float_field(doc, "p_left"),
        "p_c_given": ColliderCpt(
            **_table_fields(doc, "p_c_given", kind.value, ColliderCpt.KEYS)
        ),
    }
    for field_name in fields:
        if field_name == "p_right":
            kwargs[field_name] = _float_field(doc, field_name)
        else:
            kwargs[field_name] = EdgeCpt(**_table_fields(doc, field_name, kind.value, EdgeCpt.KEYS))
    return StructureParams(**kwargs)


def validate(params: StructureParams, strict: bool = False) -> StructureParams:
    """Check parameter invariants, returning the params unchanged on success.

    Lenient mode repeats the construction-time checks (range and field
    presence).  Strict mode additionally requires every probability to lie in
    the open interval (0, 1) and both collider strata -- and child strata,
    where applicable -- to have positive implied probability, so that all
    conditional quantities used by the ratio scales exist.
    """
    # Frozen dataclass construction already ran the lenient checks; re-run the
    # range scan so hand-built subclasses or replaced fields cannot slip by.
    check_probabilities(params._probability_items())
    if not strict:
        return params
    for c in (0, 1):
        if params.prob_collider(c) <= 0.0:
            raise DegenerateStratumError("C", c)
    if params.kind.has_child_d:
        for d in (0, 1):
            if params.prob_child(d) <= 0.0:
                raise DegenerateStratumError("D", d)
    check_probabilities(params._probability_items(), open_interval=True)
    return params


def random_structure_params(
    kind: StructureKind, rng: np.random.Generator, draws: int | None = None
) -> StructureParams:
    """Draw a random strictly-valid parameter set for ``kind``, or with
    ``draws`` a batch of that many, each row the same as the next single draw.

    Every probability is uniform on [0.05, 0.95], which keeps all implied
    strata safely non-degenerate.  All fields come from one ``rng.uniform``
    call whose columns are in a fixed order -- p_left, p_right (when
    applicable), the four collider entries in key order 00/01/10/11, then
    p_x_given_a, p_y_given_b, p_d_given_c (each 0 then 1) -- so a parameter
    set is reproducible from the generator state alone.  A single draw's
    fields are floats; a batch's are contiguous (draws,) arrays.
    """
    fields = _KIND_FIELDS[kind]
    edges = [name for name in _CONDITIONAL_FIELDS if name in fields]
    width = 5 + ("p_right" in fields) + 2 * len(edges)
    if draws is None:
        columns = iter(rng.uniform(0.05, 0.95, size=width).tolist())
    elif not isinstance(draws, int) or draws < 1:
        raise ParameterError(f"draws must be an int >= 1, got {draws!r}")
    else:
        columns = iter(np.ascontiguousarray(rng.uniform(0.05, 0.95, size=(draws, width)).T))
    kwargs: dict = {"kind": kind, "p_left": next(columns)}
    if "p_right" in fields:
        kwargs["p_right"] = next(columns)
    kwargs["p_c_given"] = ColliderCpt(next(columns), next(columns), next(columns), next(columns))
    for field_name in edges:
        kwargs[field_name] = EdgeCpt(next(columns), next(columns))
    return StructureParams(**kwargs)
