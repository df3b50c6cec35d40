"""Causal structure definitions: the nine binary-variable topologies.

Every structure has a collider C with two marginally independent causes
(except the Nabla variant, where the exposure also affects the outcome
directly).  The exposure X and outcome Y either are those causes or are
children of them; four structures add a child D of the collider.

As data the kinds differ only in their parameter fields: ``_KIND_FIELDS``
lists each kind's fields in one order, ``_FIELD_TYPES`` gives each field's
type, and ``_PROBABILITY_NAMES`` names each probability of a kind in that
order; every consumer of the fields reads these three tables.

Index convention for the collider table: ``p_c_given`` entries are keyed
(left parent value, right parent value), so ``given_01`` is
P(C=1 | left=0, right=1).  Use the named accessors; never unpack the four
probabilities positionally.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from functools import lru_cache, update_wrapper
from types import MappingProxyType
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator

from .errors import (
    DegenerateStratumError,
    ExtraFieldError,
    MissingFieldError,
    OutOfRangeError,
    ParameterError,
    raise_where,
)

if TYPE_CHECKING:
    import numpy as np


# The wrapper that batch_memo compiles for a function with the positional
# parameters ``params``: ``first`` and then ``others``.
_MEMO_SOURCE = """\
def memoized({params}):
    memo = {first}._memo
    if memo is None:
        return function({params})
    key = (function, {others})
    value = memo.get(key)
    if value is None:
        value = memo[key] = _read_only(function({params}))
    return value
"""


def batch_memo(function):
    """Keep each result of ``function`` on a batch, in the memo of its first
    argument: a StructureParams or a probability table, whose ``_memo`` is a
    dict on a batch and None on one draw.  The key is the function and its
    other arguments.  Every array a kept result holds is made read-only; a
    call that raises keeps nothing, so it raises again on every call.  One
    draw keeps nothing and pays one attribute test: the wrapper, compiled
    here, takes the function's own positional parameters, so that no call
    packs or unpacks its arguments."""
    code = function.__code__
    names = code.co_varnames[: code.co_argcount]
    others = "".join(f"{name}, " for name in names[1:])
    source = _MEMO_SOURCE.format(params=names[0] + ", " + others, first=names[0], others=others)
    namespace = {"function": function, "_read_only": _read_only}
    exec(source, namespace)  # the source holds only the function's parameter names
    return update_wrapper(namespace["memoized"], function)


def _read_only(value):
    """``value``, with every array in it made read-only: an array, a tuple
    of them, or a closed-form report's value, sign and factors."""
    if isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif hasattr(value, "setflags"):
        value.setflags(write=False)
    elif hasattr(value, "factors"):
        _read_only((value.value, value.sign, *value.factors.values()))
    return value


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


class _Cpt:
    """P(child=1 | parents): one field per parent assignment, in the order
    of ``KEYS``, the table's JSON keys.  A table of a batch StructureParams
    keeps a memo (:func:`batch_memo`); any other keeps none."""

    KEYS: ClassVar[tuple[str, ...]]
    _memo = None

    @classmethod
    def from_keyed(cls, keyed: Mapping[str, float]):
        """The table whose entry for each of ``KEYS`` is ``keyed[key]``."""
        return cls(*[keyed[key] for key in cls.KEYS])

    def values(self) -> tuple:
        """The entries, in the order of ``KEYS``."""
        raise NotImplementedError

    def items(self) -> Iterator[tuple[str, float]]:
        return zip(self.KEYS, self.values())


@dataclass(frozen=True)
class ColliderCpt(_Cpt):
    """P(C=1 | left parent, right parent).

    Field suffix is (left value, right value): ``given_01`` is the entry for
    left=0, right=1.  A field may be a float64 array; the lookups, and the
    sign-grid closed forms built on them (``cross_product_difference``,
    ``child_contrast``, ``lm_kernel``), are then evaluated elementwise.
    """

    KEYS = ("00", "01", "10", "11")

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
        """P(C=c | left, right); a level other than 0 or 1 is a ParameterError."""
        if c == 1:
            return self.given(left, right)
        if c == 0:
            return 1.0 - self.given(left, right)
        raise ParameterError(f"level must be 0 or 1, got {c!r}")

    def values(self) -> tuple:
        return self.given_00, self.given_01, self.given_10, self.given_11


@dataclass(frozen=True)
class EdgeCpt(_Cpt):
    """P(child=1 | parent) along a single edge."""

    KEYS = ("0", "1")

    given_0: float
    given_1: float

    def given(self, parent: int) -> float:
        return self.given_1 if parent else self.given_0

    def level_given(self, value: int, parent: int) -> float:
        """P(child=value | parent); a value other than 0 or 1 is a ParameterError."""
        if value == 1:
            return self.given(parent)
        if value == 0:
            return 1.0 - self.given(parent)
        raise ParameterError(f"level must be 0 or 1, got {value!r}")

    def mixture(self, value: int, w1: float, w0: float) -> float:
        """P(child=value) with the parent at 1 by weight w1 and at 0 by weight w0."""
        return w1 * self.level_given(value, 1) + w0 * self.level_given(value, 0)

    @property
    def risk_difference(self) -> float:
        return self.given_1 - self.given_0

    def values(self) -> tuple:
        return self.given_0, self.given_1


# Every parameter field of each kind, in the one order that validation,
# range scans, JSON, random draws and the CLI use; the StructureKind
# properties read it too.  For Nabla, p_y_given_b holds P(Y=1 | X=x).
_KIND_FIELDS: dict[StructureKind, tuple[str, ...]] = {
    StructureKind.V: ("p_left", "p_right", "p_c_given"),
    StructureKind.NABLA: ("p_left", "p_c_given", "p_y_given_b"),
    StructureKind.Y: ("p_left", "p_right", "p_c_given", "p_d_given_c"),
    StructureKind.M: ("p_left", "p_right", "p_c_given", "p_x_given_a", "p_y_given_b"),
    StructureKind.LEFT_M: ("p_left", "p_right", "p_c_given", "p_x_given_a"),
    StructureKind.RIGHT_M: ("p_left", "p_right", "p_c_given", "p_y_given_b"),
    StructureKind.LONG_M: (
        "p_left", "p_right", "p_c_given", "p_x_given_a", "p_y_given_b", "p_d_given_c"
    ),
    StructureKind.LEFT_LONG_M: ("p_left", "p_right", "p_c_given", "p_x_given_a", "p_d_given_c"),
    StructureKind.RIGHT_LONG_M: ("p_left", "p_right", "p_c_given", "p_y_given_b", "p_d_given_c"),
}

# The type of every parameter field, in schema order: one probability
# (float), or a table of them keyed by the table class's KEYS.
_FIELD_TYPES: dict[str, type] = {
    "p_left": float, "p_right": float, "p_c_given": ColliderCpt,
    "p_x_given_a": EdgeCpt, "p_y_given_b": EdgeCpt, "p_d_given_c": EdgeCpt,
}

# The name of every probability of each kind, in schema order: a float
# field is named as itself, a table's entries ``field[key]`` in KEYS order.
# Range errors give these names, and the joint table finds places by them.
_PROBABILITY_NAMES: dict[StructureKind, tuple[str, ...]] = {
    kind: tuple(
        f"{field}[{key}]" if key else field
        for field in fields
        for key in getattr(_FIELD_TYPES[field], "KEYS", ("",))
    )
    for kind, fields in _KIND_FIELDS.items()
}

# The keys of each kind's parameter document, and of each table, as sets:
# the parser compares a document's keys with these, and looks for the field
# an error names only when they differ.
_DOC_KEYS = {kind: frozenset({"kind", *fields}) for kind, fields in _KIND_FIELDS.items()}
_TABLE_KEYS = {table_type: frozenset(table_type.KEYS) for table_type in (ColliderCpt, EdgeCpt)}


@dataclass(frozen=True)
class RoleMap:
    """Variables of a structure, their parents, and the collider's causes.

    ``order`` is a topological order of the DAG; ``parents`` maps each
    variable to its parent tuple.  In every kind the exposure is X, the
    outcome Y and the collider C; the collider's child, where the kind has
    one (``kind.has_child_d``), is D.
    """

    kind: StructureKind
    order: tuple[str, ...]
    parents: Mapping[str, tuple[str, ...]]
    left_cause: str
    right_cause: str


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
        left_cause=left,
        right_cause=right,
    )


def check_probabilities(items: Iterable[tuple[str, float]], open_interval: bool = False) -> None:
    """Raise OutOfRangeError, naming ``name``, for the first (name, value)
    whose value is outside [0, 1], or outside (0, 1) with ``open_interval``;
    NaN fails both.  A value may be an array over a batch of draws."""
    for name, value in items:
        if type(value) is float and (0.0 < value < 1.0 if open_interval else 0.0 <= value <= 1.0):
            continue  # the common case, without the elementwise form below
        try:
            inside = (0.0 < value) & (value < 1.0) if open_interval else (0.0 <= value) & (value <= 1.0)
        except TypeError:  # a string, None, a list: no number compares with it
            raise ParameterError(f"{name} must be a number, got {value!r}") from None
        bad = ~inside if getattr(inside, "ndim", 0) else not inside
        raise_where(bad, lambda v: OutOfRangeError(name, v, open_interval), value)


def _check_batch_probabilities(names: tuple[str, ...], values: list) -> None:
    """:func:`check_probabilities` of a batch's probabilities ``values``, named
    ``names``: the values are stacked and tested against [0, 1] at once, and
    searched name by name only when that fails (a NaN fails it) or when they
    do not stack into one float array."""
    import numpy as np

    try:
        stacked = np.array(values)
    except ValueError:  # arrays of different shapes, or arrays beside numbers
        stacked = None
    if stacked is None or stacked.dtype != np.float64 or not (0.0 <= stacked.min() and stacked.max() <= 1.0):
        check_probabilities(zip(names, values))


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
    A batch, and each of its tables, keeps the closed-form pieces asked of
    it (:func:`batch_memo`), so its arrays must not change once it is built.

    Construction also sets ``probabilities``: every probability in schema
    order (the kind's fields in ``_KIND_FIELDS`` order, each table's entries
    in ``KEYS`` order, named in ``_PROBABILITY_NAMES``), the one vector the
    joint table and the sampler read.
    """

    kind: StructureKind
    p_left: float
    p_c_given: ColliderCpt
    p_right: float | None = None
    p_x_given_a: EdgeCpt | None = None
    p_y_given_b: EdgeCpt | None = None
    p_d_given_c: EdgeCpt | None = None

    _memo = None  # a dict on a batch, set by construction: see batch_memo

    def __post_init__(self) -> None:
        fields = _KIND_FIELDS[self.kind]
        probabilities: list = []
        for field_name, field_type in _FIELD_TYPES.items():
            value = getattr(self, field_name)
            if (value is None) == (field_name in fields):
                raise (MissingFieldError if value is None else ExtraFieldError)(self.kind.value, field_name)
            if value is None:
                continue
            if field_type is float:
                probabilities.append(value)
            elif type(value) is field_type:
                probabilities += value.values()
            else:
                raise ParameterError(f"{field_name} must be a {field_type.__name__}, got {value!r}")
        object.__setattr__(self, "probabilities", tuple(probabilities))
        if type(self.p_left) is float or not getattr(self.p_left, "ndim", 0):
            check_probabilities(zip(_PROBABILITY_NAMES[self.kind], probabilities))
            return
        _check_batch_probabilities(_PROBABILITY_NAMES[self.kind], probabilities)
        # A batch, and each of its tables, keeps a memo; a table that another
        # batch holds too keeps the one it has, as its entries are the same.
        object.__setattr__(self, "_memo", {})
        for field_name in fields:
            value = getattr(self, field_name)
            if _FIELD_TYPES[field_name] is not float and value._memo is None:
                object.__setattr__(value, "_memo", {})

    def __hash__(self) -> int:
        # One draw hashes by value.  A batch's arrays have no hash, so a
        # batch hashes by identity: it can key a dict or a set all the same.
        if getattr(self.p_left, "ndim", 0):
            return object.__hash__(self)
        return hash((self.kind, self.probabilities))

    def __eq__(self, other: object) -> bool:
        # As the hash: one draw by value, a batch by identity.
        if other.__class__ is not self.__class__:
            return NotImplemented
        if getattr(self.p_left, "ndim", 0) or getattr(other.p_left, "ndim", 0):
            return self is other
        return self.kind is other.kind and self.probabilities == other.probabilities

    # -- implied marginals -------------------------------------------------

    @batch_memo
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

    @batch_memo
    def prob_child(self, d: int) -> float:
        """P(D=d) implied by the parameterization (kinds with a child D)."""
        if self.p_d_given_c is None:
            raise MissingFieldError(self.kind.value, "p_d_given_c")
        pc1 = self.prob_collider(1)
        return self.p_d_given_c.mixture(d, pc1, 1.0 - pc1)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value}
        for field_name in _KIND_FIELDS[self.kind]:
            value = getattr(self, field_name)
            doc[field_name] = value if _FIELD_TYPES[field_name] is float else dict(value.items())
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "StructureParams":
        try:
            doc = json.loads(text)
        except ValueError as exc:  # bad JSON, or an integer too long to read
            raise ParameterError(f"parameters are not valid JSON: {exc}") from None
        return params_from_dict(doc)


def _float_field(doc: Mapping, key: str, table: str | None = None) -> float:
    """``doc[key]`` as a float, or a ``fractions.Fraction`` kept exact; the
    error names it ``key``, or ``table[key]`` for an entry of that table.  A
    value that is not an int, a float or a Fraction (a string, a bool or null
    in JSON) is not a number; an integer too large for a double is out of
    range.  Fraction is looked up in ``sys.modules``, so start-up imports none."""
    value = doc[key]
    if type(value) is float or isinstance(value, getattr(sys.modules.get("fractions"), "Fraction", ())):
        return value
    name = key if table is None else f"{table}[{key}]"
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise OutOfRangeError(name, value) from None


def _table_fields(doc: Mapping, field: str, kind: str, table_type: type[_Cpt]) -> _Cpt:
    """The keyed probability table ``doc[field]`` as a ``table_type``."""
    table, keys = doc[field], table_type.KEYS
    if type(table) is not dict and not isinstance(table, Mapping):
        raise ParameterError(f"{field} must be an object with keys {'/'.join(keys)}")
    if table.keys() != _TABLE_KEYS[table_type]:
        missing = set(keys) - set(table)
        if missing:
            raise MissingFieldError(kind, f"{field}[{sorted(missing)[0]}]")
        extra = set(table) - set(keys)
        if extra:
            raise ExtraFieldError(kind, f"{field}[{sorted(extra, key=str)[0]}]")
    return table_type(*[_float_field(table, key, field) for key in keys])


def params_from_dict(doc: Mapping) -> StructureParams:
    """Parse the JSON parameter schema into a validated StructureParams.  A
    plain dict, what ``json`` gives, is told from other mappings without the
    ``Mapping`` ABC's check."""
    if type(doc) is not dict and not isinstance(doc, Mapping):
        raise ParameterError(f"parameters must be a JSON object, got {type(doc).__name__}")
    if "kind" not in doc:
        raise MissingFieldError("?", "kind")
    try:
        kind = StructureKind(doc["kind"])
    except ValueError:
        raise ParameterError(f"unknown structure kind {doc['kind']!r}") from None
    fields, keys, name = _KIND_FIELDS[kind], _DOC_KEYS[kind], kind.value
    if doc.keys() != keys:
        extra = set(doc) - keys
        if extra:
            raise ExtraFieldError(name, sorted(extra, key=str)[0])
        missing = keys - set(doc)
        if missing:
            raise MissingFieldError(name, sorted(missing)[0])
    kwargs: dict = {"kind": kind}
    for field_name in fields:
        field_type = _FIELD_TYPES[field_name]
        if field_type is float:
            kwargs[field_name] = _float_field(doc, field_name)
        else:
            kwargs[field_name] = _table_fields(doc, field_name, name, field_type)
    return StructureParams(**kwargs)


def validate(params: StructureParams, strict: bool = False) -> StructureParams:
    """Check parameter invariants, returning the params unchanged on success.

    Lenient mode constructs the params again from their fields, so that it
    runs every construction-time check (field presence and range) on a
    field replaced after construction too.  Strict mode additionally
    requires every probability to lie in the open interval (0, 1) and both
    collider strata -- and child strata, where applicable -- to have
    positive implied probability, so that all conditional quantities used by
    the ratio scales exist.
    """
    probabilities = replace(params).probabilities  # constructed again, which runs __post_init__
    if not strict:
        return params
    for c in (0, 1):
        if params.prob_collider(c) <= 0.0:
            raise DegenerateStratumError("C", c)
    if params.kind.has_child_d:
        for d in (0, 1):
            if params.prob_child(d) <= 0.0:
                raise DegenerateStratumError("D", d)
    check_probabilities(zip(_PROBABILITY_NAMES[params.kind], probabilities), open_interval=True)
    return params


def random_structure_params(
    kind: StructureKind, rng: np.random.Generator, draws: int | None = None
) -> StructureParams:
    """Draw a random strictly-valid parameter set for ``kind``, or with
    ``draws`` a batch of that many, each row the same as the next single draw.

    Every probability is uniform on [0.05, 0.95], which keeps all implied
    strata safely non-degenerate.  All fields come from one ``rng.uniform``
    call whose columns are the kind's fields in schema order (p_left,
    p_right, p_c_given, then p_x_given_a, p_y_given_b, p_d_given_c where the
    kind has them), each table's entries in ``KEYS`` order, so a parameter
    set is reproducible from the generator state alone.  A single draw's
    fields are floats; a batch's are contiguous (draws,) arrays.
    """
    fields = _KIND_FIELDS[kind]
    width = len(_PROBABILITY_NAMES[kind])
    if draws is None:
        columns = iter(rng.uniform(0.05, 0.95, size=width).tolist())
    elif not isinstance(draws, int) or draws < 1:
        raise ParameterError(f"draws must be an int >= 1, got {draws!r}")
    else:
        import numpy as np

        columns = iter(np.ascontiguousarray(rng.uniform(0.05, 0.95, size=(draws, width)).T))
    kwargs: dict = {"kind": kind}
    for field_name in fields:
        field_type = _FIELD_TYPES[field_name]
        if field_type is float:
            kwargs[field_name] = next(columns)
        else:
            kwargs[field_name] = field_type(*[next(columns) for _ in field_type.KEYS])
    return StructureParams(**kwargs)
