"""Exact joint-distribution oracle.

Enumerates the full joint probability table of a structure (at most 2^6
cells) by multiplying the factor probabilities along its role map, then
answers any marginal/conditional query from that table alone.  Nothing in
this module knows about the closed-form bias expressions, which keeps it an
independent cross-check for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateStratumError,
    ParameterError,
    PrecisionLossError,
    SingularDesignError,
    UndefinedRatioError,
    UnknownVariableError,
)
from .structures import (
    LINEAR_MODEL,
    BiasQuery,
    Conditioning,
    LinearModel,
    Scale,
    Stratum,
    StructureKind,
    StructureParams,
    variable_roles,
)

# Null-association checks inside bias(): marginal cov/RD of X and Y must be 0
# (OR/RR must be 1) for every kind except Nabla, up to accumulated rounding.
_NULL_TOL = 1e-12

# Singular-design threshold for the two-regressor normal equations.
_SINGULAR_TOL = 1e-15


@lru_cache(maxsize=None)
def _bit_columns(n: int) -> np.ndarray:
    """Boolean matrix of shape (n, 2**n); row k is bit k of each cell index,
    with index 0 the most significant bit."""
    idx = np.arange(2**n, dtype=np.uint32)
    out = np.stack([((idx >> (n - 1 - k)) & 1).astype(bool) for k in range(n)])
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class JointTable:
    """Exact joint distribution over the structure's binary variables.

    ``mass[i]`` is the probability of the assignment whose bits (with
    ``order[0]`` as the most significant bit) spell the integer ``i``.

    The table owns its mass: construction copies it into a fresh read-only
    float64 array, so no caller's array, view or base can change it later.
    Because the mass is fixed, each derived quantity is computed once per
    table and kept in ``_memo``: the (X, Y) cells of each stratum (see
    :func:`_xy_stratum_cells`) and each ``expectation`` moment.  A repeat
    query returns the very float the first one computed, from the same masks
    and the same ``.sum()``, so memoized results are bit-identical to
    recomputed ones.
    """

    kind: StructureKind
    order: tuple[str, ...]
    mass: np.ndarray
    _bits: dict[str, np.ndarray] = field(init=False, repr=False, default_factory=dict)
    # Stratum (None for marginal) -> (p11, p10, p01, p00, p_g);
    # frozenset of names -> expectation.  The key types never compare equal.
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.order)
        if not 1 <= n <= 6:
            raise ParameterError(f"supported structures have 1..6 variables, got {n}")
        mass = np.array(self.mass, dtype=np.float64)
        if mass.shape != (2**n,):
            raise ParameterError(f"mass must have shape (2**{n},), got {mass.shape}")
        # Any NaN or infinite entry makes the sum NaN or infinite, which the
        # negated comparison rejects (NaN compares false both ways).
        if not abs(float(mass.sum()) - 1.0) <= 1e-12 or mass.min() < 0.0:
            raise ParameterError("mass must be finite, nonnegative and sum to 1")
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        columns = _bit_columns(n)
        for k, name in enumerate(self.order):
            self._bits[name] = columns[k]

    def column(self, name: str) -> np.ndarray:
        """Boolean per-cell indicator that ``name`` equals 1."""
        try:
            return self._bits[name]
        except KeyError:
            raise UnknownVariableError(name) from None

    def event_mask(self, event: dict[str, int]) -> np.ndarray:
        mask = np.ones(self.mass.shape[0], dtype=bool)
        for name, value in event.items():
            column = self.column(name)
            mask &= column if value else ~column
        return mask

    def prob(self, event: dict[str, int] | None = None) -> float:
        """Probability of a variable-assignment event; prob({}) is 1."""
        if not event:
            return float(self.mass.sum())
        return float(self.mass[self.event_mask(event)].sum())

    def expectation(self, *names: str) -> float:
        """E[product of the named indicator variables]."""
        key = frozenset(names)
        value = self._memo.get(key)
        if value is None:
            mask = np.ones(self.mass.shape[0], dtype=bool)
            for name in names:
                mask &= self.column(name)
            value = self._memo[key] = float(self.mass[mask].sum())
        return value


def build_joint(params: StructureParams) -> JointTable:
    """Multiply the factor probabilities along the role map of the kind."""
    roles = variable_roles(params.kind)
    order = roles.order
    n = len(order)
    columns = _bit_columns(n)
    bits = {name: columns[k] for k, name in enumerate(order)}

    mass = np.ones(2**n)
    for name in order:
        p1 = _prob_one(params, roles, name, bits)
        mass = mass * np.where(bits[name], p1, 1.0 - p1)
    return JointTable(kind=params.kind, order=order, mass=mass)


def _prob_one(params, roles, name, values):
    """P(name=1 | parents) given boolean arrays of the parents' values:
    a scalar for a root variable, otherwise one probability per element."""
    parents = roles.parents[name]
    if name == roles.collider:
        left, right = parents
        t = params.p_c_given
        table = np.array([t.given_00, t.given_01, t.given_10, t.given_11])
        return table[2 * values[left].astype(np.intp) + values[right]]
    if not parents:
        return params.p_left if name == roles.left_cause else params.p_right
    (parent,) = parents
    cpt = {"X": params.p_x_given_a, "Y": params.p_y_given_b, "D": params.p_d_given_c}[name]
    assert cpt is not None
    return np.where(values[parent], cpt.given_1, cpt.given_0)


@dataclass(frozen=True)
class OracleMeasure:
    """A single association measure evaluated from the joint table; a
    non-finite value raises PrecisionLossError."""

    value: float
    scale: Scale
    conditioning: Conditioning | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise PrecisionLossError(f"oracle gave non-finite {self.scale.value} = {self.value!r}")


def _xy_stratum_cells(
    table: JointTable, stratum: Stratum | None
) -> tuple[float, float, float, float, float]:
    """Joint cell probabilities of (X, Y) within the stratum (or overall).

    Returns (p11, p10, p01, p00, p_stratum) where pxy = P(X=x, Y=y, stratum).
    Memoized per table; a zero-mass stratum raises on every call.
    """
    cells = table._memo.get(stratum)
    if cells is not None:
        return cells
    x = table.column("X")
    y = table.column("Y")
    if stratum is None:
        keep = np.ones_like(x)
        p_g = 1.0
    else:
        g = table.column(stratum.variable)
        keep = g if stratum.level else ~g
        p_g = float(table.mass[keep].sum())
        if p_g <= 0.0:
            raise DegenerateStratumError(stratum.variable, stratum.level)
    m = table.mass
    p11 = float(m[x & y & keep].sum())
    p10 = float(m[x & ~y & keep].sum())
    p01 = float(m[~x & y & keep].sum())
    p00 = float(m[~x & ~y & keep].sum())
    cells = table._memo[stratum] = (p11, p10, p01, p00, p_g)
    return cells


def lm_coefficient(table: JointTable) -> float:
    """Population least-squares coefficient of X when Y is predicted from
    {1, X, G}, with G the kind's conditioning variable.

    Solves the 2x2 normal equations assembled from exact moments of the
    table; raises SingularDesignError when X and G are perfectly collinear.
    """
    g_name = table.kind.conditioning_variable
    e_x = table.expectation("X")
    e_g = table.expectation(g_name)
    e_y = table.expectation("Y")
    var_x = e_x - e_x * e_x
    var_g = e_g - e_g * e_g
    cov_xg = table.expectation("X", g_name) - e_x * e_g
    cov_xy = table.expectation("X", "Y") - e_x * e_y
    cov_gy = table.expectation(g_name, "Y") - e_g * e_y
    design = np.array([[var_x, cov_xg], [cov_xg, var_g]])
    if abs(np.linalg.det(design)) <= _SINGULAR_TOL:
        raise SingularDesignError(
            f"X and {g_name} are collinear under the joint distribution"
        )
    coef = np.linalg.solve(design, np.array([cov_xy, cov_gy]))
    return float(coef[0])


def lm_normalizer_terms(
    table: JointTable, exposure: str = "X", covariate: str | None = None
) -> tuple[float, float]:
    """Definitional terms (raw1, raw0) of the lm weight normalizer:

        raw1 = P(G=0) P(F=1, G=1) P(F=0, G=1)
        raw0 = P(G=1) P(F=1, G=0) P(F=0, G=0)

    with F the exposure and G the kind's conditioning variable unless
    overridden.  Their sum is the normalizer; each over the sum is the weight
    of that stratum's risk difference in the adjusted coefficient.
    """
    g_name = covariate or table.kind.conditioning_variable
    g1 = table.expectation(g_name)
    fg1 = table.expectation(exposure, g_name)
    f1 = table.expectation(exposure)
    raw1 = (1.0 - g1) * fg1 * (g1 - fg1)
    raw0 = g1 * (f1 - fg1) * (1.0 - f1 - g1 + fg1)
    return raw1, raw0


def lm_stratum_weights(table: JointTable) -> tuple[float, float]:
    """(w1, w0): the variance-times-size weights that average the two
    stratum risk differences into the adjusted regression coefficient,
    normalized to sum to 1.  The conditioning variable is C or D per kind.
    """
    raw1, raw0 = lm_normalizer_terms(table)
    total = raw1 + raw0
    if total <= 0.0:
        raise DegenerateStratumError(table.kind.conditioning_variable, 1 if raw1 <= 0 else 0)
    return raw1 / total, raw0 / total


def cond_measure(
    table: JointTable,
    scale: Scale,
    conditioning: Conditioning | None = None,
) -> OracleMeasure:
    """X-Y association on the requested scale, within a stratum, adjusted by
    a linear model, or marginally (conditioning=None).

    Cov is E[XY|.] - E[X|.]E[Y|.]; RD is P(Y=1|X=1,.) - P(Y=1|X=0,.); RR and
    OR are the corresponding conditional ratios.  The bias relative to the
    marginal association is formed by :func:`bias`, not here.
    """
    if isinstance(conditioning, LinearModel):
        return OracleMeasure(lm_coefficient(table), Scale.LM_COEF, conditioning)
    p11, p10, p01, p00, p_g = _xy_stratum_cells(table, conditioning)
    if scale is Scale.COV:
        e_xy = p11 / p_g
        e_x = (p11 + p10) / p_g
        e_y = (p11 + p01) / p_g
        value = e_xy - e_x * e_y
    elif scale is Scale.RD:
        if p11 + p10 <= 0.0 or p01 + p00 <= 0.0:
            raise UndefinedRatioError("P(X=x, stratum) = 0 for some x")
        value = p11 / (p11 + p10) - p01 / (p01 + p00)
    elif scale is Scale.RR:
        if p11 + p10 <= 0.0 or p01 + p00 <= 0.0:
            raise UndefinedRatioError("P(X=x, stratum) = 0 for some x")
        risk1 = p11 / (p11 + p10)
        risk0 = p01 / (p01 + p00)
        if risk0 <= 0.0 or risk1 <= 0.0:
            raise UndefinedRatioError("P(Y=1 | X=x, stratum) = 0 for some x")
        value = risk1 / risk0
    elif scale is Scale.OR:
        if p10 * p01 <= 0.0 or p11 * p00 <= 0.0:
            raise UndefinedRatioError("a zero cell makes the odds ratio undefined")
        value = (p11 * p00) / (p10 * p01)
    else:
        raise ParameterError(f"scale {scale} requires linear-model conditioning")
    return OracleMeasure(value, scale, conditioning)


def bias(table: JointTable, query: BiasQuery) -> OracleMeasure:
    """Departure of the conditional (or adjusted) association from the
    marginal one: difference on cov/RD/LM scales, ratio on RR/OR scales.

    For every kind except Nabla the collider's parents are marginally
    independent, so the marginal association is null and the bias equals the
    conditional measure; that null is checked here rather than assumed, and
    PrecisionLossError reports a table whose rounding has lost it.
    """
    query.check_valid_for(table.kind)
    if isinstance(query.conditioning, LinearModel):
        conditional = cond_measure(table, Scale.LM_COEF, LINEAR_MODEL)
        marginal = cond_measure(table, Scale.RD, None)
    else:
        conditional = cond_measure(table, query.scale, query.conditioning)
        marginal = cond_measure(table, query.scale, None)

    ratio_scale = query.scale.is_ratio and not isinstance(query.conditioning, LinearModel)
    if table.kind is not StructureKind.NABLA:
        null = 1.0 if ratio_scale else 0.0
        if abs(marginal.value - null) > _NULL_TOL:
            raise PrecisionLossError(
                f"marginal X-Y association should be null for {table.kind.value}, "
                f"got {marginal.value!r} on scale {marginal.scale.value}"
            )
    if ratio_scale:
        if marginal.value == 0.0:
            raise UndefinedRatioError("marginal association is zero")
        value = conditional.value / marginal.value
    else:
        value = conditional.value - marginal.value
    return OracleMeasure(value, conditional.scale, query.conditioning)


@dataclass(frozen=True)
class SampleTable:
    """Empirical cell counts from Monte Carlo sampling of a structure."""

    kind: StructureKind
    order: tuple[str, ...]
    counts: np.ndarray
    draws: int

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.draws


def sample(params: StructureParams, n: int, seed: int) -> SampleTable:
    """Ancestral Monte Carlo sampling of the structure, n draws.

    Deterministic per seed: a Philox counter-based generator keyed by the
    seed produces one uniform row per variable in role-map order, and each
    variable is thresholded against its conditional probability given the
    already-sampled parent columns.  This seed-to-output mapping is part of
    the package contract and stable per release.
    """
    if n < 1:
        raise ParameterError(f"draws must be >= 1, got {n}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    roles = variable_roles(params.kind)
    order = roles.order
    rng = np.random.Generator(np.random.Philox(key=seed))
    uniforms = rng.random((len(order), n))

    values: dict[str, np.ndarray] = {}
    for k, name in enumerate(order):
        values[name] = uniforms[k] < _prob_one(params, roles, name, values)

    cell = np.zeros(n, dtype=np.intp)
    for name in order:
        cell = (cell << 1) | values[name]
    counts = np.bincount(cell, minlength=2 ** len(order))
    return SampleTable(kind=params.kind, order=order, counts=counts, draws=n)
