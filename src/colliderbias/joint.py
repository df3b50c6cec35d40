"""Exact joint-distribution oracle.

Enumerates the full joint probability table of a structure (at most 2^6
cells) by multiplying the factor probabilities along its role map, then
answers any marginal/conditional query from that table alone.  Nothing in
this module knows about the closed-form bias expressions, which keeps it an
independent cross-check for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateStratumError,
    ParameterError,
    PrecisionLossError,
    SingularDesignError,
    UndefinedRatioError,
    UnknownVariableError,
    raise_if_nonfinite,
    raise_where,
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


@lru_cache(maxsize=None)
def _cell_index(order: tuple[str, ...], events: tuple[tuple[tuple[str, int], ...], ...]) -> np.ndarray:
    """Cell indices of a table over ``order``, one row per event: row i
    lists, ascending, the cells where every (name, value) of events[i]
    holds.  The events must each hold on equally many cells."""
    columns = dict(zip(order, _bit_columns(len(order))))
    rows = []
    for event in events:
        keep = np.ones(2 ** len(order), dtype=bool)
        for name, value in event:
            if name not in columns:
                raise UnknownVariableError(name)
            keep &= columns[name] if value else ~columns[name]
        rows.append(np.flatnonzero(keep))
    index = np.array(rows)
    index.setflags(write=False)
    return index


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, of at most 128 terms, in the order in which
    ``ndarray.sum`` adds a contiguous 1-D float64 array, so that each entry
    is bit-identical to its row's own ``.sum()``: a left fold below 8 terms;
    otherwise eight running sums started at the first 8 terms, each further
    block of 8 added in, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and
    the tail folded in.  A tier-1 test pins this against ``ndarray.sum``."""
    k = terms.shape[-1]
    if k < 8:
        total, tail = terms[..., 0], 1
    else:
        r = terms[..., :8]
        tail = k - k % 8
        for i in range(8, tail, 8):
            r = r + terms[..., i : i + 8]
        r = r[..., 0::2] + r[..., 1::2]
        r = r[..., 0::2] + r[..., 1::2]
        total = r[..., 0] + r[..., 1]
    for j in range(tail, k):
        total = total + terms[..., j]
    return total


@dataclass(frozen=True, eq=False)
class JointTable:
    """Exact joint distribution over the structure's binary variables.

    ``mass[i]`` is the probability of the assignment whose bits (with
    ``order[0]`` as the most significant bit) spell the integer ``i``.  A
    batch of B tables of one kind (:func:`build_joint_batch`) has mass of
    shape (B, 2**n); every query then answers with a (B,) array whose entries
    are bit-identical to the floats each row's own table gives.

    The table owns its mass: construction copies it into a fresh read-only
    float64 array, so no caller's array, view or base can change it later.
    Queries sum the cells of an event through index arrays cached per
    (variable order, event) with :func:`ordered_sum`, except that
    :meth:`prob` on one table uses ``.sum()``, which gives the same bits:
    routing it through ``ordered_sum`` slowed the query-mix benchmark, one
    scalar query at a time, by about 10%.
    """

    kind: StructureKind
    order: tuple[str, ...]
    mass: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.order)
        if not 1 <= n <= 6:
            raise ParameterError(f"supported structures have 1..6 variables, got {n}")
        mass = np.array(self.mass, dtype=np.float64)
        if mass.shape[-1:] != (2**n,) or mass.ndim > 2:
            raise ParameterError(f"mass must have shape (2**{n},) or (B, 2**{n}), got {mass.shape}")
        object.__setattr__(self, "mass", mass)
        # Any NaN or infinite entry makes the sum NaN or infinite.
        total = self.prob()
        bad = (abs(total - 1.0) > 1e-12) | (total != total) | (mass.min(axis=-1) < 0.0)
        raise_where(bad, ParameterError, "mass must be finite, nonnegative and sum to 1")
        mass.setflags(write=False)

    def column(self, name: str) -> np.ndarray:
        """Boolean per-cell indicator that ``name`` equals 1."""
        if name not in self.order:
            raise UnknownVariableError(name)
        return _bit_columns(len(self.order))[self.order.index(name)]

    def prob(self, event: dict[str, int] | None = None) -> float | np.ndarray:
        """Probability of a variable-assignment event; prob({}) is 1."""
        mass = self.mass
        if event:
            (index,) = _cell_index(self.order, (tuple(event.items()),))
            mass = mass[index] if mass.ndim == 1 else mass[:, index]
        return float(mass.sum()) if mass.ndim == 1 else ordered_sum(mass)

    def probs(self, *events: dict[str, int]) -> np.ndarray:
        """:meth:`prob` of each event, on the last axis; the events must each
        hold on equally many cells."""
        index = _cell_index(self.order, tuple(tuple(event.items()) for event in events))
        return ordered_sum(self.mass[..., index])

    def expectation(self, *names: str) -> float | np.ndarray:
        """E[product of the named indicator variables]."""
        return self.prob(dict.fromkeys(names, 1))


def build_joint(params: StructureParams) -> JointTable:
    """Multiply the factor probabilities along the role map of the kind."""
    return _build(params, batch=False)


def build_joint_batch(params: StructureParams) -> JointTable:
    """One JointTable of mass (B, 2**n) for a batch of draws of one kind,
    such as ``structures.random_structure_params`` gives with a draw count.
    Row b is bit-identical to ``build_joint`` of draw b: the factors
    multiply in the same order."""
    return _build(params, batch=True)


def _build(params: StructureParams, batch: bool) -> JointTable:
    roles = variable_roles(params.kind)
    order = roles.order
    columns = _bit_columns(len(order))
    if batch:
        columns = columns[:, :, None]  # cells down, draws across
    bits = dict(zip(order, columns))
    mass = np.ones(columns.shape[1:])
    for name in order:
        p1 = _prob_one(params, roles, name, bits)
        mass = mass * np.where(bits[name], p1, 1.0 - p1)
    return JointTable(kind=params.kind, order=order, mass=mass.T)


def _prob_one(params, roles, name, values):
    """P(name=1 | parents) given boolean arrays of the parents' values:
    a scalar for a root variable, otherwise one probability per element.
    Over a batch, values are (cells, 1) columns and probabilities (B,)."""
    parents = roles.parents[name]
    if name == roles.collider:
        left, right = parents
        t = params.p_c_given
        table = np.array([t.given_00, t.given_01, t.given_10, t.given_11])
        # Raveled, a batch's (cells, 1) index picks rows of the (4, B) table.
        return table[(2 * values[left].astype(np.intp) + values[right]).ravel()]
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

    value: float | np.ndarray
    scale: Scale
    conditioning: Conditioning | None = None

    def __post_init__(self) -> None:
        raise_if_nonfinite(self.value, "oracle gave non-finite", self.scale.value)


# The (X, Y) events of the cells p11, p10, p01, p00.
_XY_CELLS = tuple({"X": x, "Y": y} for x, y in ((1, 1), (1, 0), (0, 1), (0, 0)))


def _xy_stratum_cells(table: JointTable, stratum: Stratum | None) -> tuple:
    """Joint cell probabilities of (X, Y) within the stratum (or overall).

    Returns (p11, p10, p01, p00, p_stratum) where pxy = P(X=x, Y=y, stratum);
    a zero-mass stratum raises DegenerateStratumError.
    """
    if stratum is None:
        keep: dict[str, int] = {}
        p_g = 1.0
    else:
        keep = {stratum.variable: stratum.level}
        p_g = table.prob(keep)
        raise_where(p_g <= 0.0, DegenerateStratumError, stratum.variable, stratum.level)
    cells = table.probs(*({**xy, **keep} for xy in _XY_CELLS))
    return (*(cells.tolist() if cells.ndim == 1 else cells.T), p_g)


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
    # Transposing stacks a batch as (B, 2, 2) and leaves one symmetric matrix
    # as it is; batched det and solve give each matrix's own bits (a tier-1
    # test checks that).
    design = np.array([[var_x, cov_xg], [cov_xg, var_g]]).T
    bad = abs(np.linalg.det(design)) <= _SINGULAR_TOL
    raise_where(bad, SingularDesignError, f"X and {g_name} are collinear under the joint distribution")
    coef = np.linalg.solve(design, np.array([cov_xy, cov_gy]).T[..., None])[..., 0, 0]
    return coef if coef.ndim else float(coef)


def lm_normalizer_terms(table: JointTable) -> tuple[float, float]:
    """Definitional terms (raw1, raw0) of the lm weight normalizer:

        raw1 = P(G=0) P(X=1, G=1) P(X=0, G=1)
        raw0 = P(G=1) P(X=1, G=0) P(X=0, G=0)

    with G the kind's conditioning variable.  Their sum is the normalizer;
    each over the sum is the weight of that stratum's risk difference in the
    adjusted coefficient.
    """
    g_name = table.kind.conditioning_variable
    return normalizer_terms(
        table.expectation("X"), table.expectation(g_name), table.expectation("X", g_name)
    )


def normalizer_terms(f1, g1, fg1) -> tuple[float, float]:
    """:func:`lm_normalizer_terms` with X and G in the roles of any two
    variables F and G, from the moments E[F], E[G] and E[FG]."""
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
    g_name = table.kind.conditioning_variable
    raise_where(total <= 0.0, lambda r: DegenerateStratumError(g_name, 1 if r <= 0 else 0), raw1)
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
    elif scale in (Scale.RD, Scale.RR):
        bad = (p11 + p10 <= 0.0) | (p01 + p00 <= 0.0)
        raise_where(bad, UndefinedRatioError, "P(X=x, stratum) = 0 for some x")
        risk1 = p11 / (p11 + p10)
        risk0 = p01 / (p01 + p00)
        if scale is Scale.RD:
            value = risk1 - risk0
        else:
            bad = (risk0 <= 0.0) | (risk1 <= 0.0)
            raise_where(bad, UndefinedRatioError, "P(Y=1 | X=x, stratum) = 0 for some x")
            value = risk1 / risk0
    elif scale is Scale.OR:
        bad = (p10 * p01 <= 0.0) | (p11 * p00 <= 0.0)
        raise_where(bad, UndefinedRatioError, "a zero cell makes the odds ratio undefined")
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
        raise_where(
            abs(marginal.value - null) > _NULL_TOL,
            lambda v: PrecisionLossError(
                f"marginal X-Y association should be null for {table.kind.value}, "
                f"got {v!r} on scale {marginal.scale.value}"
            ),
            marginal.value,
        )
    if ratio_scale:
        raise_where(marginal.value == 0.0, UndefinedRatioError, "marginal association is zero")
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
