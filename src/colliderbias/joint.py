"""Exact joint-distribution oracle.

Enumerates the full joint probability table of a structure (at most 2^6
cells) by multiplying the factor probabilities along its role map, then
answers any marginal/conditional query from that table alone.  Nothing in
this module knows about the closed-form bias expressions, which keeps it an
independent cross-check for them.

A table's cells are Python numbers for one draw, or float64 arrays over
the draws of a batch; one product function, compiled once per kind, builds
both, and one compiled sum adds both.
One table's queries load no numpy; a batch, the sampler and a table's
``mass`` and ``column`` arrays do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    DegenerateStratumError,
    ParameterError,
    PrecisionLossError,
    SingularDesignError,
    UndefinedRatioError,
    UnknownVariableError,
    raise_first_nonfinite,
    raise_where,
)
from .structures import (
    _PROBABILITY_NAMES,
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

if TYPE_CHECKING:
    import numpy as np

# Null-association checks inside bias(): marginal cov/RD of X and Y must be 0
# (OR/RR must be 1) for every kind except Nabla, up to accumulated rounding.
_NULL_TOL = 1e-12

# Singular-design threshold for the two-regressor normal equations.
_SINGULAR_TOL = 1e-15

_MASS_MESSAGE = "mass must be finite, nonnegative and sum to 1"


def _shift(order: tuple[str, ...], name: str) -> int:
    """The bit of a cell index over ``order`` that holds the value of
    ``name``: bit k, counted from the most significant of len(order) bits,
    is the value of order[k]."""
    if name not in order:
        raise UnknownVariableError(name)
    return len(order) - 1 - order.index(name)


@lru_cache(maxsize=None)
def _cell_index(order: tuple[str, ...], events: tuple[tuple[tuple[str, int], ...], ...]):
    """A function from a table's cells over ``order``, numbers or a batch's
    arrays, to the list of the probabilities of the events, each a tuple of
    (name, value) pairs.  The function is compiled from source that adds
    each event's cells, ascending, in :func:`_sum_source`'s order, with no
    loop."""
    sums = []
    for event in events:
        keep = range(2 ** len(order))
        for name, value in event:
            shift, bit = _shift(order, name), 1 if value else 0
            keep = [i for i in keep if (i >> shift) & 1 == bit]
        sums.append(_sum_source([f"c[{i}]" for i in keep]))
    return eval(f"lambda c: [{', '.join(sums)}]")  # the source holds only cell indexes


def _sum_source(terms: list[str]) -> str:
    """Python source adding the expressions ``terms``, at most 128 of them,
    in the order in which ``ndarray.sum`` adds a contiguous 1-D float64
    array, so that each sum is bit-identical to that of its own cells'
    ``.sum()``: a left fold below 8 terms; otherwise eight running sums
    started at the first 8 terms, each further block of 8 added in, combined
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the tail folded in.  A batch
    adds its cells' arrays elementwise in the same order, so each draw's sum
    carries the bits of its own table's.  Tier-1 tests pin this order
    against ``ndarray.sum``."""
    k = len(terms)
    if k < 8:
        total, tail = terms[0], 1
    else:
        r = terms[:8]
        tail = k - k % 8
        for i in range(8, tail, 8):
            r = [f"({a} + {b})" for a, b in zip(r, terms[i : i + 8])]
        r = [f"({a} + {b})" for a, b in zip(r[0::2], r[1::2])]
        r = [f"({a} + {b})" for a, b in zip(r[0::2], r[1::2])]
        total = f"({r[0]} + {r[1]})"
    for term in terms[tail:]:
        total = f"({total} + {term})"
    return total


class JointTable:
    """Exact joint distribution over the structure's binary variables.

    ``mass[i]`` is the probability of the assignment whose bits (with
    ``order[0]`` as the most significant bit) spell the integer ``i``.  The
    table stores only a tuple of its 2**n cells: Python numbers for one
    table, which answers every query in plain arithmetic, or for a batch of
    B tables of one kind C-contiguous (B,) float64 arrays over the draws, so
    that every query answers with a (B,) array whose entries are
    bit-identical to the numbers each draw's own table gives.  ``mass`` is
    derived from the cells on first access.

    The table owns its cells: construction converts a caller's mass to
    cells once, a copy that no caller's list, array, view or base can change
    later.  Queries add the cells of an event with :meth:`_sums`.

    A batch answers each event sum and each :func:`cond_measure` once: it
    keeps them, read-only, in a private memo that lives as long as the
    batch.  A query that raises stores nothing, so its guard runs, and
    raises, on every call.  One table keeps no memo (``_memo`` is None): it
    answers a query or two and is dropped.
    """

    __slots__ = ("kind", "order", "_cells", "_mass", "_memo")

    def __init__(self, kind: StructureKind, order: tuple[str, ...], mass) -> None:
        n = len(order)
        if not 1 <= n <= 6:
            raise ParameterError(f"supported structures have 1..6 variables, got {n}")
        if hasattr(mass, "shape"):
            shape = mass.shape
        elif any(hasattr(cell, "__len__") for cell in mass):  # rows, or a batch's cell arrays
            import numpy as np

            shape = np.array(mass, dtype=object).shape
        else:
            shape = (len(mass),)
        if shape[-1:] != (2**n,) or len(shape) > 2:
            raise ParameterError(f"mass must have shape (2**{n},) or (B, 2**{n}), got {shape}")
        if len(shape) == 1:
            # A caller's array becomes float64 numbers, as a batch's entries are.
            cells = tuple(mass.astype(float).tolist() if hasattr(mass, "astype") else mass)
        else:
            import numpy as np

            cells = np.asarray(mass, dtype=np.float64).T.copy()  # row i of the copy is cell i
        self._hold(kind, order, cells, None if len(shape) == 1 else {})

    def _hold(self, kind: StructureKind, order: tuple[str, ...], cells, memo: dict | None) -> JointTable:
        """Keep ``cells``, which no caller holds, and ``memo`` (None for one
        table, {} for a batch); check that the cells are a mass; return self."""
        self.kind, self.order, self._cells, self._mass, self._memo = kind, order, tuple(cells), None, memo
        try:
            if memo is None:
                low = min(self._cells)
            else:
                import numpy as np

                low = np.min(self._cells, axis=0)
            # Any NaN or infinite cell makes the sum NaN or infinite, and a
            # NaN fails every comparison.
            ok = (abs(self.prob() - 1) <= 1e-12) & (low >= 0)
        except TypeError:  # a cell that is not a number: a string, a list
            raise ParameterError("mass cells must be numbers") from None
        raise_where(not ok if memo is None else ~ok, ParameterError, _MASS_MESSAGE)
        return self

    @property
    def mass(self) -> np.ndarray:
        """The cells as a read-only float64 array: (2**n,), or (B, 2**n) for
        a batch."""
        if self._mass is None:
            import numpy as np

            self._mass = np.array(self._cells, dtype=np.float64).T.copy()
            self._mass.setflags(write=False)
        return self._mass

    def _sums(self, add):
        """The probability of each of the events that the :func:`_cell_index`
        function ``add`` adds, in turn: a list of numbers for one table, a
        (events, B) array for a batch, which adds them once and keeps the
        read-only result, keyed by ``add`` (one per variable order and
        events)."""
        memo = self._memo
        if memo is None:
            return add(self._cells)
        sums = memo.get(add)
        if sums is None:
            import numpy as np

            sums = memo[add] = np.array(add(self._cells))
            sums.setflags(write=False)
        return sums

    def column(self, name: str) -> np.ndarray:
        """Boolean per-cell indicator that ``name`` equals 1."""
        import numpy as np

        shift = _shift(self.order, name)
        return (np.arange(2 ** len(self.order)) >> shift) & 1 == 1

    def prob(self, event: dict[str, int] | None = None):
        """Probability of a variable-assignment event; prob({}) is 1."""
        (total,) = self._sums(_cell_index(self.order, (tuple((event or {}).items()),)))
        return total

    def probs(self, *events: dict[str, int]):
        """:meth:`prob` of each event, in turn."""
        return self._sums(_cell_index(self.order, tuple(tuple(event.items()) for event in events)))

    def expectation(self, *names: str):
        """E[product of the named indicator variables]."""
        return self.prob(dict.fromkeys(names, 1))


def build_joint(params: StructureParams) -> JointTable:
    """Multiply the factor probabilities along the role map of the kind, in
    the straight-line code that :func:`_grow_cells` compiles for it once: the
    cells grow one variable at a time, in role order, each product so far
    splitting into its product with P(next = 0 | parents) and with P(next =
    1 | parents), read from ``params.probabilities`` where
    :func:`_factor_places` puts them.  So each cell is the left fold of its
    factors in role order.

    One draw's cells are numbers, multiplied in plain arithmetic.  A batch of
    draws of one kind, such as ``structures.random_structure_params`` gives
    with a draw count, grows float64 arrays over its draws in the same code:
    its probabilities are cast to float64 first, whatever their dtype, so
    row b of its mass is bit-identical to the table of draw b alone."""
    p = params.probabilities
    batch = getattr(params.p_left, "ndim", 0)
    if batch:
        import numpy as np

        p = [np.asarray(one, dtype=np.float64) for one in p]
    cells = _grow_cells(params.kind)(p, [1 - one for one in p])
    order = variable_roles(params.kind).order
    return JointTable.__new__(JointTable)._hold(params.kind, order, cells, {} if batch else None)


@lru_cache(maxsize=None)
def _grow_cells(kind: StructureKind):
    """A function from the probabilities p of a kind, in schema order, and
    q = 1 - p to the tuple of its table's cells, numbers or a batch's arrays.
    It is compiled from :func:`_grow_source` the first time the kind is
    built."""
    namespace: dict = {}
    exec(_grow_source(_factor_places(kind)), namespace)  # the source holds only places
    return namespace["grow"]


def _grow_source(places: tuple[tuple[int, ...], ...]) -> str:
    """Python source of a function ``grow(p, q)`` that multiplies out the
    cells with no loop: each row of ``places`` splits every product so far,
    kept as a local, into its product with q[at] and with p[at], at the
    place each prefix has there; the last row's products are returned."""
    body, cells = [], ["1"]
    for row in places:
        products = [f"{prefix} * {factor}[{at}]" for prefix, at in zip(cells, row) for factor in "qp"]
        cells = [f"c{len(body) + i}" for i in range(len(products))]
        body += [f"{cell} = {product}" for cell, product in zip(cells, products)]
    body[-len(cells):] = [f"return ({', '.join(products)},)"]
    return "def grow(p, q):\n    " + "\n    ".join(body) + "\n"


# The schema field of each variable that has parents.  A variable without
# parents is a cause of the collider, read from p_left or p_right.
_TABLE_FIELDS = {"C": "p_c_given", "X": "p_x_given_a", "Y": "p_y_given_b", "D": "p_d_given_c"}


@lru_cache(maxsize=None)
def _factor_places(kind: StructureKind) -> tuple[tuple[int, ...], ...]:
    """The one map from role order to schema order.  Entry k lists, for each
    assignment of the variables before order[k] (read as a cell index over
    them), the place in ``params.probabilities`` of P(order[k] = 1 | its
    parents' values there): the place of its field's name in
    ``structures._PROBABILITY_NAMES``, keyed by the parents' values as
    binary digits where it has parents."""
    roles, names = variable_roles(kind), _PROBABILITY_NAMES[kind]
    places = []
    for k, name in enumerate(roles.order):
        if roles.parents[name]:
            field_name = _TABLE_FIELDS[name]
        else:
            field_name = "p_left" if name == roles.left_cause else "p_right"
        shifts = [k - 1 - roles.order.index(parent) for parent in roles.parents[name]]
        row = []
        for prefix in range(2**k):
            key = "".join(str((prefix >> shift) & 1) for shift in shifts)
            row.append(names.index(f"{field_name}[{key}]" if key else field_name))
        places.append(tuple(row))
    return tuple(places)


@dataclass(frozen=True)
class OracleMeasure:
    """A single association measure evaluated from the joint table; a
    non-finite value raises PrecisionLossError."""

    value: float | np.ndarray
    scale: Scale
    conditioning: Conditioning | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.value, float) and math.isfinite(self.value)):
            raise_first_nonfinite("oracle gave non-finite", ((self.scale.value, self.value),))


@lru_cache(maxsize=None)
def _stratum_index(order: tuple[str, ...], stratum: tuple[str, int] | None) -> tuple:
    """The :func:`_cell_index` adders of the stratum, a (variable, level)
    pair or None for the whole table, and of p11, p10, p01, p00 within it."""
    keep = () if stratum is None else (stratum,)
    xy = tuple((("X", x), ("Y", y), *keep) for x, y in ((1, 1), (1, 0), (0, 1), (0, 0)))
    return _cell_index(order, (keep,)), _cell_index(order, xy)


def _xy_stratum_cells(table: JointTable, stratum: Stratum | None) -> tuple:
    """Joint cell probabilities of (X, Y) within the stratum (or overall).

    Returns (p11, p10, p01, p00, p_stratum) where pxy = P(X=x, Y=y, stratum);
    a zero-mass stratum raises DegenerateStratumError.
    """
    keep, xy = _stratum_index(table.order, None if stratum is None else (stratum.variable, stratum.level))
    if stratum is None:
        p_g = 1
    else:
        (p_g,) = table._sums(keep)
        raise_where(p_g <= 0.0, DegenerateStratumError, stratum.variable, stratum.level)
    return (*table._sums(xy), p_g)


def lm_coefficient(table: JointTable) -> float:
    """Population least-squares coefficient of X when Y is predicted from
    {1, X, G}, with G the kind's conditioning variable.

    Solves the 2x2 normal equations, assembled from exact moments of the
    table, by Cramer's rule in IEEE basic operations, so every host gives
    the same bits; raises SingularDesignError when X and G are perfectly
    collinear.
    """
    g_name = table.kind.conditioning_variable
    e_x, e_g, e_y = table.probs({"X": 1}, {g_name: 1}, {"Y": 1})
    e_xg, e_xy, e_gy = table.probs({"X": 1, g_name: 1}, {"X": 1, "Y": 1}, {g_name: 1, "Y": 1})
    var_x = e_x - e_x * e_x
    var_g = e_g - e_g * e_g
    cov_xg = e_xg - e_x * e_g
    cov_xy = e_xy - e_x * e_y
    cov_gy = e_gy - e_g * e_y
    det = var_x * var_g - cov_xg * cov_xg
    collinear = f"X and {g_name} are collinear under the joint distribution"
    raise_where(abs(det) <= _SINGULAR_TOL, SingularDesignError, collinear)
    return (cov_xy * var_g - cov_xg * cov_gy) / det


def lm_normalizer_terms(table: JointTable) -> tuple[float, float]:
    """Definitional terms (raw1, raw0) of the lm weight normalizer:

        raw1 = P(G=0) P(X=1, G=1) P(X=0, G=1)
        raw0 = P(G=1) P(X=1, G=0) P(X=0, G=0)

    with G the kind's conditioning variable.  Their sum is the normalizer;
    each over the sum is the weight of that stratum's risk difference in the
    adjusted coefficient.
    """
    g_name = table.kind.conditioning_variable
    e_x, e_g = table.probs({"X": 1}, {g_name: 1})
    (e_xg,) = table.probs({"X": 1, g_name: 1})
    return normalizer_terms(e_x, e_g, e_xg)


def normalizer_terms(f1, g1, fg1) -> tuple[float, float]:
    """:func:`lm_normalizer_terms` with X and G in the roles of any two
    variables F and G, from the moments E[F], E[G] and E[FG]."""
    raw1 = (1 - g1) * fg1 * (g1 - fg1)
    raw0 = g1 * (f1 - fg1) * (1 - f1 - g1 + fg1)
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
    marginal association is formed by :func:`bias`, not here.  A batch
    evaluates each (scale, conditioning) once and keeps the measure, its
    value read-only; a measure that raises is not kept.
    """
    memo = table._memo
    if memo is not None:
        key = scale, conditioning
        if key in memo:
            return memo[key]
    if isinstance(conditioning, LinearModel):
        measure = OracleMeasure(lm_coefficient(table), Scale.LM_COEF, conditioning)
    else:
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
        measure = OracleMeasure(value, scale, conditioning)
    if memo is not None:
        measure.value.setflags(write=False)
        memo[key] = measure
    return measure


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
        null = 1 if ratio_scale else 0
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


# Draws per pass of :func:`sample`.  A pass holds a few arrays of this
# length, so the sampler's memory does not grow with the draw count.
_SAMPLE_CHUNK = 1 << 14

# Most threads one :func:`sample` call draws on, the caller's included.  Each
# thread holds its own chunk buffers: a 1e6-draw sample-stream run peaked at
# 42.6, 43.6, 44.3, 44.8 and 47.0 MB of RSS on 1, 2, 3, 4 and 8 threads
# (Python 3.11, numpy 2.4, x86-64 Linux).  Two threads is the most whose
# speed was measured, and the most that adds no more than about 1 MB.
_SAMPLE_THREADS = 2


def sample(params: StructureParams, n: int, seed: int) -> SampleTable:
    """Ancestral Monte Carlo sampling of the structure, n draws.

    Deterministic per seed in [0, 2**128): a Philox counter-based generator
    keyed by the seed makes one uniform row per variable, row-major in role
    order (row k is ``random((len(order), n))[k]``), and order[k] is 1 where
    its uniform is below P(order[k] = 1 | parents), read from
    ``params.probabilities`` at the :func:`_factor_places` entry of the cell
    code of order[:k].  This seed-to-output mapping is part of the package
    contract and stable per release.

    Philox's uniform is ``(raw >> 11) * 2**-53`` for a raw 64-bit word, and
    ``p * 2**53`` is exact for every p in [0, 1], subnormals included.  So
    ``u < p`` exactly when ``raw >> 11 < ceil(p * 2**53)``, and each variable
    compares raw words with one integer table, indexed by that cell code, or
    with its one threshold if it has no parents.  The draws go through in
    chunks of ``_SAMPLE_CHUNK``, so memory stays flat, and the chunks are
    split into contiguous ranges, one per thread (:func:`_sample_threads`):
    the caller's thread draws the first, and a
    ``concurrent.futures.ThreadPoolExecutor`` the others.  Each range's rows
    start at their place in the stream (:func:`_stream_at`) and the ranges'
    counts are added, so the counts do not depend on the number of threads.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    if n < 1:
        raise ParameterError(f"draws must be >= 1, got {n}")
    if not 0 <= seed < 2**128:
        raise ParameterError(f"seed must lie in [0, 2**128), got {seed}")
    order = variable_roles(params.kind).order
    scaled = np.array(params.probabilities, dtype=np.float64) * 2.0**53  # exact
    tables = []
    for at in _factor_places(params.kind):
        table = np.ceil(scaled[list(at)]).astype(np.uint64)
        tables.append(table[0] if len(set(at)) == 1 else table)
    chunks = range(0, n, _SAMPLE_CHUNK)
    workers = min(_sample_threads(), len(chunks))
    ranges = [chunks[len(chunks) * w // workers : len(chunks) * (w + 1) // workers]
              for w in range(workers)]
    stop = threading.Event()  # set on a failure or an interrupt: every range quits at its next chunk
    # The caller's thread draws the first range; the pool starts a thread for
    # each other range, so one range starts none.  Leaving it joins them all.
    with ThreadPoolExecutor(workers) as pool:
        try:
            futures = [pool.submit(_sample_range, tables, seed, n, starts, stop) for starts in ranges[1:]]
            for future in futures:  # a failed range stops the others, the caller's too
                future.add_done_callback(lambda done: done.exception() and stop.set())
            counts = _sample_range(tables, seed, n, ranges[0], stop)
            for future in futures:
                counts += future.result()
        except BaseException:  # a failed range, a thread that would not start, or an interrupt
            stop.set()
            raise
    return SampleTable(kind=params.kind, order=order, counts=counts, draws=n)


def _sample_threads() -> int:
    """Most threads a sample draws on: one per CPU this process may run on,
    at most ``_SAMPLE_THREADS``."""
    import os

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call off Linux
        usable = os.cpu_count() or 1
    return min(usable, _SAMPLE_THREADS)


def _sample_range(tables: list, seed: int, n: int, starts: range, stop) -> np.ndarray:
    """Cell counts of the draws in the chunks that begin at ``starts``, a
    contiguous run of multiples of ``_SAMPLE_CHUNK`` below n, drawn until the
    ``threading.Event`` stop is set.  Row k's bit generator starts at word
    k*n + starts[0] of the seed's stream; numpy's bit generators and ufuncs
    let go of the GIL on each chunk, so ranges on other threads draw at the
    same time."""
    import numpy as np

    rows = [_stream_at(seed, k * n + starts[0]) for k in range(len(tables))]
    counts = np.zeros(2 ** len(tables), dtype=np.intp)
    size = min(n - starts[0], _SAMPLE_CHUNK)
    cells, limits, below = (np.empty(size, dtype) for dtype in (np.uint8, np.uint64, bool))
    for start in starts:
        if stop.is_set():
            break
        size = min(_SAMPLE_CHUNK, n - start)
        cell, limit, bit = cells[:size], limits[:size], below[:size]
        cell.fill(0)  # the code of order[:k], at most 6 bits
        for bits, table in zip(rows, tables):
            raw = bits.random_raw(size)
            raw >>= 11
            if table.ndim:
                table = np.take(table, cell, out=limit, mode="clip")
            np.less(raw, table, out=bit)
            np.add(cell, cell, out=cell)  # cell <<= 1, several times faster
            cell |= bit
        counts += np.bincount(cell, minlength=counts.size)
    return counts


def _stream_at(seed: int, offset: int) -> np.random.Philox:
    """A bit generator whose raw words are those of ``Philox(key=seed)`` from
    the offset-th on.  Philox makes four words per counter step, so it
    advances offset // 4 steps and discards offset % 4 words."""
    import numpy as np

    bits = np.random.Philox(key=seed)
    bits.advance(offset // 4)
    bits.random_raw(offset % 4)
    return bits
