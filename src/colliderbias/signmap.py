"""Qualitative sign analysis and sign-region grids.

Everything here answers "which direction is the bias?" without evaluating
magnitudes: classification of how the two causes move the collider,
per-stratum sign rules, the sign algebra for extended structures and for
regression adjustment, and deterministic grid sweeps of the
(P(C=c|1,0), P(C=c|0,1)) square that map out the sign regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .closedform import (
    _INDEPENDENT_KINDS,
    _require_kind,
    band_sign,
    child_contrast,
    cross_product_difference,
    extension_rds,
    lm_bias_kernel,
    lm_kernel,
)
from .errors import InvalidResolutionError, ParameterError, np
from .structures import (
    BiasQuery,
    ColliderCpt,
    Conditioning,
    EdgeCpt,
    LINEAR_MODEL,
    LinearModel,
    Sign,
    StructureKind,
    StructureParams,
    batch_memo,
    check_probabilities,
)

# Largest cells per axis of a sign grid: 100 times the cells of the default
# resolution of 200, checked before anything is allocated.
MAX_GRID_RESOLUTION = 2000


class Pattern(str, Enum):
    """Joint sign pattern of the two causes' effects on P(C=1).

    A cause's effect is "consistent" when it has the same sign at both
    levels of the co-parent; qualitative patterns flag a sign reversal.
    """

    BOTH_POSITIVE = "both-positive"
    BOTH_NEGATIVE = "both-negative"
    OPPOSITE_SIGNS = "opposite-signs"
    QUALITATIVE_IN_X = "qualitative-in-x"
    QUALITATIVE_IN_Y = "qualitative-in-y"
    QUALITATIVE_IN_BOTH = "qualitative-in-both"
    DEGENERATE_TIE = "degenerate-tie"


@dataclass(frozen=True)
class EffectPattern:
    """Effect-sign pattern plus interaction signs on each scale.

    The pattern is classified from the four effects on P(C=1).  The
    interaction signs use the canonical level c -- the level with
    P(C=c|1,1) >= P(C=c|0,0) -- so that they line up with the sign-region
    geometry; ``rr_interaction_other`` is the risk-ratio interaction on the
    complementary level.
    """

    pattern: Pattern
    canonical_level: int
    rr_interaction_canonical: Sign
    rr_interaction_other: Sign
    or_interaction: Sign
    rd_interaction: Sign


# Pattern.DEGENERATE_TIE first, then the pattern of each rule in
# effect_pattern's order; the last is the default.
_PATTERN_RULES = (*list(Pattern)[-1:], *list(Pattern)[:-1])


def effect_pattern(p_c_given: ColliderCpt) -> Pattern:
    """How the two causes move the collider: the sign pattern of their four
    effects on P(C=1), each banded at closedform.SIGN_TOL.  Any tie yields a
    degenerate-tie verdict rather than a forced region.  Elementwise over
    array-valued table entries, as an object array of Patterns."""
    t = p_c_given
    x_at_y0, x_at_y1 = t.given_10 - t.given_00, t.given_11 - t.given_01
    y_at_x0, y_at_x1 = t.given_01 - t.given_00, t.given_11 - t.given_10
    sx0, sx1, sy0, sy1 = (band_sign(d) for d in (x_at_y0, x_at_y1, y_at_x0, y_at_x1))
    x_consistent = sx0 == sx1
    y_consistent = sy0 == sy1
    both = x_consistent & y_consistent
    rules = [
        sx0 * sx1 * sy0 * sy1 == 0,  # DEGENERATE_TIE
        both & (sx0 + sy0 == 2),  # BOTH_POSITIVE
        both & (sx0 + sy0 == -2),  # BOTH_NEGATIVE
        both,  # OPPOSITE_SIGNS
        y_consistent,  # QUALITATIVE_IN_X
        x_consistent,  # QUALITATIVE_IN_Y
    ]
    if not getattr(rules[0], "ndim", 0):
        return next((pattern for rule, pattern in zip(rules, _PATTERN_RULES) if rule), _PATTERN_RULES[-1])
    # The index of the first rule that holds, or len(rules) if none does.
    first = len(rules)
    for index in reversed(range(len(rules))):
        first = np.where(rules[index], index, first)
    return np.array(_PATTERN_RULES, dtype=object)[first]


def classify_effects(p_c_given: ColliderCpt) -> EffectPattern:
    """Classify how the two causes move the collider (:func:`effect_pattern`),
    with the interaction signs at the canonical level."""
    t = p_c_given
    canonical = 1 if t.given_11 >= t.given_00 else 0
    q00 = t.level_given(canonical, 0, 0)
    q01 = t.level_given(canonical, 0, 1)
    q10 = t.level_given(canonical, 1, 0)
    q11 = t.level_given(canonical, 1, 1)
    or_contrast = q11 * q00 * (1.0 - q10) * (1.0 - q01) - q10 * q01 * (1.0 - q11) * (1.0 - q00)
    rd_contrast = q11 + q00 - q10 - q01
    return EffectPattern(
        pattern=effect_pattern(t),
        canonical_level=canonical,
        rr_interaction_canonical=band_sign(cross_product_difference(t, canonical)),
        rr_interaction_other=band_sign(cross_product_difference(t, 1 - canonical)),
        or_interaction=band_sign(or_contrast),
        rd_interaction=band_sign(rd_contrast),
    )


def v_stratum_sign(p_c_given: ColliderCpt, level: int) -> Sign:
    """Sign of the stratum bias at C=level: the sign of the cross-product
    difference of the collider table at that level."""
    return band_sign(cross_product_difference(p_c_given, level))


def nabla_stratum_sign(params: StructureParams, level: int) -> Sign:
    """Sign of the Nabla structure's odds-ratio bias at C=level: that of the
    collider table (:func:`v_stratum_sign`), or Zero where a cell
    P(X=x, Y=y, C=level) is exactly 0 and so the odds ratio is undefined.
    The tests are exact, as in :func:`_extension_sign`."""
    _require_kind(params, StructureKind.NABLA)
    t, p_left = params.p_c_given, params.p_left
    full = (0.0 < p_left) & (p_left < 1.0)
    for entry in params.p_y_given_b.values():
        full = full & (0.0 < entry) & (entry < 1.0)
    for left, right in ((0, 0), (0, 1), (1, 0), (1, 1)):
        full = full & (t.level_given(level, left, right) > 0.0)
    return v_stratum_sign(t, level) * full


def _child_deltas(
    p_c_given: ColliderCpt, p_d_given_c: EdgeCpt, levels: tuple[int, ...]
) -> Iterator[float]:
    """closedform.child_contrast at each D=level in turn, on the closed unit
    interval of the child edge; the two cross-product differences are
    computed once for all levels."""
    g1 = cross_product_difference(p_c_given, 1)
    g0 = cross_product_difference(p_c_given, 0)
    for level in levels:
        pd1 = p_d_given_c.level_given(level, 1)
        pd0 = p_d_given_c.level_given(level, 0)
        yield child_contrast(pd1, pd0, g1, g0)


def y_stratum_sign(p_c_given: ColliderCpt, p_d_given_c: EdgeCpt, level: int) -> Sign:
    """Sign of the child-stratum bias at D=level: the band sign of
    closedform.child_contrast, which every scale's D=level bias shares.

    When both cross-product differences lie within closedform.SIGN_TOL of
    zero, the contrast is below SIGN_TOL |pd1^2 - pd0^2| < SIGN_TOL, so the
    sign is Zero.  The paper's case rules for this sign run in the verify
    battery, as the identity ``child_sign_cases`` of
    :mod:`colliderbias.verification`.
    """
    (delta,) = _child_deltas(p_c_given, p_d_given_c, (level,))
    return band_sign(delta)


def extended_sign(params: StructureParams, conditioning: Conditioning) -> Sign:
    """Sign of the bias in any structure with marginally independent collider
    causes: the embedded V- or Y-structure sign times :func:`_extension_sign`.

    For linear-model conditioning the embedded sign is that of the lm
    kernel, independent of the collider-child edge.
    """
    _require_kind(params, *_INDEPENDENT_KINDS)
    extension = _extension_sign(params)
    if isinstance(conditioning, LinearModel):
        return band_sign(lm_bias_kernel(params)) * extension
    BiasQuery(conditioning).check_valid_for(params.kind)
    if params.kind.has_child_d:
        assert params.p_d_given_c is not None
        inner = y_stratum_sign(params.p_c_given, params.p_d_given_c, conditioning.level)
    else:
        inner = v_stratum_sign(params.p_c_given, conditioning.level)
    return inner * extension


@batch_memo
def _extension_sign(params: StructureParams) -> Sign:
    """The signs of the extension-path risk differences, times Zero where a
    cause is fixed at 0 or 1: every bias carries p_left (1 - p_left) p_right (1 - p_right)."""
    rd_left, rd_right = extension_rds(params)
    p_left, p_right = params.p_left, params.p_right
    varies = (0.0 < p_left) & (p_left < 1.0) & (0.0 < p_right) & (p_right < 1.0)
    return band_sign(rd_left) * band_sign(rd_right) * varies


def v_lm_sign(params: StructureParams) -> Sign:
    """Sign of the regression-adjustment bias in the V structure: the sign
    of the lm kernel, Zero where a cause is fixed at 0 or 1, as
    :func:`extended_sign` gives it.

    Monotone effect patterns pin the sign (both causes pushing the collider
    the same way cannot give positive bias; opposite directions cannot give
    negative bias); the identity ``monotone_lm_sign`` in
    :mod:`colliderbias.verification` checks that.
    """
    _require_kind(params, StructureKind.V)
    return extended_sign(params, LINEAR_MODEL)


class GridFamily(str, Enum):
    """Which sign family a grid sweep evaluates per cell."""

    STRATUM = "stratum"              # collider-stratum signs at C=1 and C=0
    CHILD_STRATUM = "child-stratum"  # child-stratum signs at D=1 and D=0
    REGRESSION = "regression"        # regression-adjustment sign

    @property
    def columns(self) -> tuple[str, ...]:
        """Names of the family's sign columns, in the order of the last
        axis of ``SignGrid.cells``."""
        if self is GridFamily.STRATUM:
            return ("sign_c1", "sign_c0")
        if self is GridFamily.CHILD_STRATUM:
            return ("sign_d1", "sign_d0")
        return ("sign_lm",)


@dataclass(frozen=True)
class GridFixed:
    """Fixed parameters of a sign-grid sweep.

    The sweep runs over (P(C=1|1,0), P(C=1|0,1)); the table corners
    P(C=1|0,0) and P(C=1|1,1) stay fixed, as do the cause marginals and,
    for child-stratum grids, the collider-child edge.
    """

    p_c00: float
    p_c11: float
    p_left: float
    p_right: float
    p_d_given_c: EdgeCpt | None = None

    def __post_init__(self) -> None:
        check_probabilities(self.items())

    def items(self) -> list[tuple[str, float]]:
        pairs = [
            ("p_c00", self.p_c00),
            ("p_c11", self.p_c11),
            ("p_left", self.p_left),
            ("p_right", self.p_right),
        ]
        if self.p_d_given_c is not None:
            pairs += ((f"p_d_given_c[{key}]", value) for key, value in self.p_d_given_c.items())
        return pairs


@dataclass(frozen=True)
class ZeroLocus:
    """Analytic description of a curve on which the grid's sign is zero,
    emitted as grid metadata for plotting tools."""

    name: str
    curve: str
    coefficients: tuple[tuple[str, float], ...]


@dataclass(frozen=True, eq=False)
class SignGrid:
    """Per-cell sign verdicts on a uniform lattice of cell centers.

    A grid stores only its inputs and its signs: ``cells[i, j, k]`` is the
    integer sign (-1/0/1) of column k at p10 = axis[i], p01 = axis[j].
    Everything else is derived, read-only:

    - ``resolution``: cells per axis, ``cells.shape[0]``;
    - ``axis``: the cell centers (i + 1/2)/resolution;
    - ``columns``: the sign-column names, ``family.columns``;
    - ``zero_loci``: the analytic zero curves of the family at ``fixed``
      (a child-stratum grid gets the collider stratum's, not its own).
    """

    family: GridFamily
    fixed: GridFixed
    cells: np.ndarray

    @property
    def resolution(self) -> int:
        return self.cells.shape[0]

    @property
    def axis(self) -> np.ndarray:
        return _cell_centers(self.resolution)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.family.columns

    @property
    def zero_loci(self) -> tuple[ZeroLocus, ...]:
        return _zero_loci(self.family, self.fixed)


def _cell_centers(resolution: int) -> np.ndarray:
    return (np.arange(resolution) + 0.5) / resolution


def _zero_loci(family: GridFamily, fixed: GridFixed) -> tuple[ZeroLocus, ...]:
    p00, p11 = fixed.p_c00, fixed.p_c11
    if family is GridFamily.REGRESSION:
        p_x, p_y = fixed.p_left, fixed.p_right
        loci = []
        if p_y > 0.0:
            loci.append(
                ZeroLocus(
                    "exposure_collider_independent",
                    "line",
                    (
                        ("point_p10", p00),
                        ("point_p01", p11),
                        ("slope", (1.0 - p_y) / p_y),
                    ),
                )
            )
        if p_x < 1.0:
            loci.append(
                ZeroLocus(
                    "outcome_collider_independent",
                    "line",
                    (
                        ("point_p10", p11),
                        ("point_p01", p00),
                        ("slope", p_x / (1.0 - p_x)),
                    ),
                )
            )
        return tuple(loci)
    odds = lambda p: p / (1.0 - p)  # noqa: E731 - local shorthand
    loci = [
        ZeroLocus("rr_level1", "hyperbola", (("product", p00 * p11),)),
        ZeroLocus(
            "rr_level0",
            "complement-hyperbola",
            (("product", (1.0 - p00) * (1.0 - p11)),),
        ),
        ZeroLocus("rd", "line-sum", (("sum", p00 + p11),)),
    ]
    if 0.0 < p00 < 1.0 and 0.0 < p11 < 1.0:
        loci.append(
            ZeroLocus("or", "odds-curve", (("odds_product", odds(p00) * odds(p11)),))
        )
    return tuple(loci)


def emit_grid(family: GridFamily, fixed: GridFixed, resolution: int) -> SignGrid:
    """Sweep the open unit square of (P(C=1|1,0), P(C=1|0,1)) and evaluate
    the requested sign family at every cell center.

    Cell centers are (i + 1/2)/resolution, which keeps the sweep strictly
    inside the open square.  The whole lattice is evaluated in one
    broadcast: one collider table whose P(C=1|1,0) entry is the axis as a
    column and whose P(C=1|0,1) entry is the axis as a row, fed once to the
    function the family's scalar sign rule calls, and banded with one
    closedform.band_sign call per column.  The arithmetic is elementwise,
    so every cell equals its scalar evaluation; memory is a few
    O(resolution²) float temporaries.  The output is a pure function of the
    inputs; repeated calls produce identical grids.  ``resolution`` must lie
    in [2, MAX_GRID_RESOLUTION].
    """
    if not 2 <= resolution <= MAX_GRID_RESOLUTION:
        raise InvalidResolutionError(resolution, MAX_GRID_RESOLUTION)
    if family is GridFamily.CHILD_STRATUM and fixed.p_d_given_c is None:
        raise ParameterError("child-stratum grids need p_d_given_c")
    axis = _cell_centers(resolution)
    lattice = ColliderCpt(
        given_00=fixed.p_c00, given_01=axis[None, :], given_10=axis[:, None], given_11=fixed.p_c11
    )
    # Each column's float lattice is computed lazily and banded straight
    # into cells allocated beforehand.  No name holds it (a loop variable
    # would keep it alive while the next one is made), so one column's
    # lattice is alive at a time, beside the two cross-product differences
    # the child-stratum columns share; and the long-lived cells do not pin
    # the freed temporaries in the heap.  This keeps the peak memory of
    # large grids down.
    if family is GridFamily.STRATUM:
        deltas = (cross_product_difference(lattice, level) for level in (1, 0))
    elif family is GridFamily.CHILD_STRATUM:
        deltas = _child_deltas(lattice, fixed.p_d_given_c, (1, 0))
    else:
        deltas = iter((lm_kernel(lattice, fixed.p_left, fixed.p_right),))
    cells = np.empty((resolution, resolution, len(family.columns)), dtype=np.int8)
    for k in range(len(family.columns)):
        band_sign(next(deltas), out=cells[..., k])
    cells.setflags(write=False)
    return SignGrid(family=family, fixed=fixed, cells=cells)
