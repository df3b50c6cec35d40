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

import numpy as np

from .closedform import (
    band_sign,
    cross_product_difference,
    extension_rds,
    lm_bias_kernel,
)
from .errors import (
    DegenerateStratumError,
    InvalidResolutionError,
    OutOfRangeError,
    ParameterError,
)
from .structures import (
    ColliderCpt,
    Conditioning,
    EdgeCpt,
    LinearModel,
    Sign,
    StructureKind,
    StructureParams,
)


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


def classify_effects(p_c_given: ColliderCpt) -> EffectPattern:
    """Classify how the two causes move the collider.

    Any of the four defining effect comparisons tying within
    closedform.SIGN_TOL yields a degenerate-tie verdict rather than a forced
    region.
    """
    t = p_c_given
    x_at_y0 = t.given_10 - t.given_00
    x_at_y1 = t.given_11 - t.given_01
    y_at_x0 = t.given_01 - t.given_00
    y_at_x1 = t.given_11 - t.given_10

    canonical = 1 if t.given_11 >= t.given_00 else 0
    q00 = t.level_given(canonical, 0, 0)
    q01 = t.level_given(canonical, 0, 1)
    q10 = t.level_given(canonical, 1, 0)
    q11 = t.level_given(canonical, 1, 1)
    or_contrast = q11 * q00 * (1.0 - q10) * (1.0 - q01) - q10 * q01 * (1.0 - q11) * (1.0 - q00)
    rd_contrast = q11 + q00 - q10 - q01

    signs = [band_sign(delta) for delta in (x_at_y0, x_at_y1, y_at_x0, y_at_x1)]
    if Sign.ZERO in signs:
        pattern = Pattern.DEGENERATE_TIE
    else:
        sx0, sx1, sy0, sy1 = signs
        x_consistent = sx0 is sx1
        y_consistent = sy0 is sy1
        if x_consistent and y_consistent:
            if sx0 is Sign.POSITIVE and sy0 is Sign.POSITIVE:
                pattern = Pattern.BOTH_POSITIVE
            elif sx0 is Sign.NEGATIVE and sy0 is Sign.NEGATIVE:
                pattern = Pattern.BOTH_NEGATIVE
            else:
                pattern = Pattern.OPPOSITE_SIGNS
        elif y_consistent:
            pattern = Pattern.QUALITATIVE_IN_X
        elif x_consistent:
            pattern = Pattern.QUALITATIVE_IN_Y
        else:
            pattern = Pattern.QUALITATIVE_IN_BOTH

    return EffectPattern(
        pattern=pattern,
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


def y_stratum_sign(p_c_given: ColliderCpt, p_d_given_c: EdgeCpt, level: int) -> Sign:
    """Sign of the child-stratum bias at D=level via the case rules.

    With g1, g0 the cross-product differences at the two collider levels and
    pd1, pd0 = P(D=level | C=1), P(D=level | C=0):

    1. g1 >= 0 and g0 <= 0: the sign of the collider's effect on P(D=level).
    2. g1 <= 0 and g0 >= 0: the opposite of that effect's sign.
    3. g1, g0 of one (weak) sign: zero when pd1/pd0 equals g0/g1; when both
       are negative, positive for pd1/pd0 strictly between g0/g1 and 1 and
       negative outside; when both are positive, the reverse.

    The case verdict is cross-checked against the sign of
    (pd1 - pd0)(pd1 g1 - pd0 g0); ties within closedform.SIGN_TOL report Zero.
    """
    for field_name, value in p_d_given_c.items():
        if not (0.0 < value < 1.0):
            raise OutOfRangeError(f"p_d_given_c[{field_name}]", value, open_interval=True)
    g1 = cross_product_difference(p_c_given, 1)
    g0 = cross_product_difference(p_c_given, 0)
    if band_sign(g1) is Sign.ZERO and band_sign(g0) is Sign.ZERO:
        raise DegenerateStratumError(
            "C", level, "both cross-product differences vanish: some cause has no effect on C"
        )
    pd1 = p_d_given_c.level_given(level, 1)
    pd0 = p_d_given_c.level_given(level, 0)
    child_effect = pd1 - pd0

    if g1 >= 0.0 and g0 <= 0.0:
        case_sign = band_sign(child_effect)
    elif g1 <= 0.0 and g0 >= 0.0:
        case_sign = band_sign(-child_effect)
    else:
        ratio = pd1 / pd0
        threshold = g0 / g1
        if ratio == threshold or ratio == 1.0:
            case_sign = Sign.ZERO
        else:
            inside = min(threshold, 1.0) < ratio < max(threshold, 1.0)
            if g1 < 0.0:
                case_sign = Sign.POSITIVE if inside else Sign.NEGATIVE
            else:
                case_sign = Sign.NEGATIVE if inside else Sign.POSITIVE

    direct = (pd1 - pd0) * (pd1 * g1 - pd0 * g0)
    direct_sign = band_sign(direct)
    if direct_sign is Sign.ZERO:
        return Sign.ZERO
    assert case_sign is direct_sign, (
        f"case rule gave {case_sign.label} but the direct contrast gives "
        f"{direct_sign.label}"
    )
    return direct_sign


def extended_sign(params: StructureParams, conditioning: Conditioning) -> Sign:
    """Sign of the bias in any structure with marginally independent collider
    causes: the embedded V- or Y-structure sign times the signs of the
    extension-path risk differences.

    For linear-model conditioning the embedded sign is that of the lm
    kernel, independent of the collider-child edge.
    """
    if params.kind is StructureKind.NABLA:
        raise ParameterError("sign algebra requires marginally independent causes")
    rd_left, rd_right = extension_rds(params)
    extension = band_sign(rd_left) * band_sign(rd_right)
    if isinstance(conditioning, LinearModel):
        return band_sign(lm_bias_kernel(params)) * extension
    if conditioning.variable != params.kind.conditioning_variable:
        raise ParameterError(
            f"{params.kind.value} conditions on {params.kind.conditioning_variable}, "
            f"not {conditioning.variable}"
        )
    if params.kind.has_child_d:
        assert params.p_d_given_c is not None
        inner = y_stratum_sign(params.p_c_given, params.p_d_given_c, conditioning.level)
    else:
        inner = v_stratum_sign(params.p_c_given, conditioning.level)
    return inner * extension


def v_lm_sign(params: StructureParams) -> Sign:
    """Sign of the regression-adjustment bias in the V structure: the sign
    of the lm kernel.

    Monotone effect patterns pin the sign (both causes pushing the collider
    the same way cannot give positive bias; opposite directions cannot give
    negative bias); the identity ``monotone_lm_sign`` in
    :mod:`colliderbias.verification` checks that.
    """
    if params.kind is not StructureKind.V:
        raise ParameterError(f"operation requires kind V, got {params.kind.value}")
    return band_sign(lm_bias_kernel(params))


class GridFamily(str, Enum):
    """Which sign family a grid sweep evaluates per cell."""

    STRATUM = "stratum"              # collider-stratum signs at C=1 and C=0
    CHILD_STRATUM = "child-stratum"  # child-stratum signs at D=1 and D=0
    REGRESSION = "regression"        # regression-adjustment sign


_GRID_COLUMNS = {
    GridFamily.STRATUM: ("sign_c1", "sign_c0"),
    GridFamily.CHILD_STRATUM: ("sign_d1", "sign_d0"),
    GridFamily.REGRESSION: ("sign_lm",),
}


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
        for name in ("p_c00", "p_c11", "p_left", "p_right"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise OutOfRangeError(name, value)
        if self.p_d_given_c is not None:
            for key, value in self.p_d_given_c.items():
                if not (0.0 <= value <= 1.0):
                    raise OutOfRangeError(f"p_d_given_c[{key}]", value)

    def items(self) -> list[tuple[str, float]]:
        pairs = [
            ("p_c00", self.p_c00),
            ("p_c11", self.p_c11),
            ("p_left", self.p_left),
            ("p_right", self.p_right),
        ]
        if self.p_d_given_c is not None:
            pairs.append(("p_d_given_c[0]", self.p_d_given_c.given_0))
            pairs.append(("p_d_given_c[1]", self.p_d_given_c.given_1))
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

    ``axis`` holds the shared cell-center coordinates; ``cells[i, j, k]`` is
    the integer sign (-1/0/1) of column k at p10 = axis[i], p01 = axis[j].
    """

    family: GridFamily
    fixed: GridFixed
    resolution: int
    axis: np.ndarray
    columns: tuple[str, ...]
    cells: np.ndarray
    zero_loci: tuple[ZeroLocus, ...]


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
    inside the open square.  The output is a pure function of the inputs;
    repeated calls produce identical grids.
    """
    if resolution < 2:
        raise InvalidResolutionError(resolution)
    if family is GridFamily.CHILD_STRATUM and fixed.p_d_given_c is None:
        raise ParameterError("child-stratum grids need p_d_given_c")
    columns = _GRID_COLUMNS[family]
    axis = (np.arange(resolution) + 0.5) / resolution
    cells = np.zeros((resolution, resolution, len(columns)), dtype=np.int8)

    for i, p10 in enumerate(axis):
        for j, p01 in enumerate(axis):
            cpt = ColliderCpt(
                given_00=fixed.p_c00,
                given_01=float(p01),
                given_10=float(p10),
                given_11=fixed.p_c11,
            )
            if family is GridFamily.STRATUM:
                cells[i, j, 0] = int(v_stratum_sign(cpt, 1))
                cells[i, j, 1] = int(v_stratum_sign(cpt, 0))
            elif family is GridFamily.CHILD_STRATUM:
                assert fixed.p_d_given_c is not None
                for k, level in enumerate((1, 0)):
                    try:
                        verdict = y_stratum_sign(cpt, fixed.p_d_given_c, level)
                    except DegenerateStratumError:
                        # Cell center sits where neither cause moves the
                        # collider; the bias is identically zero there.
                        verdict = Sign.ZERO
                    cells[i, j, k] = int(verdict)
            else:
                params = StructureParams(
                    kind=StructureKind.V,
                    p_left=fixed.p_left,
                    p_right=fixed.p_right,
                    p_c_given=cpt,
                )
                cells[i, j, 0] = int(v_lm_sign(params))
    cells.setflags(write=False)
    return SignGrid(
        family=family,
        fixed=fixed,
        resolution=resolution,
        axis=axis,
        columns=columns,
        cells=cells,
        zero_loci=_zero_loci(family, fixed),
    )
