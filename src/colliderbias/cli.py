"""Command-line front end.

Five subcommands: ``compute`` (closed-form bias plus oracle cross-check),
``sign`` (qualitative analysis), ``verify`` (randomized identity fuzzing),
``sample`` (Monte Carlo sanity channel) and ``grid`` (sign-region export).

Exit codes are a stable contract: 0 success, 1 an identity or tolerance
check failed, 2 malformed input.  Machine-readable output (json, and csv
for grids) round-trips through the parsers in this module.  Set
``COLLIDER_BIAS_LOG`` to a level name (debug/info/...) for diagnostics on
stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import os
import sys
import time
from contextlib import nullcontext
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from . import __version__
from .closedform import closed_form
from .errors import ColliderBiasError, ParameterError
from .joint import bias as oracle_bias
from .joint import build_joint, sample
from .signmap import (
    MAX_GRID_RESOLUTION,
    GridFamily,
    GridFixed,
    SignGrid,
    classify_effects,
    emit_grid,
    extended_sign,
    v_stratum_sign,
)
from .structures import (
    LINEAR_MODEL,
    BiasQuery,
    EdgeCpt,
    Scale,
    Stratum,
    StructureKind,
    StructureParams,
    _FIELD_TYPES,
    params_from_dict,
)
from .verification import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL_OR,
    KindVerification,
    relative_discrepancy,
    verify_many,
)

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger("colliderbias")

_KIND_CHOICES = [kind.value for kind in StructureKind]


def _configure_logging() -> None:
    level_name = os.environ.get("COLLIDER_BIAS_LOG", "").strip()
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if isinstance(level, int):
        logging.basicConfig(stream=sys.stderr, level=level,
                            format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# parameter ingestion: config file fields overridden by inline flags


def _parse_keyed_floats(text: str, keys: tuple[str, ...], flag: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ParameterError(f"{flag}: expected key=value entries, got {chunk!r}")
        key = key.strip()
        if key not in keys:
            raise ParameterError(f"{flag}: unknown key {key!r} (expected {'/'.join(keys)})")
        if key in out:
            raise ParameterError(f"{flag}: duplicate key {key!r}")
        try:
            out[key] = float(value)
        except ValueError:
            raise ParameterError(f"{flag}: {value!r} is not a number") from None
    if not out:
        raise ParameterError(f"{flag}: expected key=value entries, got {text!r}")
    missing = [key for key in keys if key not in out]
    if missing:
        raise ParameterError(f"{flag}: missing key {missing[0]!r}")
    return out


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("structure parameters")
    group.add_argument("--kind", choices=_KIND_CHOICES, help="structure kind")
    group.add_argument("--file", help="JSON parameter file; flags override its fields")
    group.add_argument("--p-left", type=float, help="P(left cause = 1)")
    group.add_argument("--p-right", type=float, help="P(right cause = 1)")
    group.add_argument("--p-c-given", metavar="00=F,01=F,10=F,11=F",
                       help="collider table, keyed (left,right)")
    group.add_argument("--p-x-given-a", metavar="0=F,1=F", help="P(X=1 | A=a)")
    group.add_argument("--p-y-given-b", metavar="0=F,1=F",
                       help="P(Y=1 | B=b); for Nabla, P(Y=1 | X=x)")
    group.add_argument("--p-d-given-c", metavar="0=F,1=F", help="P(D=1 | C=c)")


def _params_from_args(args: argparse.Namespace) -> StructureParams:
    doc: dict = {}
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except OSError as exc:
            raise ParameterError(f"cannot read {args.file}: {exc}") from None
        except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to read
            raise ParameterError(f"{args.file} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ParameterError(f"{args.file} must contain a JSON object")
    if args.kind:
        doc["kind"] = args.kind
    for field_name, field_type in _FIELD_TYPES.items():
        raw = getattr(args, field_name)
        if raw is None:
            continue
        if field_type is not float:
            raw = _parse_keyed_floats(raw, field_type.KEYS, "--" + field_name.replace("_", "-"))
        doc[field_name] = raw
    return params_from_dict(doc)


def _parse_stratum(text: str) -> Stratum:
    """``VAR=LEVEL`` as a Stratum, whose constructor holds the C/D and 0/1
    rules; any failure is reported in the flag's own terms."""
    variable, _, level = text.partition("=")
    try:
        return Stratum(variable, int(level))
    except (ValueError, ParameterError):
        raise ParameterError(f"--stratum must look like C=1 or D=0, got {text!r}") from None


def _emit(args: argparse.Namespace, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or its blocks in order, to ``--out`` or to
    stdout.  The first block is made before the target is opened, so an
    error in making it writes nothing and creates no file.  A target that
    cannot be written, such as a missing directory, a full disk or a closed
    pipe, exits 2 like malformed input: exit 1 means a failed check."""
    blocks = iter((text,) if isinstance(text, str) else text)
    first = next(blocks, "")
    out = getattr(args, "out", None)
    try:
        target = open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout)
        with target as handle:
            for block in itertools.chain((first,), blocks):
                handle.write(block)
            handle.flush()
    except OSError as exc:
        if out:
            raise ParameterError(f"cannot write {out}: {exc}") from None
        raise _lost_stdout(exc) from None


def _lost_stdout(exc: OSError) -> ParameterError:
    """The error for a stdout that cannot be written.  The interpreter
    flushes stdout again on exit, which would fail the same way and exit
    120, so what is left goes to the null device."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return ParameterError(f"cannot write stdout: {exc}")


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    if args.lm and args.stratum:
        raise ParameterError("--stratum and --lm are mutually exclusive")
    if args.lm:
        query = BiasQuery(LINEAR_MODEL)
    elif args.stratum:
        query = BiasQuery(_parse_stratum(args.stratum), Scale(args.scale))
    else:
        raise ParameterError("compute needs either --stratum VAR=LEVEL or --lm")

    table = build_joint(params)
    oracle = oracle_bias(table, query)
    report = closed_form(params, query)

    ratio_scale = oracle.scale.is_ratio
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = DEFAULT_REL_TOL_OR if ratio_scale else DEFAULT_ABS_TOL
    elif not 0.0 <= tolerance < math.inf:
        raise ParameterError(f"--tolerance must be finite and >= 0, got {tolerance!r}")
    doc: dict = {
        "command": "compute",
        "kind": params.kind.value,
        "params": params.to_dict(),
        "query": {
            "conditioning": str(query.conditioning),
            "scale": oracle.scale.value,
        },
        "oracle": {"value": oracle.value},
        "closed_form": None,
        "tolerance": tolerance,
        "within_tolerance": True,
    }
    if report is not None:
        abs_disc = abs(report.value - oracle.value)
        rel_disc = relative_discrepancy(report.value, oracle.value)
        doc["closed_form"] = {
            "value": report.value,
            "sign": report.sign.label,
            "factors": dict(report.factors),
        }
        doc["abs_discrepancy"] = abs_disc
        doc["rel_discrepancy"] = rel_disc
        doc["within_tolerance"] = (rel_disc if ratio_scale else abs_disc) <= tolerance

    if args.format == "json":
        _emit(args, _dump_json(doc))
    else:
        lines = [
            f"kind:        {params.kind.value}",
            f"query:       {doc['query']['conditioning']} on scale {doc['query']['scale']}",
            f"oracle:      {oracle.value!r}",
        ]
        if report is None:
            lines.append("closed form: none for this query (oracle value is authoritative)")
        else:
            lines.append(f"closed form: {report.value!r} (sign {report.sign.label})")
            for name in sorted(report.factors):
                lines.append(f"  factor {name} = {report.factors[name]!r}")
            lines.append(
                f"discrepancy: abs {doc['abs_discrepancy']:.3e}"
                f" rel {doc['rel_discrepancy']:.3e}"
                f" (tolerance {tolerance:g}:"
                f" {'ok' if doc['within_tolerance'] else 'EXCEEDED'})"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if doc["within_tolerance"] else 1


# ---------------------------------------------------------------------------
# sign


def cmd_sign(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    kind = params.kind
    effects = classify_effects(params.p_c_given)
    doc: dict = {
        "command": "sign",
        "kind": kind.value,
        "params": params.to_dict(),
        "pattern": effects.pattern.value,
        "canonical_level": effects.canonical_level,
        "interactions": {
            "rr_canonical": effects.rr_interaction_canonical.label,
            "rr_other": effects.rr_interaction_other.label,
            "or": effects.or_interaction.label,
            "rd": effects.rd_interaction.label,
        },
    }
    variable = kind.conditioning_variable
    if kind is StructureKind.NABLA:
        doc["stratum_signs"] = {
            f"C={level}": v_stratum_sign(params.p_c_given, level).label for level in (0, 1)
        }
        doc["note"] = "stratum signs apply to the odds-ratio scale only"
    else:
        doc["stratum_signs"] = {
            f"{variable}={level}": extended_sign(params, Stratum(variable, level)).label
            for level in (0, 1)
        }
        doc["lm_sign"] = extended_sign(params, LINEAR_MODEL).label

    if args.format == "json":
        _emit(args, _dump_json(doc))
    else:
        lines = [
            f"kind:            {kind.value}",
            f"effect pattern:  {doc['pattern']} (canonical level {doc['canonical_level']})",
            "interactions:    "
            + ", ".join(f"{k}={v}" for k, v in doc["interactions"].items()),
        ]
        for name, value in doc["stratum_signs"].items():
            lines.append(f"bias sign {name}:  {value}")
        if "lm_sign" in doc:
            lines.append(f"bias sign lm:    {doc['lm_sign']}")
        if "note" in doc:
            lines.append(f"note: {doc['note']}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _verification_doc(runs: list[KindVerification]) -> dict:
    return {
        "command": "verify",
        "runs": [
            {
                "kind": run.kind.value,
                "draws": run.draws,
                "seed": run.seed,
                "passed": run.passed,
                "identities": [
                    {
                        "name": result.name,
                        "checked": result.checked,
                        "max_discrepancy": result.max_discrepancy,
                        "tolerance": result.tolerance,
                        "failures": result.failures,
                    }
                    for result in sorted(run.identities, key=lambda r: r.name)
                ],
            }
            for run in runs
        ],
        "passed": all(run.passed for run in runs),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all:
        kinds = list(StructureKind)
    elif args.kind:
        kinds = [StructureKind(args.kind)]
    else:
        raise ParameterError("verify needs --kind KIND or --all")
    runs = verify_many(kinds, draws=args.draws, seed=args.seed)
    if args.timings:
        for run in runs:
            print(f"{run.kind.value}: {run.elapsed_seconds:.3f} s", file=sys.stderr)
            for stage, seconds in run.stage_seconds.items():
                print(f"{run.kind.value} {stage}: {seconds:.3f} s", file=sys.stderr)
    doc = _verification_doc(runs)

    if args.format == "json":
        _emit(args, _dump_json(doc))
    else:
        lines = []
        for run in doc["runs"]:
            lines.append(
                f"{run['kind']}: draws={run['draws']} seed={run['seed']} "
                f"{'pass' if run['passed'] else 'FAIL'}"
            )
            for result in run["identities"]:
                lines.append(
                    f"  {result['name']:<34s} checked={result['checked']:<6d} "
                    f"max={result['max_discrepancy']:.3e} "
                    f"tol={result['tolerance']:.0e} "
                    f"{'ok' if result['failures'] == 0 else 'FAIL(' + str(result['failures']) + ')'}"
                )
        lines.append("overall: " + ("pass" if doc["passed"] else "FAIL"))
        _emit(args, "\n".join(lines) + "\n")
    return 0 if doc["passed"] else 1


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    freq = sample(params, args.draws, args.seed)
    exact = build_joint(params).mass
    observed = freq.frequencies
    max_abs = float(abs(observed - exact).max())
    # Per-cell standard error is at most 0.5/sqrt(n); five of those is a
    # generous smoke bound, not a statistical test.
    bound = 5 * 0.5 / math.sqrt(args.draws)
    doc = {
        "command": "sample",
        "kind": params.kind.value,
        "order": list(freq.order),
        "draws": args.draws,
        "seed": args.seed,
        "cells": [
            {
                "assignment": format(i, f"0{len(freq.order)}b"),
                "exact": float(exact[i]),
                "observed": float(observed[i]),
            }
            for i in range(exact.shape[0])
        ],
        "max_abs_deviation": max_abs,
        "smoke_bound": bound,
        "within_bound": max_abs <= bound,
    }
    if args.format == "json":
        _emit(args, _dump_json(doc))
    else:
        header = "".join(freq.order)
        lines = [f"{header}  exact       observed    |diff|"]
        for cell in doc["cells"]:
            diff = abs(cell["observed"] - cell["exact"])
            lines.append(
                f"{cell['assignment']}  {cell['exact']:.8f}  {cell['observed']:.8f}  {diff:.2e}"
            )
        lines.append(
            f"max |observed - exact| = {max_abs:.3e}"
            f" (smoke bound {bound:.3e}: {'ok' if doc['within_bound'] else 'EXCEEDED'})"
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if doc["within_bound"] else 1


# ---------------------------------------------------------------------------
# grid


# A grid is rendered, and written, in blocks of whole rows of about this many
# cells, so only one block's text exists at a time.
_BLOCK_CELLS = 1 << 14


def _row_blocks(resolution: int) -> Iterator[slice]:
    """The rows of a grid in blocks of about _BLOCK_CELLS cells, at least one
    row each."""
    step = max(1, _BLOCK_CELLS // resolution)
    return (slice(first, first + step) for first in range(0, resolution, step))


def grid_to_csv(grid: SignGrid) -> str:
    """Deterministic CSV rendering: '#'-prefixed metadata lines, then one
    row per cell.

    The text is made in blocks of rows (:func:`_grid_csv_blocks`), which
    ``grid`` writes as each is made and this function joins.  So a
    resolution-2000 ``grid`` run, with ~80 MB of CSV, peaks at 98 MB RSS
    (stratum), 121 MB (regression) or 160 MB (child-stratum): the peak of
    the sweep, not of the text.
    """
    return "".join(_grid_csv_blocks(grid))


def _grid_csv_blocks(grid: SignGrid) -> Iterator[str]:
    """:func:`grid_to_csv` in blocks of rows, about _BLOCK_CELLS cells each,
    the metadata and header lines leading the first.  The signs are checked
    before the first block, so a sign outside -1/0/1 raises ValueError on
    the first ``next``."""
    import numpy as np

    combos = _sign_combos(grid)
    head = [f"# family={grid.family.value}\n", f"# resolution={grid.resolution}\n"]
    head += [f"# {name}={value!r}\n" for name, value in grid.fixed.items()]
    for locus in grid.zero_loci:
        coeffs = " ".join(f"{k}={v!r}" for k, v in locus.coefficients)
        head.append(f"# zero_locus name={locus.name} curve={locus.curve} {coeffs}\n")
    head.append("p10,p01," + ",".join(grid.columns) + "\n")
    # Every row shares the tails ",p01,signs\n", one per column and sign
    # combination, made once per grid; column j's tail for code c sits at
    # j * 3**k + c, so one gather per block finds each row's tails.
    labels = [repr(value) for value in grid.axis.tolist()]
    endings = ["," + ",".join(map(str, combo)) + "\n" for combo in combos]
    tails = np.array(["," + label + ending for label in labels for ending in endings],
                     dtype=object)
    offsets = np.arange(0, tails.size, len(endings))
    # The header goes out with the first rows, and no row's text outlives its
    # block's join: peak memory stays that of one block.
    for rows in _row_blocks(grid.resolution):
        block = zip(labels[rows], tails[_sign_codes(grid.cells[rows]) + offsets].tolist())
        yield "".join(head + [p10 + p10.join(row) for p10, row in block])
        head = []


def _sign_combos(grid: SignGrid) -> list[tuple[int, ...]]:
    """The 3**k sign combinations of a grid's k columns, in the order that
    :func:`_sign_codes` indexes.  A sign outside -1/0/1 anywhere in the grid
    raises ValueError, so a renderer that calls this first raises before
    its first block."""
    if not -1 <= grid.cells.min() <= grid.cells.max() <= 1:
        raise ValueError("a grid sign must be -1, 0 or 1")
    return list(itertools.product((-1, 0, 1), repeat=len(grid.columns)))


def _sign_codes(cells: np.ndarray) -> np.ndarray:
    """The index of each cell's combination in :func:`_sign_combos`, for a
    block of a grid's cells: its signs + 1 read as base-3 digits."""
    import numpy as np

    digits = np.moveaxis(cells + 1, -1, 0)
    return np.ravel_multi_index(tuple(digits), (3,) * cells.shape[-1])


def parse_grid_csv(text: str) -> SignGrid:
    """Parse :func:`grid_to_csv` output back into a SignGrid.

    The metadata lines give the family, the resolution and the fixed
    parameters, and the rows' last fields give the signs.  The text must
    then be exactly what grid_to_csv prints for that grid, which checks the
    header, every coordinate and the zero loci; any other text raises
    ParameterError.  Public API, with grid_to_csv: the benchmark's grid
    check and CI read grids back with it.
    """
    meta: dict[str, str] = {}
    start = 0
    while text.startswith("#", start):
        end = text.find("\n", start) + 1 or len(text)
        key, _, value = text[start + 1:end].strip().partition("=")
        meta[key] = value
        start = end

    def metadata(convert, name: str):
        try:
            return convert(meta[name])
        except KeyError:
            raise ParameterError(f"grid csv has no '# {name}=' metadata line") from None
        except ValueError:
            raise ParameterError(f"grid csv metadata {name}={meta[name]!r} is malformed") from None

    family = metadata(GridFamily, "family")
    resolution = metadata(int, "resolution")
    d_cpt = None
    if any(f"p_d_given_c[{k}]" in meta for k in EdgeCpt.KEYS):
        d_cpt = EdgeCpt.from_keyed({k: metadata(float, f"p_d_given_c[{k}]") for k in EdgeCpt.KEYS})
    fixed = GridFixed(
        **{name: metadata(float, name) for name in ("p_c00", "p_c11", "p_left", "p_right")},
        p_d_given_c=d_cpt,
    )
    rows = max(text.count("\n", start) - 1, 0)  # the lines after the header
    if resolution < 2 or rows != resolution * resolution:
        raise ParameterError(f"grid csv has {rows} rows for resolution {resolution}")
    cells = _decode_signs(text, start, len(family.columns))
    grid = SignGrid(family, fixed, cells.reshape(resolution, resolution, -1))
    expected = grid_to_csv(grid)
    if expected != text:
        raise ParameterError(
            "grid csv is not what grid_to_csv prints for its metadata and signs"
            f" (first difference on line {_first_differing_line(text, expected)})"
        )
    return grid


def _decode_signs(text: str, start: int, width: int) -> np.ndarray:
    """The last ``width`` fields of each line after the header at ``start``,
    read from the line's end as signs -1, 0 or 1.  Text that is not signs
    decodes to some grid that the round-trip check of parse_grid_csv
    rejects."""
    import numpy as np

    buf = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    at = np.flatnonzero(buf[start:] == ord("\n"))[1:] + (start - 1)
    cells = np.empty((at.size, width), dtype=np.int8)
    for k in reversed(range(width)):
        # mode="clip" keeps every index in range whatever the text holds.
        one = buf.take(at, mode="clip") == ord("1")
        minus = buf.take(at - 1, mode="clip") == ord("-")
        cells[:, k] = np.where(one, np.where(minus, -1, 1), 0)
        at -= 2 + minus
    cells.setflags(write=False)
    return cells


def _first_differing_line(text: str, expected: str) -> int:
    """Line number, from 1, of the first difference between two texts; a
    bisection on the common prefix, so each probe is one C-level compare."""
    low, high = 0, min(len(text), len(expected))
    while low < high:
        middle = (low + high + 1) // 2
        if text[:middle] == expected[:middle]:
            low = middle
        else:
            high = middle - 1
    return text.count("\n", 0, low) + 1


def grid_to_json(grid: SignGrid) -> str:
    """One JSON object; ``cells`` is the nested list ``grid.cells.tolist()``
    as json.dumps writes it.

    Made, like :func:`grid_to_csv`, in blocks of rows
    (:func:`_grid_json_blocks`) that ``grid`` writes as each is made and
    this function joins; a resolution-2000 run peaks at the RSS of its
    sweep, as the CSV does.
    """
    return "".join(_grid_json_blocks(grid))


def _grid_json_blocks(grid: SignGrid) -> Iterator[str]:
    """:func:`grid_to_json` in the row blocks of :func:`_grid_csv_blocks`,
    each rendered from the 3**k cell strings, the dump of the other keys up
    to ``cells`` leading the first and the rest of it following the last.
    The signs are checked before the first block, as there."""
    import numpy as np

    combos = _sign_combos(grid)
    doc = {
        "command": "grid",
        "family": grid.family.value,
        "resolution": grid.resolution,
        "fixed": dict(grid.fixed.items()),
        "axis": grid.axis.tolist(),
        "columns": list(grid.columns),
        "cells": [],
        "zero_loci": [
            {"name": locus.name, "curve": locus.curve, "coefficients": dict(locus.coefficients)}
            for locus in grid.zero_loci
        ],
    }
    # No key or string of the other fields holds this text.
    head, tail = _dump_json(doc).split('"cells": []', 1)
    cell_texts = np.array([json.dumps(list(combo)) for combo in combos], dtype=object)
    yield head + '"cells": ['
    for rows in _row_blocks(grid.resolution):
        if rows.start:
            yield ", "
        block = cell_texts[_sign_codes(grid.cells[rows])].tolist()
        yield ", ".join(["[" + ", ".join(row) + "]" for row in block])
    yield "]" + tail


def cmd_grid(args: argparse.Namespace) -> int:
    d_cpt = None
    if args.p_d_given_c is not None:
        d_cpt = EdgeCpt.from_keyed(
            _parse_keyed_floats(args.p_d_given_c, EdgeCpt.KEYS, "--p-d-given-c")
        )
    fixed = GridFixed(
        p_c00=args.p_c00,
        p_c11=args.p_c11,
        p_left=args.p_left,
        p_right=args.p_right,
        p_d_given_c=d_cpt,
    )
    started = time.perf_counter()
    grid = emit_grid(GridFamily(args.family), fixed, args.resolution)
    swept = time.perf_counter()
    _emit(args, _grid_json_blocks(grid) if args.format == "json" else _grid_csv_blocks(grid))
    if args.timings:
        print(f"sweep: {swept - started:.3f} s", file=sys.stderr)
        print(f"render and write: {time.perf_counter() - swept:.3f} s", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help, usage and version text, on a stdout
    that cannot take it, raises the error of every subcommand's output;
    argparse itself ignores the failed write and exits 0."""

    def _print_message(self, message: str, file=None) -> None:
        if not message or file is None or file is not sys.stdout:
            return super()._print_message(message, file)
        try:
            file.write(message)
            file.flush()
        except OSError as exc:
            raise _lost_stdout(exc) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="collider-bias",
        description="Exact magnitude and sign of collider bias for binary-variable structures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, formats=("text", "json")) -> argparse.ArgumentParser:
        """A subcommand; each writes one of ``formats`` to stdout or --out."""
        command_parser = sub.add_parser(name, help=help)
        command_parser.set_defaults(func=func)
        command_parser.add_argument("--format", choices=list(formats), default=formats[0])
        command_parser.add_argument("--out", help="write output to a file instead of stdout")
        return command_parser

    compute = command("compute", cmd_compute, "closed-form bias with oracle cross-check")
    _add_params_flags(compute)
    compute.add_argument("--scale", choices=["cov", "rd", "rr", "or"], default="cov")
    compute.add_argument("--stratum", metavar="VAR=LEVEL", help="condition on C=c or D=d")
    compute.add_argument("--lm", action="store_true", help="linear-regression adjustment")
    compute.add_argument("--tolerance", type=float,
                         help="override the discrepancy tolerance; a finite number >= 0")

    _add_params_flags(command("sign", cmd_sign, "qualitative sign analysis"))

    verify = command("verify", cmd_verify, "randomized closed-form/oracle identity checks")
    verify_target = verify.add_mutually_exclusive_group()
    verify_target.add_argument("--kind", choices=_KIND_CHOICES)
    verify_target.add_argument("--all", action="store_true", help="verify all nine kinds")
    verify.add_argument("--draws", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--timings", action="store_true",
                        help="print each kind's wall-clock seconds, and those of each of its "
                        "stages, to stderr")

    sample_cmd = command("sample", cmd_sample, "Monte Carlo frequencies vs exact masses")
    _add_params_flags(sample_cmd)
    sample_cmd.add_argument("--draws", type=int, default=100000)
    sample_cmd.add_argument("--seed", type=int, default=0)

    grid = command("grid", cmd_grid, "export a sign-region grid", formats=("csv", "json"))
    grid.add_argument("--family", choices=[f.value for f in GridFamily], required=True)
    grid.add_argument("--p-c00", type=float, required=True, help="fixed P(C=1|0,0)")
    grid.add_argument("--p-c11", type=float, required=True, help="fixed P(C=1|1,1)")
    grid.add_argument("--p-left", type=float, default=0.5, help="P(left cause = 1)")
    grid.add_argument("--p-right", type=float, default=0.5, help="P(right cause = 1)")
    grid.add_argument("--p-d-given-c", metavar="0=F,1=F",
                      help="collider-child edge (child-stratum family)")
    grid.add_argument("--resolution", type=int, default=200,
                      help=f"cells per axis, 2 to {MAX_GRID_RESOLUTION} (default 200)")
    grid.add_argument("--timings", action="store_true",
                      help="print the seconds of the sweep and of render and write to stderr")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing leaves it
    unchanged, and each build leaves hundreds of objects in reference cycles
    for the cyclic collector."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    try:
        args = _parser().parse_args(argv)
        log.info("running %s", args.command)
        return args.func(args)
    except ColliderBiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
