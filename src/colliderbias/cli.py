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
import io
import json
import logging
import math
import os
import sys
from functools import lru_cache

import numpy as np

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
    ZeroLocus,
    classify_effects,
    emit_grid,
    extended_sign,
    v_stratum_sign,
)
from .structures import (
    LINEAR_MODEL,
    BiasQuery,
    ColliderCpt,
    EdgeCpt,
    Scale,
    Stratum,
    StructureKind,
    StructureParams,
    _CONDITIONAL_FIELDS,
    params_from_dict,
)
from .verification import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL_OR,
    KindVerification,
    relative_discrepancy,
    verify_many,
)

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
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{args.file} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ParameterError(f"{args.file} must contain a JSON object")
    if args.kind:
        doc["kind"] = args.kind
    if args.p_left is not None:
        doc["p_left"] = args.p_left
    if args.p_right is not None:
        doc["p_right"] = args.p_right
    if args.p_c_given:
        doc["p_c_given"] = _parse_keyed_floats(args.p_c_given, ColliderCpt.KEYS, "--p-c-given")
    for field_name in _CONDITIONAL_FIELDS:
        raw = getattr(args, field_name)
        if raw:
            doc[field_name] = _parse_keyed_floats(
                raw, EdgeCpt.KEYS, "--" + field_name.replace("_", "-")
            )
    return params_from_dict(doc)


def _parse_stratum(text: str) -> Stratum:
    """``VAR=LEVEL`` as a Stratum, whose constructor holds the C/D and 0/1
    rules; any failure is reported in the flag's own terms."""
    variable, _, level = text.partition("=")
    try:
        return Stratum(variable, int(level))
    except (ValueError, ParameterError):
        raise ParameterError(f"--stratum must look like C=1 or D=0, got {text!r}") from None


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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
    max_abs = float(np.max(np.abs(observed - exact)))
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


def grid_to_csv(grid: SignGrid) -> str:
    """Deterministic CSV rendering: '#'-prefixed metadata lines, then one
    row per cell."""
    out = io.StringIO()
    out.write(f"# family={grid.family.value}\n")
    out.write(f"# resolution={grid.resolution}\n")
    for name, value in grid.fixed.items():
        out.write(f"# {name}={value!r}\n")
    for locus in grid.zero_loci:
        coeffs = " ".join(f"{k}={v!r}" for k, v in locus.coefficients)
        out.write(f"# zero_locus name={locus.name} curve={locus.curve} {coeffs}\n")
    out.write("p10,p01," + ",".join(grid.columns) + "\n")
    # Each axis label is formatted once per grid, not once per cell.
    labels = [repr(value) for value in grid.axis.tolist()]
    for p10, row in zip(labels, grid.cells.tolist()):
        signs = [",".join(map(str, cell)) for cell in row]
        out.write("".join(f"{p10},{p01},{sign}\n" for p01, sign in zip(labels, signs)))
    return out.getvalue()


def parse_grid_csv(text: str) -> SignGrid:
    """Parse :func:`grid_to_csv` output back into a SignGrid."""
    meta: dict[str, str] = {}
    loci: list[ZeroLocus] = []
    rows: list[list[str]] = []
    columns: tuple[str, ...] | None = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("zero_locus "):
                fields = dict(part.split("=", 1) for part in body[len("zero_locus "):].split())
                name = fields.pop("name")
                curve = fields.pop("curve")
                loci.append(
                    ZeroLocus(name, curve, tuple((k, float(v)) for k, v in fields.items()))
                )
            else:
                key, _, value = body.partition("=")
                meta[key] = value
            continue
        if columns is None:
            columns = tuple(line.split(",")[2:])
            continue
        rows.append(line.split(","))
    if columns is None:
        raise ParameterError("grid csv has no header row")
    resolution = int(meta["resolution"])
    d_cpt = None
    if "p_d_given_c[0]" in meta:
        d_cpt = EdgeCpt(given_0=float(meta["p_d_given_c[0]"]), given_1=float(meta["p_d_given_c[1]"]))
    fixed = GridFixed(
        p_c00=float(meta["p_c00"]),
        p_c11=float(meta["p_c11"]),
        p_left=float(meta["p_left"]),
        p_right=float(meta["p_right"]),
        p_d_given_c=d_cpt,
    )
    if len(rows) != resolution * resolution:
        raise ParameterError(
            f"grid csv has {len(rows)} rows, expected {resolution * resolution}"
        )
    # The first row block runs p01 over every cell center; repr round-trips.
    axis = np.array([float(row[1]) for row in rows[:resolution]])
    cells = np.zeros((resolution, resolution, len(columns)), dtype=np.int8)
    for index, row in enumerate(rows):
        i, j = divmod(index, resolution)
        cells[i, j] = [int(v) for v in row[2:]]
    cells.setflags(write=False)
    return SignGrid(
        family=GridFamily(meta["family"]),
        fixed=fixed,
        resolution=resolution,
        axis=axis,
        columns=columns,
        cells=cells,
        zero_loci=tuple(loci),
    )


def grid_to_json(grid: SignGrid) -> str:
    doc = {
        "command": "grid",
        "family": grid.family.value,
        "resolution": grid.resolution,
        "fixed": dict(grid.fixed.items()),
        "axis": [float(v) for v in grid.axis],
        "columns": list(grid.columns),
        "cells": grid.cells.tolist(),
        "zero_loci": [
            {"name": locus.name, "curve": locus.curve, "coefficients": dict(locus.coefficients)}
            for locus in grid.zero_loci
        ],
    }
    return _dump_json(doc)


def cmd_grid(args: argparse.Namespace) -> int:
    d_cpt = None
    if args.p_d_given_c:
        keyed = _parse_keyed_floats(args.p_d_given_c, EdgeCpt.KEYS, "--p-d-given-c")
        d_cpt = EdgeCpt(given_0=keyed["0"], given_1=keyed["1"])
    fixed = GridFixed(
        p_c00=args.p_c00,
        p_c11=args.p_c11,
        p_left=args.p_left,
        p_right=args.p_right,
        p_d_given_c=d_cpt,
    )
    grid = emit_grid(GridFamily(args.family), fixed, args.resolution)
    if args.format == "json":
        _emit(args, grid_to_json(grid))
    else:
        _emit(args, grid_to_csv(grid))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                        help="print each kind's wall-clock seconds to stderr")

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

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing leaves it
    unchanged, and each build leaves hundreds of objects in reference cycles
    for the cyclic collector."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    log.info("running %s", args.command)
    try:
        return args.func(args)
    except ColliderBiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
