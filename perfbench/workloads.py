"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Every workload turns ``(seed, round)`` into a list of operations with
:meth:`inputs`, runs one operation with :meth:`execute` (the only part that
is timed), and validates its output with :meth:`check`.  Inputs come from
``random.Random`` keyed by the workload name, the seed and the round, so
round ``r`` of seed ``s`` is the same on every machine and no round shares
its inputs with another: a cache that outlives one call gains nothing.

Round 0 of seed 0 is the canary.  It runs before timing in every run, as the
warm-up, and its outputs are compared with the digests pinned below, which
hold the package's contract of byte-identical grids, a stable sampler seed
mapping and a fixed identity set.  Timed rounds start at round 1.

Library functions are looked up on their modules at call time, never bound
here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass

from colliderbias import cli, closedform, joint, structures

KINDS = ("V", "Nabla", "Y", "M", "LeftM", "RightM", "LongM", "LeftLongM", "RightLongM")
# Which optional tables each kind has (the README's structure table).
A_KINDS = frozenset({"M", "LeftM", "LongM", "LeftLongM"})
B_KINDS = frozenset({"M", "RightM", "LongM", "RightLongM"})
D_KINDS = frozenset({"Y", "LongM", "LeftLongM", "RightLongM"})
EXTENDED_KINDS = frozenset({"M", "LeftM", "RightM", "LongM", "LeftLongM", "RightLongM"})

# Strict draws, as the verification battery makes them.
LOW, HIGH = 0.05, 0.95

# The package's tolerances (README, "Numerical contract").
ABS_TOL = 1e-12
REL_TOL_OR = 1e-10

CANARY_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Work per operation and per round; the defaults define the benchmark."""

    verify_draws: int = 20
    query_sets: int = 18
    grid_resolution: int = 60
    sample_draws: int = 1_000_000
    # Rounds the traced run repeats, with and without the tracer.
    trace_rounds: tuple[tuple[str, int], ...] = (
        ("verify-battery", 6),
        ("query-mix", 40),
        ("grid-sweep", 3),
        ("sample-stream", 2),
    )

    def rounds_traced(self, workload: str) -> int:
        return dict(self.trace_rounds)[workload]


DEFAULT_SIZES = Sizes()


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def draw_params(rng: random.Random, kind: str) -> dict:
    """A strict parameter set for ``kind`` in the package's JSON schema."""

    def u() -> float:
        return rng.uniform(LOW, HIGH)

    doc: dict = {"kind": kind, "p_left": u()}
    if kind != "Nabla":
        doc["p_right"] = u()
    doc["p_c_given"] = {key: u() for key in ("00", "01", "10", "11")}
    if kind in A_KINDS:
        doc["p_x_given_a"] = {"0": u(), "1": u()}
    if kind in B_KINDS or kind == "Nabla":
        doc["p_y_given_b"] = {"0": u(), "1": u()}
    if kind in D_KINDS:
        doc["p_d_given_c"] = {"0": u(), "1": u()}
    return doc


def _keyed(table: dict) -> str:
    return ",".join(f"{key}={value!r}" for key, value in table.items())


def params_argv(doc: dict) -> list[str]:
    argv = ["--kind", doc["kind"], "--p-left", repr(doc["p_left"])]
    if "p_right" in doc:
        argv += ["--p-right", repr(doc["p_right"])]
    argv += ["--p-c-given", _keyed(doc["p_c_given"])]
    for field in ("p_x_given_a", "p_y_given_b", "p_d_given_c"):
        if field in doc:
            argv += ["--" + field.replace("_", "-"), _keyed(doc[field])]
    return argv


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` in-process and return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI call or one library query."""

    payload: object
    work: int


class Workload:
    name = ""
    unit = ""  # what one unit of work is, for ops_per_s
    call = ""  # the request call_p50_us times
    # False: a request is one round of operations (its CLI calls); True:
    # every operation is a request of its own.
    call_per_op = False
    # True: the work is on large arrays, so timings are scaled by the host's
    # speed at bulk array work (worker.BulkHostSpeed) instead.
    bulk = False
    pinned: str | None = None  # sha256 of the canary round's pin views

    def __init__(self, sizes: Sizes = DEFAULT_SIZES):
        self.sizes = sizes

    def inputs(self, seed: int, round_index: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> list[str]:
        raise NotImplementedError

    def digest(self, op: Op, output) -> str:
        """Digest of everything the operation returned."""
        return sha256(repr(output))

    def pin_view(self, op: Op, output) -> str:
        """The part of the output the pinned canary digest covers."""
        return self.digest(op, output)


# -- verify-battery --------------------------------------------------------

# Identities with a fixed number of checks per draw, per kind.
_COMMON = {
    "joint_normalization": 1,
    "lm_weighted_average_identity": 1,
}
_INDEPENDENT = {
    **_COMMON,
    "parents_marginally_independent": 1,
    "extended_sign_rule": 2,
    "sign_scale_invariance": 2,
    "lm_sign_rule": 1,
    "lm_vs_oracle": 1,
    "lm_kernel_mixture_identity": 1,
    "lm_normalizer_identity": 1,
    "stratum_cov_vs_oracle": 2,
    "stratum_rd_vs_oracle": 2,
}


def _per_draw(n_vars: int, strata: int, **extra: int) -> dict[str, int]:
    return {
        "cov_bracket_identity": 2 * strata,
        "rd_cov_ratio_identity": 2 * strata,
        "design_symmetry_identity": n_vars * (n_vars - 1) // 2,
        **extra,
    }


VERIFY_CHECKS_PER_DRAW = {
    "V": {**_INDEPENDENT, **_per_draw(3, 1, stratum_or_vs_oracle=2, lm_two_routes_agree=1)},
    "Nabla": {**_COMMON, **_per_draw(3, 1, or_factor_vs_oracle=2)},
    "Y": {
        **_INDEPENDENT,
        **_per_draw(4, 2, stratum_or_vs_oracle=2, embedded_cov_contrast=1, child_sign_cases=2),
    },
    "M": {**_INDEPENDENT, **_per_draw(5, 1, variance_ratio_identity=2)},
    "LeftM": {**_INDEPENDENT, **_per_draw(4, 1, variance_ratio_identity=2)},
    "RightM": {**_INDEPENDENT, **_per_draw(4, 1)},
    "LongM": {**_INDEPENDENT, **_per_draw(6, 2, variance_ratio_identity=2, child_sign_cases=2)},
    "LeftLongM": {**_INDEPENDENT, **_per_draw(5, 2, variance_ratio_identity=2, child_sign_cases=2)},
    "RightLongM": {**_INDEPENDENT, **_per_draw(5, 2, child_sign_cases=2)},
}
# Data-dependent identities: the effect pattern of each draw picks one of the
# pattern checks, and the factorization skips near-zero embedded biases.
_PATTERN_CHECKS = ("monotone_pattern_signs", "qualitative_pattern_signs", "monotone_lm_sign")
_FACTORIZATION = "extension_factorization"


def verify_problems(doc: dict, code: int, draws: int) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"verify exited {code}")
    if doc.get("passed") is not True:
        problems.append("verify reported passed != true")
    kinds = [run["kind"] for run in doc.get("runs", [])]
    if kinds != list(KINDS):
        problems.append(f"verify ran kinds {kinds}")
    for run in doc.get("runs", []):
        kind = run["kind"]
        checked = {item["name"]: item["checked"] for item in run["identities"]}
        if run["draws"] != draws or not run["passed"]:
            problems.append(f"{kind}: draws={run['draws']} passed={run['passed']}")
        for name, per_draw in VERIFY_CHECKS_PER_DRAW.get(kind, {}).items():
            if checked.pop(name, None) != per_draw * draws:
                problems.append(f"{kind}: {name} not checked {per_draw * draws} times")
        if kind in EXTENDED_KINDS:
            if not 0 < checked.pop(_FACTORIZATION, 0) <= 4 * draws:
                problems.append(f"{kind}: {_FACTORIZATION} count out of range")
        if kind != "Nabla":
            monotone, qualitative, monotone_lm = (checked.pop(name, 0) for name in _PATTERN_CHECKS)
            if monotone + qualitative != draws or monotone_lm != monotone:
                problems.append(f"{kind}: pattern checks do not cover every draw")
        if checked:
            problems.append(f"{kind}: unexpected identities {sorted(checked)}")
    return problems


class VerifyBattery(Workload):
    """``verify --all --format json`` through ``cli.main``, one call a round."""

    name = "verify-battery"
    unit = "draw"
    call = "verify --all call"
    pinned = "b77271df9726a5254979930adfa19c16e7fe7441795e1dbb9bcbe2b1f98f41a2"

    def inputs(self, seed: int, round_index: int) -> list[Op]:
        verify_seed = _rng(self.name, seed, round_index).randrange(2**31)
        draws = self.sizes.verify_draws
        argv = ["verify", "--all", "--draws", str(draws), "--seed", str(verify_seed),
                "--format", "json"]
        return [Op(argv, len(KINDS) * draws)]

    def execute(self, op: Op):
        return call_cli(op.payload)

    def check(self, op: Op, output) -> list[str]:
        code, text = output
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return [f"verify printed no JSON (exit {code})"]
        return verify_problems(doc, code, self.sizes.verify_draws)

    def pin_view(self, op: Op, output) -> str:
        doc = json.loads(output[1])
        return repr(
            [(run["kind"], [(i["name"], i["checked"]) for i in run["identities"]])
             for run in doc["runs"]]
        )


# -- query-mix -------------------------------------------------------------


def _closed_routes(kind: str, query) -> tuple:
    """Every public closed form that answers ``query`` for ``kind``."""
    if query == "lm":
        if kind == "Nabla":
            return ()
        routes = [lambda p: closedform.lm_bias(p).value]
        if kind == "V":
            routes.append(lambda p: closedform.v_lm_bias(p).value)
        return tuple(routes)
    _variable, level, scale = query
    enum = structures.Scale(scale)
    if kind == "V" and scale != "rr":
        return (lambda p: closedform.v_stratum_bias(p, level, enum).value,)
    if kind == "Nabla" and scale == "or":
        return (lambda p: closedform.nabla_or_bias_factor(p, level).value,)
    if kind == "Y" and scale != "rr":
        routes = [lambda p: closedform.y_stratum_bias(p, level, enum).value]
        if scale == "cov":
            routes.append(lambda p: closedform.y_bias_from_embedded_v(p, level))
        return tuple(routes)
    if kind in EXTENDED_KINDS and scale in ("cov", "rd"):
        return (lambda p: closedform.extended_stratum_bias(p, level, enum).value,)
    return ()


def _bias_query(query):
    if query == "lm":
        return structures.BiasQuery(structures.LINEAR_MODEL)
    variable, level, scale = query
    return structures.BiasQuery(structures.Stratum(variable, level), structures.Scale(scale))


class QueryMix(Workload):
    """One scalar query at a time through the library, every valid query of
    every parameter set: both strata x {cov, rd, rr, or}, plus lm."""

    name = "query-mix"
    unit = "query"
    call = "query"
    call_per_op = True

    def inputs(self, seed: int, round_index: int) -> list[Op]:
        rng = _rng(self.name, seed, round_index)
        ops = []
        for index in range(self.sizes.query_sets):
            kind = KINDS[index % len(KINDS)]
            doc = draw_params(rng, kind)
            variable = "D" if kind in D_KINDS else "C"
            queries = [(variable, level, scale) for level in (1, 0)
                       for scale in ("cov", "rd", "rr", "or")]
            for query in queries + ["lm"]:
                scale = "lm" if query == "lm" else query[2]
                ops.append(Op((doc, _bias_query(query), _closed_routes(kind, query), scale), 1))
        return ops

    def execute(self, op: Op):
        doc, query, routes, _scale = op.payload
        params = structures.params_from_dict(doc)
        table = joint.build_joint(params)
        oracle = joint.bias(table, query).value
        return oracle, tuple(route(params) for route in routes)

    def check(self, op: Op, output) -> list[str]:
        doc, query, _routes, scale = op.payload
        oracle, closed = output
        where = f"{doc['kind']} {query.conditioning} {scale}"
        if not math.isfinite(oracle):
            return [f"{where}: oracle value {oracle!r} is not finite"]
        problems = []
        for value in closed:
            if not math.isfinite(value):
                problems.append(f"{where}: closed form {value!r} is not finite")
            elif scale == "or":
                if abs(value - oracle) / max(abs(value), abs(oracle), 1e-300) > REL_TOL_OR:
                    problems.append(f"{where}: closed {value!r} vs oracle {oracle!r}")
            elif abs(value - oracle) > ABS_TOL:
                problems.append(f"{where}: closed {value!r} vs oracle {oracle!r}")
        return problems


# -- grid-sweep ------------------------------------------------------------

GRID_FAMILIES = ("stratum", "child-stratum", "regression")


class GridSweep(Workload):
    """``grid`` for each family through ``cli.main``, CSV to stdout."""

    name = "grid-sweep"
    unit = "cell"
    call = "round of three grid calls"
    pinned = "dfb6e50f3838ca50e27866c9b19068df151600789aab46772a39be14d6c15a87"

    def inputs(self, seed: int, round_index: int) -> list[Op]:
        rng = _rng(self.name, seed, round_index)
        resolution = self.sizes.grid_resolution
        ops = []
        for family in GRID_FAMILIES:
            argv = ["grid", "--family", family]
            for flag in ("--p-c00", "--p-c11", "--p-left", "--p-right"):
                argv += [flag, repr(rng.uniform(LOW, HIGH))]
            if family == "child-stratum":
                argv += ["--p-d-given-c", _keyed({"0": rng.uniform(LOW, HIGH),
                                                  "1": rng.uniform(LOW, HIGH)})]
            argv += ["--resolution", str(resolution), "--format", "csv"]
            ops.append(Op(argv, resolution * resolution))
        return ops

    def execute(self, op: Op):
        return call_cli(op.payload)

    def check(self, op: Op, output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"grid exited {code}"]
        try:
            parsed = cli.parse_grid_csv(text)
        except Exception as exc:  # any parse failure is a failed operation
            return [f"grid CSV does not parse: {exc!r}"]
        if cli.grid_to_csv(parsed) != text:
            return ["grid CSV does not round-trip through parse_grid_csv"]
        return []

    def pin_view(self, op: Op, output) -> str:
        return sha256(output[1])


# -- sample-stream ---------------------------------------------------------

SAMPLE_KINDS = ("V", "M", "LongM")


class SampleStream(Workload):
    """``sample`` through ``cli.main`` for a 3-, 5- and 6-variable kind."""

    name = "sample-stream"
    unit = "sampled draw"
    call = "round of three sample calls"
    bulk = True
    pinned = "4a89ba23885f81dd1f22cefdef8843a105555d4bcdf55dbafcb8ce4fe6e9f787"

    def inputs(self, seed: int, round_index: int) -> list[Op]:
        rng = _rng(self.name, seed, round_index)
        draws = self.sizes.sample_draws
        ops = []
        for kind in SAMPLE_KINDS:
            argv = ["sample", *params_argv(draw_params(rng, kind)), "--draws", str(draws),
                    "--seed", str(rng.randrange(2**31)), "--format", "json"]
            ops.append(Op(argv, draws))
        return ops

    def execute(self, op: Op):
        return call_cli(op.payload)

    @staticmethod
    def counts(doc: dict) -> list[int]:
        return [round(cell["observed"] * doc["draws"]) for cell in doc["cells"]]

    def check(self, op: Op, output) -> list[str]:
        code, text = output
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return [f"sample printed no JSON (exit {code})"]
        problems = []
        if code != 0 or doc["within_bound"] is not True:
            problems.append(f"sample exited {code}, within_bound={doc['within_bound']}")
        if doc["max_abs_deviation"] > doc["smoke_bound"]:
            problems.append("sample deviation exceeds the smoke bound")
        if sum(self.counts(doc)) != op.work:
            problems.append(f"sample counts sum to {sum(self.counts(doc))}, not {op.work}")
        return problems

    def pin_view(self, op: Op, output) -> str:
        return repr(self.counts(json.loads(output[1])))


WORKLOADS = {cls.name: cls for cls in (VerifyBattery, QueryMix, GridSweep, SampleStream)}
