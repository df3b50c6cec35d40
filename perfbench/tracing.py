"""Span tracer that wraps the package's functions from outside the package.

Nothing in ``colliderbias`` is edited.  :meth:`Tracer.install` replaces each
function named in :data:`TRACED` with a wrapper at every place that binds it:
the defining module, every module that imported it by name (``from .joint
import build_joint`` makes ``cli.build_joint`` a second binding), the
package namespace, and the class for ``StructureParams.__post_init__``.

Spans are kept in memory as tuples ``(function id, start, end, parent span,
operation id, failed, tag)`` and written out only when the run ends.  A
span's self time is its duration minus the durations of its direct children;
calls are strictly nested because the benchmark runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

MODULES = ("structures", "joint", "closedform", "signmap", "verification", "cli")

TRACED = {
    "structures": ("params_from_dict", "random_structure_params", "StructureParams.__post_init__"),
    "joint": ("build_joint", "bias", "cond_measure", "lm_coefficient", "_xy_stratum_cells", "sample"),
    "closedform": (
        "v_stratum_bias",
        "y_stratum_bias",
        "extended_stratum_bias",
        "nabla_or_bias_factor",
        "lm_bias",
        "v_lm_bias",
        "lm_bias_kernel",
        "lm_weight_normalizer",
        "y_bias_from_embedded_v",
        "cross_product_difference",
    ),
    "signmap": (
        "emit_grid",
        "classify_effects",
        "v_stratum_sign",
        "y_stratum_sign",
        "extended_sign",
        "v_lm_sign",
    ),
    "verification": (
        "verify_kind",
        "_check_joint_basics",
        "_check_closed_vs_oracle",
        "_check_oracle_identities",
        "_check_supplementary",
        "_check_extension_factorization",
        "_check_sign_rules",
    ),
    "cli": ("main", "grid_to_csv", "grid_to_json", "_dump_json"),
}

# Functions through which a workload enters a layer; these also get total_s.
ENTRY_POINTS = (
    "cli.main",
    "verification.verify_kind",
    "signmap.emit_grid",
    "joint.sample",
    "structures.params_from_dict",
    "joint.build_joint",
    "joint.bias",
)

# The oracle queries answered from a built joint table.
ORACLE = ("joint.bias", "joint.cond_measure", "joint.lm_coefficient", "joint._xy_stratum_cells")

KINDS = ("V", "Nabla", "Y", "M", "LeftM", "RightM", "LongM", "LeftLongM", "RightLongM")

# Per-function tags kept on the span, computed from (args, kwargs, result).
_TAGS = {
    # The parameter set itself: frozen dataclasses hash by value, so the
    # number of distinct tags is the number of distinct joint tables built.
    "joint.build_joint": lambda args, kwargs, result: args[0] if args else kwargs["params"],
    "verification.verify_kind": lambda args, kwargs, result: (result.kind.value, result.draws),
    # Computed, not measured: the sampler draws len(order) x n float64 uniforms.
    "joint.sample": lambda args, kwargs, result: len(result.order) * result.draws * 8,
}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for module, functions in TRACED.items():
        for function in functions:
            names.append(f"{module}.{function}.calls")
            names.append(f"{module}.{function}.self_s")
    names += [f"{name}.total_s" for name in ENTRY_POINTS]
    names += [
        "joint.build_joint.calls_per_op",
        "joint.build_joint.distinct_ratio",
        "closedform.joint_builds",
        "joint.oracle.self_s",
    ]
    names += [f"{module}.self_share" for module in MODULES]
    names += [f"{module}.errors" for module in MODULES]
    names += [f"verification.ms_per_draw.{kind}" for kind in KINDS]
    names += ["joint.sample.uniform_bytes_computed", "trace.work_units", "tracing_overhead"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("verification.ms_per_draw."):
        return "ms"
    if name.endswith("uniform_bytes_computed"):
        return "B"
    if name.endswith(("self_share", "distinct_ratio", "calls_per_op", "tracing_overhead")):
        return "ratio"
    return "count"


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "colliderbias" or name.startswith("colliderbias."))
    ]


class Tracer:
    """Records one span per call of each traced function while installed.

    The wrappers are built once, here; :meth:`install` and :meth:`uninstall`
    only swap them in and out, so the traced run can alternate traced and
    untraced rounds into one set of spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        # (owner, attribute, original, wrapper) for every binding.
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"colliderbias.{module_name}")
            for path in functions:
                fid = len(self.names)
                name = f"{module_name}.{path}"
                self.names.append(name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = vars(owner)[attr]
                    wrapper = self._wrap(fid, original, _TAGS.get(name))
                    self._patches.append((owner, attr, original, wrapper))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(fid, original, _TAGS.get(name))
                for candidate in _package_modules():
                    for binding, value in vars(candidate).items():
                        if value is original:
                            self._patches.append((candidate, binding, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    def _wrap(self, fid: int, fn, tag):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                label = None if failed or tag is None else tag(args, kwargs, result)
                spans[index] = (fid, start, end, parent, self.op, failed, label)

        return traced

    # -- reduction ---------------------------------------------------------

    def metrics(self, work_units: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics over every recorded span.

        ``traced_s`` and ``untraced_s`` are the summed operation times of the
        same work with and without the tracer installed.
        """
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        errors = [0] * n
        child_s = [0.0] * len(self.spans)
        for fid, start, end, parent, _op, _failed, _tag in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        fid_of = {name: fid for fid, name in enumerate(self.names)}
        build = fid_of["joint.build_joint"]
        built: set = set()
        closedform_builds = 0
        draw_s = {kind: 0.0 for kind in KINDS}
        draws = {kind: 0 for kind in KINDS}
        uniform_bytes = 0
        for index, (fid, start, end, parent, _op, failed, tag) in enumerate(self.spans):
            duration = end - start
            calls[fid] += 1
            self_s[fid] += duration - child_s[index]
            total_s[fid] += duration
            errors[fid] += failed
            name = self.names[fid]
            if fid == build:
                if tag is not None:
                    built.add(tag)
                if parent >= 0 and self.names[self.spans[parent][0]].startswith("closedform."):
                    closedform_builds += 1
            elif tag is not None and name == "verification.verify_kind":
                kind, kind_draws = tag
                draw_s[kind] += duration
                draws[kind] += kind_draws
            elif tag is not None and name == "joint.sample":
                uniform_bytes += tag

        out: dict[str, float] = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.self_s"] = self_s[fid]
        for name in ENTRY_POINTS:
            out[f"{name}.total_s"] = total_s[fid_of[name]]
        out["joint.build_joint.calls_per_op"] = calls[build] / work_units
        out["joint.build_joint.distinct_ratio"] = len(built) / calls[build] if calls[build] else 0.0
        out["closedform.joint_builds"] = closedform_builds
        out["joint.oracle.self_s"] = sum(self_s[fid_of[name]] for name in ORACLE)
        for module in MODULES:
            fids = [fid for fid, name in enumerate(self.names) if name.startswith(module + ".")]
            out[f"{module}.self_share"] = sum(self_s[fid] for fid in fids) / traced_s
            out[f"{module}.errors"] = sum(errors[fid] for fid in fids)
        for kind in KINDS:
            out[f"verification.ms_per_draw.{kind}"] = (
                1000.0 * draw_s[kind] / draws[kind] if draws[kind] else 0.0
            )
        out["joint.sample.uniform_bytes_computed"] = uniform_bytes
        out["trace.work_units"] = work_units
        out["tracing_overhead"] = traced_s / untraced_s - 1.0
        return {name: out[name] for name in metric_names()}

    def calls_by_function(self) -> dict[str, int]:
        counts = dict.fromkeys(self.names, 0)
        for span in self.spans:
            counts[self.names[span[0]]] += 1
        return counts

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines; the first line names the functions."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"functions": self.names}) + "\n")
            for fid, start, end, parent, op, failed, _tag in self.spans:
                handle.write(f"[{fid},{start!r},{end!r},{parent},{op},{int(failed)}]\n")


def bypass_problems(workload: str, calls: dict[str, int]) -> list[str]:
    """Check the traced calls against the workload's predicted bypasses."""

    def module_calls(module: str) -> int:
        return sum(count for name, count in calls.items() if name.startswith(module + "."))

    problems = []
    if workload == "grid-sweep" and module_calls("joint"):
        problems.append(f"grid-sweep made {module_calls('joint')} joint.* calls, predicted 0")
    if workload == "sample-stream" and module_calls("closedform"):
        problems.append(
            f"sample-stream made {module_calls('closedform')} closedform.* calls, predicted 0"
        )
    if workload in ("verify-battery", "query-mix"):
        for function in TRACED["closedform"]:
            if not calls[f"closedform.{function}"]:
                problems.append(f"{workload} never reached closedform.{function}")
    return problems
