"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import colliderbias  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    verify_draws=2,
    query_sets=9,
    grid_resolution=4,
    sample_draws=1000,
    trace_rounds=tuple((name, 1) for name in workloads.WORKLOADS),
)


def _describe(op: workloads.Op):
    """The op's inputs without the closures and query objects built from them."""
    if isinstance(op.payload, tuple):
        doc, query, routes, scale = op.payload
        return doc, str(query.conditioning), scale, len(routes), op.work
    return op.payload, op.work


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    workload = workloads.WORKLOADS[name]()
    first = [_describe(op) for op in workload.inputs(5, 3)]
    assert first == [_describe(op) for op in workloads.WORKLOADS[name]().inputs(5, 3)]
    assert first != [_describe(op) for op in workload.inputs(6, 3)]
    assert first != [_describe(op) for op in workload.inputs(5, 4)]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in spec["per_layer"])


def test_tracer_wraps_every_binding():
    from colliderbias import cli, joint, signmap, structures

    originals = {
        "cli.build_joint": cli.build_joint,
        "cli.oracle_bias": cli.oracle_bias,
        "cli.sample": cli.sample,
        "signmap.lm_bias_kernel": signmap.lm_bias_kernel,
        "signmap.cross_product_difference": signmap.cross_product_difference,
        "colliderbias.build_joint": colliderbias.build_joint,
        "joint.build_joint": joint.build_joint,
        "post_init": structures.StructureParams.__post_init__,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {
            "cli.build_joint": cli.build_joint,
            "cli.oracle_bias": cli.oracle_bias,
            "cli.sample": cli.sample,
            "signmap.lm_bias_kernel": signmap.lm_bias_kernel,
            "signmap.cross_product_difference": signmap.cross_product_difference,
            "colliderbias.build_joint": colliderbias.build_joint,
            "joint.build_joint": joint.build_joint,
            "post_init": structures.StructureParams.__post_init__,
        }
        for name, original in originals.items():
            assert wrapped[name] is not original, name
            assert wrapped[name].__wrapped__ is original, name
        assert cli.build_joint is joint.build_joint
    finally:
        tracer.uninstall()
    assert cli.build_joint is originals["cli.build_joint"]
    assert structures.StructureParams.__post_init__ is originals["post_init"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_canary_matches_pins(name):
    tally = worker.Tally()
    worker.canary(workloads.WORKLOADS[name](), tally)
    assert tally.failed == 0, tally.problems
    assert tally.attempted > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, monkeypatch, tmp_path):
    workload = workloads.WORKLOADS[name](TINY)
    tally = worker.Tally()
    metrics, details = worker.measure(workload, seed=7, seconds=0, tally=tally)
    assert tally.failed == 0, tally.problems
    assert details["rounds"] == worker.MIN_ROUNDS
    assert set(metrics) == set(run.END_TO_END_UNITS) - {"setup_s"}
    assert all(value > 0 for value in metrics.values())

    monkeypatch.setattr(worker, "OUT_DIR", tmp_path)
    monkeypatch.setattr(worker, "ROOT", tmp_path)
    traced, details = worker.trace(workload, seed=7, tally=tally)
    assert tally.failed == 0, tally.problems
    assert list(traced) == tracing.metric_names()
    assert (tmp_path / f"spans-{name}.jsonl").is_file()
    assert details["spans"] > 0


def test_bypass_check_catches_a_missed_binding():
    calls = {f"{module}.{name}": 1 for module, names in tracing.TRACED.items() for name in names}
    assert tracing.bypass_problems("grid-sweep", calls)
    assert tracing.bypass_problems("sample-stream", calls)
    calls["closedform.v_lm_bias"] = 0
    assert tracing.bypass_problems("query-mix", calls) == ["query-mix never reached closedform.v_lm_bias"]


def test_command_prints_every_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END_UNITS
    for name, unit in run.END_TO_END_UNITS.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in out.stdout.splitlines())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
