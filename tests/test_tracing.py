"""The benchmark's span tracer observes without changing what it observes:
every command prints the same bytes and exits with the same code under it,
and uninstalling it puts back every function it wrapped."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from colliderbias import StructureKind, StructureParams, cli, random_structure_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, imported as it stands."""
    if not (PERFBENCH / "tracing.py").is_file():
        pytest.skip("perfbench/tracing.py is not in this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _commands(tmp_path):
    """compute for one draw per kind over every query and both formats,
    verify, grid for each family and sample."""
    rng = np.random.default_rng(2024)
    commands = []
    for kind in StructureKind:
        path = tmp_path / f"{kind.value}.json"
        path.write_text(random_structure_params(kind, rng).to_json())
        variable = kind.conditioning_variable
        queries = [["--lm"]] + [
            ["--stratum", f"{variable}={level}", "--scale", scale]
            for level in (1, 0)
            for scale in ("cov", "rd", "rr", "or")
        ]
        for query in queries:
            for fmt in ("text", "json"):
                commands.append(["compute", "--file", str(path), *query, "--format", fmt])
        commands.append(["sample", "--file", str(path), "--draws", "1000", "--seed", "3"])
    commands.append(["verify", "--all", "--draws", "5", "--seed", "7", "--format", "json"])
    grid = ["grid", "--p-c00", "0.15", "--p-c11", "0.75", "--resolution", "7"]
    commands.append([*grid, "--family", "stratum"])
    commands.append([*grid, "--family", "child-stratum", "--p-d-given-c", "0=0.2,1=0.7"])
    commands.append([*grid, "--family", "regression", "--format", "json"])
    return commands


def _run_all(capsys, commands):
    outputs = []
    for argv in commands:
        code = cli.main(list(argv))  # looked up here, where the tracer rebinds it
        outputs.append((code, capsys.readouterr().out.encode()))
    return outputs


def _bindings():
    """Every attribute of every package module, and StructureParams' own
    attributes, by identity."""
    modules = {name: module for name, module in sys.modules.items()
               if name == "colliderbias" or name.startswith("colliderbias.")}
    snapshot = {(name, attr): value for name, module in modules.items()
                for attr, value in vars(module).items()}
    snapshot.update({("StructureParams", attr): value for attr, value in vars(StructureParams).items()})
    return snapshot


def test_tracing_changes_no_output(tracing, capsys, tmp_path):
    commands = _commands(tmp_path)
    untraced = _run_all(capsys, commands)
    assert all(code == 0 and out for code, out in untraced)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run_all(capsys, commands)
    finally:
        tracer.uninstall()
    calls = tracer.calls_by_function()
    for name in ("cli.main", "joint.build_joint", "joint._xy_stratum_cells", "joint.sample",
                 "verification.verify_kind", "signmap.emit_grid", "structures.params_from_dict"):
        assert calls[name] > 0, name  # the wrappers really ran
    assert traced == untraced
    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []

