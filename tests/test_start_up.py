"""The single-query path needs no numpy: ``import colliderbias``, ``--help``,
``compute``, ``sign`` and malformed input run with numpy blocked and print
what they print with numpy available.  No module of the package needs a
package it does not declare."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import colliderbias
from colliderbias import Scale, StructureKind, random_structure_params

PACKAGE_ROOT = str(Path(colliderbias.__file__).resolve().parents[1])

# Runs each argv of the JSON list on stdin through cli.main in this one
# process and prints every (exit code, stdout, stderr), and whether numpy
# was loaded.  With the argument "blocked", importing numpy raises.
RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from colliderbias.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"numpy_loaded": sys.modules.get("numpy") is not None, "results": results}))
"""


def _python(*args: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    env.pop("COLLIDER_BIAS_LOG", None)
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=300
    )


def _single_query_argvs(tmp_path: Path) -> list[list[str]]:
    argvs = [["--help"], ["compute", "--scale", "bogus"]]
    rng = np.random.default_rng(2016)
    for kind in StructureKind:
        doc = tmp_path / f"{kind.value}.json"
        doc.write_text(random_structure_params(kind, rng).to_json(), encoding="utf-8")
        variable = kind.conditioning_variable
        for fmt in ("text", "json"):
            base = ["--file", str(doc), "--format", fmt]
            for level in (1, 0):
                for scale in (Scale.COV, Scale.RD, Scale.RR, Scale.OR):
                    argvs.append(["compute", *base, "--stratum", f"{variable}={level}",
                                  "--scale", scale.value])
            argvs.append(["compute", *base, "--lm"])
            argvs.append(["sign", *base])
    # A fixed cause: every sign is zero, and still no numpy.
    argvs.append(["sign", "--kind", "V", "--p-left", "0", "--p-right", "0.5",
                  "--p-c-given", "00=0.1,01=0.2,10=0.3,11=0.9", "--format", "json"])
    # An empty (X, Y, C) cell: Nabla's stratum signs are zero, and still no numpy.
    argvs.append(["sign", "--kind", "Nabla", "--p-left", "0", "--p-y-given-b", "0=0.3,1=0.6",
                  "--p-c-given", "00=0.1,01=0.2,10=0.3,11=0.9", "--format", "json"])
    malformed = {
        "not-json": "{",
        "missing": '{"kind": "V", "p_left": 0.5}',
        "out-of-range": '{"kind": "V", "p_left": 1.5, "p_right": 0.5,'
                        ' "p_c_given": {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}}',
    }
    for name, text in malformed.items():
        doc = tmp_path / f"{name}.json"
        doc.write_text(text, encoding="utf-8")
        argvs.append(["compute", "--file", str(doc), "--lm"])
    return argvs


def test_import_loads_no_numpy():
    proc = _python("-c", "import sys, colliderbias; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_cli_import_loads_no_thread_pool():
    # The sampler imports its pool when it runs, so start-up does not pay for it.
    proc = _python("-c", "import sys, colliderbias.cli; print('concurrent.futures' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_cli_import_compiles_no_product_kernel():
    # A kind's product kernel is compiled when that kind is first built.
    proc = _python("-c", "import colliderbias.cli, colliderbias.joint as j; "
                         "print(j._grow_cells.cache_info().currsize)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_cli_import_compiles_no_parser_or_construction_check():
    # A kind's parser and construction check are compiled when that kind is
    # first parsed or constructed, so start-up does not pay for them.
    proc = _python("-c", "import colliderbias.cli, colliderbias.structures as s; "
                         "print(s._front_end.cache_info().currsize)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_parameter_entry_loads_no_fractions():
    # A Fraction entry is told apart without importing its module; 1 is an
    # int, so the document takes the path past the float check.
    doc = {"kind": "V", "p_left": 1, "p_right": 0.5, "p_c_given": {"00": 0.1, "01": 0.2, "10": 0.3, "11": 0.4}}
    proc = _python("-c", f"import sys, colliderbias as c; c.params_from_dict({doc!r}); "
                         "print('fractions' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_single_queries_run_without_numpy(tmp_path):
    argvs = _single_query_argvs(tmp_path)
    runs = {}
    for mode in ("blocked", "available"):
        proc = _python("-c", RUNNER, mode, stdin=json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    assert not runs["available"]["numpy_loaded"]
    assert runs["blocked"]["results"] == runs["available"]["results"]
    codes = [code for code, _, _ in runs["available"]["results"]]
    assert codes[:2] == [0, 2] and codes[-3:] == [2, 2, 2]
    assert set(codes[2:-3]) == {0}


def test_documents_the_compiled_parser_declines_run_without_numpy(tmp_path):
    # An int, a true or a NaN entry sends a document past the compiled
    # parser to the field-by-field search, which must load no numpy either,
    # whether the query answers (the int) or exits 2 (true, NaN).
    doc = random_structure_params(StructureKind.LONG_M, np.random.default_rng(9)).to_dict()
    argvs = []
    for name, entry in (("int", 1), ("true", True), ("nan", float("nan"))):
        path = tmp_path / f"{name}-entry.json"
        path.write_text(json.dumps({**doc, "p_x_given_a": {"0": 0.15, "1": entry}}), encoding="utf-8")
        argvs += [["compute", "--file", str(path), "--stratum", "D=1", "--scale", "or"],
                  ["compute", "--file", str(path), "--lm", "--format", "json"]]
    runs = {}
    for mode in ("blocked", "available"):
        proc = _python("-c", RUNNER, mode, stdin=json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    assert not runs["available"]["numpy_loaded"]
    assert runs["blocked"]["results"] == runs["available"]["results"]
    assert [code for code, _, _ in runs["available"]["results"]] == [0, 0, 2, 2, 2, 2]


def test_flat_mass_loads_no_numpy():
    proc = _python("-c", "import sys; from colliderbias import JointTable, StructureKind; "
                         "t = JointTable(StructureKind.V, ('X', 'Y', 'C'), [0.125] * 8); "
                         "print(t.prob({'C': 1}), 'numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0.5 False\n", "")


# Packages the tests or the tools may use but the package does not declare.
UNDECLARED = ("hypothesis", "sympy", "mpmath", "scipy")


def test_package_imports_no_undeclared_package():
    # With each undeclared package blocked (importing it raises), the CLI
    # and the verify battery import, and a verify run and a grid print what
    # they print with nothing blocked.
    argvs = [["verify", "--kind", "V", "--draws", "3"],
             ["grid", "--family", "stratum", "--p-c00", "0.2", "--p-c11", "0.7", "--resolution", "4"]]
    script = (
        "import contextlib, io, sys\n"
        "if sys.argv[1] == 'blocked':\n"
        f"    sys.modules.update(dict.fromkeys({UNDECLARED!r}))\n"
        "import colliderbias.verification\n"
        "from colliderbias.cli import main\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        codes.append(main(argv))\n"
        "    print(out.getvalue())\n"
        "print(codes)\n"
    )
    runs = {mode: _python("-c", script, mode) for mode in ("blocked", "available")}
    blocked, available = runs["blocked"], runs["available"]
    assert (blocked.returncode, blocked.stderr) == (0, ""), blocked.stderr
    assert blocked.stdout == available.stdout
    assert blocked.stdout.startswith("V: draws=3 seed=0 pass\n")
    assert blocked.stdout.endswith("\n[0, 0]\n")
