import hashlib
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from colliderbias import (
    EdgeCpt,
    GridFamily,
    GridFixed,
    ParameterError,
    StructureKind,
    emit_grid,
    random_structure_params,
)
from colliderbias import cli
from colliderbias.cli import grid_to_csv, grid_to_json, main, parse_grid_csv
from colliderbias.joint import SampleTable
from colliderbias.signmap import SignGrid
from colliderbias.structures import _KIND_FIELDS
from colliderbias.verification import STAGES, verify_kind

REFERENCE_FLAGS = [
    "--kind", "V",
    "--p-left", "0.5",
    "--p-right", "0.5",
    "--p-c-given", "00=0.15,01=0.25,10=0.25,11=0.75",
]


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_reference_point(capsys):
    code, out, _ = run_cli(
        capsys, "compute", *REFERENCE_FLAGS, "--scale", "cov", "--stratum", "C=1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["closed_form"]["value"], 0.02551020408163265, rel_tol=1e-12)
    assert doc["closed_form"]["sign"] == "positive"
    assert doc["abs_discrepancy"] <= 1e-12
    assert doc["within_tolerance"] is True


def test_compute_uniform_is_zero(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--kind", "V", "--p-left", "0.5", "--p-right", "0.5",
        "--p-c-given", "00=0.5,01=0.5,10=0.5,11=0.5",
        "--scale", "cov", "--stratum", "C=1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"]["value"] == 0.0
    assert doc["oracle"]["value"] == 0.0


def test_compute_degenerate_stratum_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--kind", "V", "--p-left", "0.5", "--p-right", "0.5",
        "--p-c-given", "00=0,01=0,10=0,11=0", "--scale", "or", "--stratum", "C=1",
    )
    assert code == 2
    assert "stratum C=1" in err


# P(stratum) is positive but its square underflows to zero; each closed form
# must report a degenerate stratum instead of dividing by zero.
UNDERFLOW_STRATUM_RUNS = {
    "V": (
        "--kind", "V", "--p-left", "0.5", "--p-right", "0.5",
        "--p-c-given", "00=0,01=0,10=0,11=1e-300", "--stratum", "C=1",
    ),
    "M": (
        "--kind", "M", "--p-left", "0.5", "--p-right", "0.5",
        "--p-c-given", "00=0,01=0,10=0,11=1e-300", "--stratum", "C=1",
        "--p-x-given-a", "0=0.2,1=0.8", "--p-y-given-b", "0=0.3,1=0.6",
    ),
    "Y": (
        "--kind", "Y", "--p-left", "0.5", "--p-right", "0.5",
        "--p-c-given", "00=0.5,01=0.5,10=0.5,11=0.5",
        "--p-d-given-c", "0=0,1=1e-300", "--stratum", "D=1",
    ),
}


@pytest.mark.parametrize("flags", UNDERFLOW_STRATUM_RUNS.values(), ids=UNDERFLOW_STRATUM_RUNS)
def test_compute_underflowing_stratum_exit_2(capsys, flags):
    code, out, err = run_cli(capsys, "compute", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "zero probability" in err


# Subnormal tables whose float results are meaningless: the oracle's marginal
# null is lost to rounding (RightM), or a closed-form factor overflows
# (LeftM's variance ratio).  Both exit 2 with an error line, no traceback.
PRECISION_LOSS_RUNS = {
    "RightM-marginal": ({
        "kind": "RightM", "p_left": 5e-324, "p_right": 1e-300,
        "p_c_given": {"00": 5e-324, "01": 1.0, "10": 0.9999999999999999, "11": 5e-324},
        "p_y_given_b": {"0": 0.9095649693216113, "1": 0.9999999999999999},
    }, "C=1", "should be null for RightM"),
    "LeftM-variance-ratio": ({
        "kind": "LeftM", "p_left": 0.8888238212386796, "p_right": 0.9999999999999999,
        "p_c_given": {"00": 0.0, "01": 5e-324, "10": 0.5857495713535145, "11": 0.0},
        "p_x_given_a": {"0": 0.0, "1": 5e-324},
    }, "C=0", "variance_ratio = inf"),
}


@pytest.mark.parametrize("doc, stratum, message", PRECISION_LOSS_RUNS.values(),
                         ids=PRECISION_LOSS_RUNS)
def test_compute_precision_loss_exit_2(capsys, tmp_path, doc, stratum, message):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "compute", "--file", str(path), "--scale", "rd", "--stratum", stratum
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert message in err


def test_compute_lm_on_collinear_design_exits_2(capsys, tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({
        "kind": "V", "p_left": 0.3, "p_right": 0.6,
        "p_c_given": {"00": 0.0, "01": 0.0, "10": 1.0, "11": 1.0},
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, "compute", "--file", str(path), "--lm")
    assert code == 2
    assert out == ""
    assert err == "error: X and C are collinear under the joint distribution\n"


def test_compute_rr_served_by_oracle_only(capsys):
    code, out, _ = run_cli(
        capsys, "compute", *REFERENCE_FLAGS, "--scale", "rr", "--stratum", "C=1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"] is None
    assert doc["oracle"]["value"] > 1.0


def test_compute_lm(capsys):
    code, out, _ = run_cli(capsys, "compute", *REFERENCE_FLAGS, "--lm", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert math.isclose(doc["closed_form"]["value"], -9.0 / 82.0, rel_tol=1e-12)


def test_compute_tolerance_failure_exits_1(capsys):
    # An impossible tolerance forces the discrepancy check to fail.
    code, out, _ = run_cli(
        capsys, "compute", *REFERENCE_FLAGS, "--scale", "cov", "--stratum", "C=1",
        "--tolerance", "1e-30", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["within_tolerance"] is False


def test_compute_tolerance_zero_accepts_an_exact_match(capsys):
    # A tolerance of 0 is allowed, and a discrepancy equal to the tolerance
    # is within it: on the uniform V point both routes give exactly 0.
    code, out, _ = run_cli(
        capsys, "compute", "--kind", "V", "--p-left", "0.5", "--p-right", "0.5",
        "--p-c-given", "00=0.5,01=0.5,10=0.5,11=0.5", "--scale", "cov", "--stratum", "C=1",
        "--tolerance", "0", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tolerance"] == doc["abs_discrepancy"] == 0.0
    assert doc["within_tolerance"] is True


def test_compute_errors_name_the_field(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--kind", "V", "--p-left", "1.5", "--p-right", "0.5",
        "--p-c-given", "00=0.5,01=0.5,10=0.5,11=0.5", "--stratum", "C=1",
    )
    assert code == 2
    assert "p_left" in err


def test_compute_needs_conditioning(capsys):
    code, _, err = run_cli(capsys, "compute", *REFERENCE_FLAGS)
    assert code == 2
    assert "--stratum" in err or "--lm" in err


def test_flags_override_file(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(
        json.dumps(
            {
                "kind": "V",
                "p_left": 0.2,
                "p_right": 0.5,
                "p_c_given": {"00": 0.15, "01": 0.25, "10": 0.25, "11": 0.75},
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "compute", "--file", str(config), "--p-left", "0.5",
        "--scale", "cov", "--stratum", "C=1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["p_left"] == 0.5


@pytest.mark.parametrize(
    "field, value",
    [
        (("p_c_given", "01"), "abc"),
        (("p_x_given_a", "1"), None),
        (("p_c_given", "11"), True),
    ],
)
def test_malformed_table_entry_in_file_exits_2(tmp_path, capsys, field, value):
    doc = {
        "kind": "M",
        "p_left": 0.4,
        "p_right": 0.6,
        "p_c_given": {"00": 0.15, "01": 0.25, "10": 0.25, "11": 0.75},
        "p_x_given_a": {"0": 0.3, "1": 0.7},
        "p_y_given_b": {"0": 0.2, "1": 0.8},
    }
    table, key = field
    doc[table][key] = value
    config = tmp_path / "params.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "compute", "--file", str(config), "--stratum", "C=1", "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert f"{table}[{key}]" in err


def test_sign_command(capsys):
    code, out, _ = run_cli(capsys, "sign", *REFERENCE_FLAGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pattern"] == "both-positive"
    assert doc["stratum_signs"] == {"C=0": "negative", "C=1": "positive"}
    assert doc["lm_sign"] == "negative"


# A strict input whose child edge moves by 9e-13: the paper's case rule bands
# that effect to zero, while the child contrast, near 1.8 times larger, is
# positive at D=1.  Signs follow the contrast.
NEAR_TIE_CHILD_FLAGS = [
    "--p-left", "0.5", "--p-right", "0.5",
    "--p-c-given", "00=0.999,01=0.001,10=0.001,11=0.999",
    "--p-d-given-c", "0=0.9,1=0.9000000000009",
]


@pytest.mark.parametrize("extension", [
    ["--kind", "Y"],
    ["--kind", "LongM", "--p-x-given-a", "0=0.2,1=0.7", "--p-y-given-b", "0=0.3,1=0.8"],
], ids=["Y", "LongM"])
def test_sign_near_tie_child_edge(capsys, extension):
    code, out, err = run_cli(capsys, "sign", *extension, *NEAR_TIE_CHILD_FLAGS,
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["stratum_signs"] == {"D=1": "positive", "D=0": "zero"}


def test_grid_near_tie_child_edge(capsys):
    code, out, err = run_cli(
        capsys, "grid", "--family", "child-stratum", "--p-c00", "0.999", "--p-c11", "0.999",
        "--p-d-given-c", "0=0.9,1=0.9000000000009", "--resolution", "20",
    )
    assert (code, err) == (0, "")
    assert parse_grid_csv(out).cells[0, 0].tolist() == [1, 0]


# Neither cause moves the collider: both cross-product differences vanish,
# so the child-stratum bias is exactly 0 and its sign is zero, not an error.
def test_sign_degenerate_cross_products_is_zero(capsys):
    code, out, err = run_cli(
        capsys, "sign", "--kind", "Y", "--p-left", "0.5", "--p-right", "0.5",
        "--p-c-given", "00=0.5,01=0.5,10=0.5,11=0.5", "--p-d-given-c", "0=0.2,1=0.7",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["stratum_signs"] == {"D=0": "zero", "D=1": "zero"}


# A child edge at 0: P(D=1 | C=0) = 0.  compute answers at D=1 and D=0, and
# sign answers too, with the sign of compute's value at each level.
CHILD_EDGE_FLAGS = ["--kind", "Y", "--p-left", "0.4", "--p-right", "0.6",
                    "--p-c-given", "00=0.1,01=0.5,10=0.4,11=0.9", "--p-d-given-c", "0=0,1=0.7"]


def test_sign_answers_a_child_edge_at_0_as_compute_does(capsys):
    code, out, err = run_cli(capsys, "sign", *CHILD_EDGE_FLAGS, "--format", "json")
    assert (code, err) == (0, "")
    signs = json.loads(out)["stratum_signs"]
    assert signs == {"D=0": "negative", "D=1": "negative"}
    for level in (0, 1):
        code, out, err = run_cli(capsys, "compute", *CHILD_EDGE_FLAGS, "--stratum", f"D={level}",
                                 "--scale", "cov", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["closed_form"]["sign"] == signs[f"D={level}"]


def test_child_stratum_grid_where_d_copies_c_is_the_stratum_grid(capsys):
    # At --p-d-given-c 0=0,1=1, D copies C: each D=d column is the C=d column.
    flags = ["--p-c00", "0.15", "--p-c11", "0.75", "--resolution", "30"]
    code, out, err = run_cli(capsys, "grid", "--family", "child-stratum", *flags,
                             "--p-d-given-c", "0=0,1=1")
    assert (code, err) == (0, "")
    child = parse_grid_csv(out)
    code, out, err = run_cli(capsys, "grid", "--family", "stratum", *flags)
    assert (code, err) == (0, "")
    stratum = parse_grid_csv(out)
    assert np.array_equal(child.cells, stratum.cells)
    assert {-1, 1} <= set(child.cells.ravel().tolist())


def test_verify_single_kind(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "V", "--draws", "40", "--seed", "11",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {r["name"] for r in doc["runs"][0]["identities"]}
    assert "stratum_cov_vs_oracle" in names and "lm_vs_oracle" in names


def test_verify_all_covers_every_kind(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--draws", "10", "--seed", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    kinds = [run["kind"] for run in doc["runs"]]
    assert len(kinds) == 9
    nabla_run = next(run for run in doc["runs"] if run["kind"] == "Nabla")
    assert any(r["name"] == "or_factor_vs_oracle" for r in nabla_run["identities"])


def test_verify_deterministic_output(capsys):
    args = ["verify", "--kind", "LongM", "--draws", "25", "--seed", "3"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# sha256 of the stdout of ``verify --all --draws N --seed 7`` per format,
# keyed by N: every identity's count and every bit of its maximum
# discrepancy must stay as they were.  40 draws fit in one batch of the
# battery; 1000 draws cross its 500-draw batch boundary.
VERIFY_BYTES_DIGESTS = {
    "json": {
        "40": "42986512520fe08e23d0b7ddff3ca585a1a49d67a009aba49e44cdbf385814af",
        "1000": "f4b92edb4b3a45dd9f3deed626093e093bac28b8cc12ecdb9e497e28d333278b",
    },
    "text": {
        "40": "84a13b2df78049c2991ce27905b5700c48661eefbfa4368861fcbf7ae2a8ba05",
        "1000": "e9e4b2d4b1fdd955f188c41788044fd2ac29e345b8b921bf2e67711e98cddc4a",
    },
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_BYTES_DIGESTS))
def test_verify_bytes_pinned(capsys, fmt):
    for draws, digest in VERIFY_BYTES_DIGESTS[fmt].items():
        code, out, _ = run_cli(
            capsys, "verify", "--all", "--draws", draws, "--seed", "7", "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, draws


def _check_timings_go_to_stderr_only(capsys, args, stages):
    code, plain, plain_err = run_cli(capsys, *args)
    code_timed, timed, err = run_cli(capsys, *args, "--timings")
    assert code == code_timed == 0
    assert timed == plain and plain_err == ""
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == stages
    assert all(line.endswith(" s") and float(line.split()[-2]) >= 0.0 for line in lines)


def test_verify_timings_go_to_stderr_only(capsys):
    # Each kind's total, then its seconds in each stage of the battery.
    stages = [f"{kind.value}{suffix}" for kind in StructureKind for suffix in ("", *(f" {s}" for s in STAGES))]
    _check_timings_go_to_stderr_only(capsys, ["verify", "--all", "--draws", "3", "--seed", "2"], stages)


def test_verify_stage_seconds_add_up_to_the_total():
    run = verify_kind(StructureKind.LONG_M, draws=7, seed=1)
    assert list(run.stage_seconds) == list(STAGES)
    assert all(seconds > 0.0 for seconds in run.stage_seconds.values())
    assert sum(run.stage_seconds.values()) == pytest.approx(run.elapsed_seconds, rel=1e-9)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("family", [f.value for f in GridFamily])
def test_grid_timings_go_to_stderr_only(capsys, family, fmt):
    args = ["grid", "--family", family, "--p-c00", "0.15", "--p-c11", "0.75",
            "--p-d-given-c", "0=0.2,1=0.7", "--resolution", "9", "--format", fmt]
    _check_timings_go_to_stderr_only(capsys, args, ["sweep", "render and write"])


LOGGED_RUNS = {
    "compute": ["compute", *REFERENCE_FLAGS, "--stratum", "C=1"],
    "verify": ["verify", "--all", "--draws", "5", "--seed", "3"],
    "grid": ["grid", "--family", "stratum", "--p-c00", "0.15", "--p-c11", "0.75",
             "--resolution", "9"],
}


@pytest.mark.parametrize("argv", LOGGED_RUNS.values(), ids=LOGGED_RUNS)
def test_debug_logging_leaves_stdout_unchanged(capsys, monkeypatch, argv):
    code, plain, plain_err = run_cli(capsys, *argv)
    assert (code, plain_err) == (0, "")
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    monkeypatch.setenv("COLLIDER_BIAS_LOG", "debug")
    # logging.basicConfig only configures a root logger that has no handlers.
    root.handlers.clear()
    try:
        code_logged, logged, err = run_cli(capsys, *argv)
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    assert code_logged == 0 and logged == plain
    assert f"INFO colliderbias: running {argv[0]}" in err


def test_sample_deterministic_and_bounded(capsys):
    args = [
        "sample", *REFERENCE_FLAGS, "--draws", "20000", "--seed", "2",
        "--format", "json",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["within_bound"] is True
    assert len(doc["cells"]) == 8
    assert math.isclose(sum(c["observed"] for c in doc["cells"]), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("draws, code", [(25, 0), (36, 1)])
def test_sample_bound_includes_its_edge(capsys, monkeypatch, draws, code):
    # Every draw lands on X=1 where P(X=1) = 0.5: the largest deviation is
    # 0.5, exactly the smoke bound 2.5 / sqrt(25), and above 2.5 / sqrt(36).
    def one_sided(params, n, seed):
        counts = np.zeros(8, dtype=np.intp)
        counts[0b111] = n
        return SampleTable(params.kind, ("X", "Y", "C"), counts, n)

    monkeypatch.setattr(cli, "sample", one_sided)
    got, out, _ = run_cli(
        capsys, "sample", "--kind", "V", "--p-left", "0.5", "--p-right", "1",
        "--p-c-given", "00=1,01=1,10=1,11=1", "--draws", str(draws), "--format", "json",
    )
    doc = json.loads(out)
    assert doc["max_abs_deviation"] == 0.5
    assert doc["smoke_bound"] == 2.5 / math.sqrt(draws)
    assert (got, doc["within_bound"]) == (code, code == 0)


def test_sample_rejects_zero_draws(capsys):
    code, _, err = run_cli(capsys, "sample", *REFERENCE_FLAGS, "--draws", "0")
    assert code == 2
    assert "draws" in err


# One value per parameter field; each kind takes the fields it has.
SAMPLE_PIN_FIELDS = {
    "p_left": "0.35",
    "p_right": "0.6",
    "p_c_given": "00=0.15,01=0.45,10=0.5,11=0.85",
    "p_x_given_a": "0=0.2,1=0.7",
    "p_y_given_b": "0=0.3,1=0.75",
    "p_d_given_c": "0=0.25,1=0.8",
}

# Draw counts around the sampler's chunk of 2**14 draws: below, at and past
# one chunk, and three chunks plus a ragged tail.
SAMPLE_PIN_DRAWS = (1, 3, 16383, 16384, 16385, 3 * 16384 + 5)

# sha256 of the stdout of ``sample --format json --seed 31`` per kind, one
# digest per entry of SAMPLE_PIN_DRAWS, recorded from the sampler that drew
# all of its uniforms in one block.
SAMPLE_BYTES_DIGESTS = {
    "V": (
        "f948c08b294867c971693cee6c4cfb3ed12de829be32b33285e0949f3d90b4fd",
        "853b525f602750f09b56829f137e171805d37b628fd71c7f84d74e65330f89b6",
        "92a9a5fcc898d2a17718671cff96a3dbb961dc7533899d6ecde7e25874da579e",
        "5d4c0aa8deaa29310af0070faa44cf589fdd95687b6fe43764dbec0d2a740e15",
        "87ee9323953b5b2a2344da3910b8896803ca680e678fa5f28ccb416b8fda0604",
        "ca8c6480f53434cd0434599d6c0a89f2c3a09327cd467135be33d3d3b6da5e8f",
    ),
    "Nabla": (
        "4ce104e8ad1ef4b30b0bbc9b0ec8cb6f2001a6d6a4b102f7b0586116b9d76331",
        "2c737dd0bb6d71a1d939ececaec0d05b997cc0934a87c183ce5016231d6b78b8",
        "a53cbd4aa4fc4b8a119d275458a31d89c30fd3d3598134463bbe01431fb490a7",
        "a7355db1201014f71b1f9674683bd1c4e7322058a8cfbd9bf56498f149a3779a",
        "f714f75959f0949e485d5a9e68fd9a54d4f2d2f6340c8070c554f65e219493db",
        "b9c561f3c4fa05308cd42ed31f2259c0ab41427194ea622b5ab55581360be0e3",
    ),
    "Y": (
        "818142ecd6341627aced46948ac2fde5c1196f04f17a70a5556f6193977bf6c6",
        "aa5c7b6b559b8092c8eca59cae5f0bac18eae96c563072618cde55826422d18a",
        "c5746a1470a98a15460b948ad2d081524261d4192ff042a24e952c6a3a3ad684",
        "95e0e9ab5307d419cd4348c0403c6995af3568b0f59c0ecd99c5acb9353bcbba",
        "353237e4b5ea1eb43324a9a360496a5b270a8594337ae45c544d3863dfbd83bd",
        "0ace9c0b5bcee2c8800e97bc7602af565b8772af1dd0ad442fa851ec4fd86f65",
    ),
    "M": (
        "2bdd382e315828762f4c3c1e66a573e1533a0c3bccb8b1f01895a18af54a9a0f",
        "050c1d6374f77c72ac7cc7c23b89b8385fde13994cded5607e87d63b1ff26a15",
        "f05dc5dd32186f4f1734baecef226ef23f3cc7c54e05dc7134222a6a91bf6f04",
        "5ce813de8b41b3c67acb3ac30c7534d812636119e1ae3b68320d1b9ceff6d153",
        "d4ca361cb0d4b9aeab6e92d75ecd2f03c321c371938dc1cf98fcf012142e2939",
        "a0bd253c208c0be21ac7b785abff15c3d6a2bcd387c28efd8391215ca67dda07",
    ),
    "LeftM": (
        "993d1e86db510df30b53f5a7dabf1d0a87597e65ced7092164230b9e30506173",
        "64012939849a90bc5a8a0177993b7352367e8ca33942ebaba4c544ddb88089bb",
        "066f50d5728eb4887ed14aab8425c150fc2ce3cf5b9a5ff6dc7e96e4b7f17e97",
        "0ec316f10fad2adecf4f168bf93a846ce3de3d07dd996bf80dca18a8583f4b2f",
        "c10cdcee4492a6b9f701fce57b86070de80e99e956582c3b904baccc66a40c93",
        "3c6a559689d918b7a768dd2eae5edb15dab701ab76e1681a8102bcaa384c7b61",
    ),
    "RightM": (
        "1b2fd925f62f160bfd84821e1dbd067b53ec66625887e2f723e42a887823719e",
        "862de171991f5eab8adada69df544d6105b6e65fff19c15253aeda188ceb4b5b",
        "7070e560df47e3053edc5a2cac2e6d2320d469a29a8a8d3912614eefa9ce0bd6",
        "9a28f464b319365f9223bea3260c1f07994de1b9b0d08f94649e1ebb0bcd67ce",
        "39d58506b0de6206d989e1eed887b3e1d81d633bf87d1a4dc83e8e7998fe7eb7",
        "de3214a11a65a2152d068abd847ada8f4509709052587a53af25ee5043819f81",
    ),
    "LongM": (
        "87dc908a9ed34463395f74c7fdf352f4eed032ebf7cc3376b60c4db099ce28b9",
        "94987b23430c1c16bf6ea6bfcaf0d8e801bb0108a27e9272bc21f7fd0e46f682",
        "f9b80b0031aa7ff9a29581d3310decf61e44a799d0efc76a6d9c2ebc8259dd7b",
        "46bdc8d96da6dc3b435a06535e9ef052b06e1ae886edbb9cf4936759a022840e",
        "2b51bf93fc9fb8621b4b75fcc54121bc1fa82eccb07741c33d32c3466e0f5dce",
        "698c8579081c1bd7e82e42f68ad97582783cffcac1bbb26289b25ce04b1f6d26",
    ),
    "LeftLongM": (
        "493c922eecdef32ad65c9bbbe6b0589dd147a4a10ff4c55396c4b91b2d09e4da",
        "c903ac6d47cabb95b8b684cb5dcae7e2f9d9c96bd10f0f84d3c673fddd656594",
        "f44f0028eaf9c5b536b01ad954e77333a2fd20b91f07b6a2aa02f5c2facdf7fb",
        "d3661aa21403e8e6455fd1d063f6c9c8a15b407a4ccf9c6ffed4b28974c651a1",
        "2b66e982f6f3063b581b27636167660ec953eb4ee015d6d3c54f332d4c7030ea",
        "22a9d54da26ad9a71c3e477c1d6ab895da64b3bccd67b39eec7d8ef8c7701b84",
    ),
    "RightLongM": (
        "4f62bd4b6647fa36967cf2ecd2c13751a674a6efa7d6419b4825631766264ec9",
        "4764df6182decd979c80fcb184039af399b2616559c4a3169b452a941baa0d05",
        "0501cf849b94a14ba587ab91d920ffb3a36c6998befe1615a00c25f57e3d5ff7",
        "471a1118371adcfceb35ecdf479b245c65be7134e06b3639a0caf1f7778080a2",
        "f5e81009e1eb648168c67acde2dbe6321082a27f90e484f9df3534ad4de3ec58",
        "d49779b5500faefeba9325ac8c48a5100fd8b48cc7e56d962d42a9af1290fcc8",
    ),
}

# The same for LongM at one million draws.
SAMPLE_MILLION_DIGEST = "7b411cb944a388927a50da8d34e97270c4acb44775744c7f7ad5773ff6145378"


def _sample_pin_argv(kind: str, draws: int) -> list[str]:
    argv = ["sample", "--kind", kind, "--draws", str(draws), "--seed", "31", "--format", "json"]
    for name in _KIND_FIELDS[StructureKind(kind)]:
        argv += ["--" + name.replace("_", "-"), SAMPLE_PIN_FIELDS[name]]
    return argv


@pytest.mark.parametrize("kind", sorted(SAMPLE_BYTES_DIGESTS))
def test_sample_bytes_pinned_across_chunks(capsys, kind):
    for draws, digest in zip(SAMPLE_PIN_DRAWS, SAMPLE_BYTES_DIGESTS[kind]):
        code, out, _ = run_cli(capsys, *_sample_pin_argv(kind, draws))
        assert code in (0, 1)  # a few draws can miss the smoke bound
        assert hashlib.sha256(out.encode()).hexdigest() == digest, draws


def test_sample_bytes_pinned_at_a_million_draws(capsys):
    code, out, _ = run_cli(capsys, *_sample_pin_argv("LongM", 1_000_000))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_MILLION_DIGEST


def test_grid_csv_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--family", "stratum", "--p-c00", "0.15", "--p-c11", "0.75",
        "--resolution", "12",
    )
    assert code == 0
    grid = parse_grid_csv(out)
    assert grid.resolution == 12
    assert grid.fixed.p_c00 == 0.15 and grid.fixed.p_c11 == 0.75
    assert grid_to_csv(grid) == out


def test_grid_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--family", "regression", "--p-c00", "0.15", "--p-c11", "0.75",
        "--p-left", "0.5", "--p-right", "0.5", "--resolution", "6", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["sign_lm"]
    assert len(doc["cells"]) == 6


def test_grid_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run_cli(
            capsys, "grid", "--family", "child-stratum", "--p-c00", "0.15",
            "--p-c11", "0.75", "--p-d-given-c", "0=0.2,1=0.7",
            "--resolution", "10", "--out", str(path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


# (p_c00, p_c11, p_left, p_right, child edge): the table corners at 0 and 1,
# the cause marginals at 0 and 1, values near the ends of the double range,
# the near-tie child edge and the all-0.5 zero locus.
GRID_PIN_SETTINGS = [
    (0.0, 1.0, 0.5, 0.5, (0.2, 0.7)),
    (1.0, 0.0, 0.0, 1.0, (0.3, 0.8)),
    (0.15, 0.75, 1.0, 0.0, (0.7, 0.2)),
    (1e-300, 1 - 1e-16, 1e-300, 0.3, (1e-300, 1 - 1e-16)),
    (0.999, 0.999, 0.5, 0.5, (0.9, 0.9000000000009)),
    (0.5, 0.5, 0.5, 0.5, (0.2, 0.7)),
]
# Digest of the CSV and JSON bytes of every family's grid at each setting, at
# resolutions 5 and 60; any changed cell, axis value or locus changes it.
GRID_BYTES_DIGEST = "219036dc4f3a89c76b4d9c6513296c0d527afb84476548380e940c79b6418b06"


def _grid_bytes_digest() -> str:
    digest = hashlib.sha256()
    for p_c00, p_c11, p_left, p_right, (d0, d1) in GRID_PIN_SETTINGS:
        fixed = GridFixed(p_c00=p_c00, p_c11=p_c11, p_left=p_left, p_right=p_right,
                          p_d_given_c=EdgeCpt(given_0=d0, given_1=d1))
        for family in GridFamily:
            for resolution in (5, 60):
                grid = emit_grid(family, fixed, resolution)
                digest.update(grid_to_csv(grid).encode())
                digest.update(grid_to_json(grid).encode())
    return digest.hexdigest()


def test_grid_bytes_pinned():
    assert _grid_bytes_digest() == GRID_BYTES_DIGEST


def _reference_grid_to_csv(grid) -> str:
    """The per-cell renderer that grid_to_csv replaced, kept as its
    byte-for-byte reference."""
    lines = [f"# family={grid.family.value}\n", f"# resolution={grid.resolution}\n"]
    lines += [f"# {name}={value!r}\n" for name, value in grid.fixed.items()]
    for locus in grid.zero_loci:
        coeffs = " ".join(f"{k}={v!r}" for k, v in locus.coefficients)
        lines.append(f"# zero_locus name={locus.name} curve={locus.curve} {coeffs}\n")
    lines.append("p10,p01," + ",".join(grid.columns) + "\n")
    labels = [repr(value) for value in grid.axis.tolist()]
    for p10, row in zip(labels, grid.cells.tolist()):
        for p01, cell in zip(labels, row):
            lines.append(f"{p10},{p01}," + ",".join(map(str, cell)) + "\n")
    return "".join(lines)


def _reference_grid_to_json(grid) -> str:
    """The renderer that dumped the whole grid, cells as nested lists, with
    one json.dumps call; kept as grid_to_json's byte-for-byte reference."""
    doc = {
        "command": "grid",
        "family": grid.family.value,
        "resolution": grid.resolution,
        "fixed": dict(grid.fixed.items()),
        "axis": grid.axis.tolist(),
        "columns": list(grid.columns),
        "cells": grid.cells.tolist(),
        "zero_loci": [
            {"name": locus.name, "curve": locus.curve, "coefficients": dict(locus.coefficients)}
            for locus in grid.zero_loci
        ],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def _every_code_grid(family, resolution) -> SignGrid:
    """Hand-built cells: every sign combination of the family's columns,
    then the rest of the lattice drawn at random."""
    columns = family.columns
    combos = list(itertools.product((-1, 0, 1), repeat=len(columns)))
    rng = np.random.default_rng(resolution)
    drawn = rng.integers(-1, 2, size=(resolution * resolution - len(combos), len(columns)))
    cells = np.concatenate([combos, drawn]).astype(np.int8)
    rng.shuffle(cells)
    cells = cells.reshape(resolution, resolution, len(columns))
    return SignGrid(family, GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.3, p_right=0.6), cells)


@pytest.mark.parametrize("family", [GridFamily.REGRESSION, GridFamily.STRATUM])
@pytest.mark.parametrize("resolution", [3, 7])
def test_grid_json_matches_per_cell_reference(family, resolution):
    grid = _every_code_grid(family, resolution)
    text = grid_to_json(grid)
    assert text == _reference_grid_to_json(grid)
    assert np.array_equal(json.loads(text)["cells"], grid.cells)


@pytest.mark.parametrize("family", [GridFamily.REGRESSION, GridFamily.STRATUM])
@pytest.mark.parametrize("resolution", [3, 7])
def test_grid_csv_matches_per_cell_reference(family, resolution):
    grid = _every_code_grid(family, resolution)
    cells = grid.cells
    text = grid_to_csv(grid)
    assert text == _reference_grid_to_csv(grid)
    parsed = parse_grid_csv(text)
    assert np.array_equal(parsed.cells, cells)
    assert np.array_equal(parsed.axis, grid.axis)
    assert grid_to_csv(parsed) == text


# (cells per block, rows per block at resolution 7): one row, blocks that do
# not divide the resolution (also 4 rows at 5, 7 at 60), and the whole grid
# (also at 5, and at 60 for 3600).
BLOCK_SIZES = [(1, [1] * 7), (21, [3, 3, 1]), (49, [7]), (420, [7]), (3600, [7])]


@pytest.mark.parametrize("block_cells, rows", BLOCK_SIZES, ids=[str(b) for b, _ in BLOCK_SIZES])
def test_grid_text_does_not_depend_on_the_block_size(monkeypatch, block_cells, rows):
    monkeypatch.setattr(cli, "_BLOCK_CELLS", block_cells)
    assert [len(range(7)[block]) for block in cli._row_blocks(7)] == rows
    for family in (GridFamily.REGRESSION, GridFamily.STRATUM):
        grid = _every_code_grid(family, 7)
        assert grid_to_csv(grid) == _reference_grid_to_csv(grid)
        assert grid_to_json(grid) == _reference_grid_to_json(grid)
    assert _grid_bytes_digest() == GRID_BYTES_DIGEST


def test_a_bad_sign_raises_before_the_first_block(tmp_path, monkeypatch, capsys):
    good = _every_code_grid(GridFamily.STRATUM, 3)
    cells = good.cells.copy()
    cells[2, 1, 0] = 2
    bad = SignGrid(good.family, good.fixed, cells)
    for blocks in (cli._grid_csv_blocks(bad), cli._grid_json_blocks(bad)):
        with pytest.raises(ValueError):
            next(blocks)
    monkeypatch.setattr(cli, "emit_grid", lambda family, fixed, resolution: bad)
    path = tmp_path / "grid.csv"
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError):
            main([*GRID_FLAGS, "--resolution", "3", "--format", fmt, "--out", str(path)])
        assert not path.exists()
        with pytest.raises(ValueError):
            main([*GRID_FLAGS, "--resolution", "3", "--format", fmt])
        assert capsys.readouterr().out == ""


def test_render_memory_is_that_of_one_block():
    # tracemalloc sees numpy's buffers.  Sign codes made for the whole grid
    # before the first block peaked at 34-38 MiB at this resolution; made
    # per block, a render holds about 2.5 MiB.
    combos = np.array(list(itertools.product((-1, 0, 1), repeat=2)), dtype=np.int8)
    cells = np.resize(combos, (2000, 2000, 2))
    grid = SignGrid(GridFamily.STRATUM, GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.3, p_right=0.6),
                    cells)
    for render in (cli._grid_csv_blocks, cli._grid_json_blocks):
        tracemalloc.start()
        try:
            for _block in render(grid):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, render.__name__


def test_large_output_is_written_whole_to_stdout_and_file(tmp_path, capsysbinary):
    argv = ["grid", "--family", "stratum", "--p-c00", "0.15", "--p-c11", "0.75",
            "--resolution", "300"]
    fixed = GridFixed(p_c00=0.15, p_c11=0.75, p_left=0.5, p_right=0.5)
    expected = grid_to_csv(emit_grid(GridFamily.STRATUM, fixed, 300)).encode()
    assert len(list(cli._row_blocks(300))) > 1
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == expected
    path = tmp_path / "grid.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == expected


def test_grid_invalid_resolution(capsys):
    code, _, err = run_cli(
        capsys, "grid", "--family", "stratum", "--p-c00", "0.2", "--p-c11", "0.8",
        "--resolution", "1",
    )
    assert code == 2
    assert "resolution" in err


def test_grid_reference_cell_in_csv(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--family", "stratum", "--p-c00", "0.15", "--p-c11", "0.75",
        "--resolution", "2",
    )
    assert code == 0
    grid = parse_grid_csv(out)
    # cell centers 0.25 and 0.75; the (0.25, 0.25) cell is positive at C=1
    assert grid.axis[0] == 0.25
    assert grid.cells[0, 0, 0] == 1


# -- malformed input ----------------------------------------------------------

V_FLAGS = ["--kind", "V", "--p-left", "0.5", "--p-right", "0.5"]
GRID_FLAGS = ["grid", "--family", "stratum", "--p-c00", "0.15", "--p-c11", "0.75"]

# Each row: argv (with {file}/{bad_json}/{list_json} placeholders for the
# parameter files written by the test) and a fragment the error must name.
MALFORMED_RUNS = {
    "keyed-no-equals": (["compute", *V_FLAGS, "--p-c-given", "00=0.1,01", "--lm"],
                        "--p-c-given: expected key=value"),
    "keyed-unknown-key": (["compute", *V_FLAGS, "--p-c-given", "00=0.1,02=0.2", "--lm"],
                          "--p-c-given: unknown key '02'"),
    "keyed-duplicate-key": (["compute", *V_FLAGS, "--p-c-given", "00=0.1,00=0.2", "--lm"],
                            "--p-c-given: duplicate key '00'"),
    "keyed-not-a-number": (["compute", *V_FLAGS, "--p-c-given", "00=x,01=1,10=1,11=1", "--lm"],
                           "--p-c-given: 'x' is not a number"),
    "keyed-missing-key": (["compute", *V_FLAGS, "--p-c-given", "00=0.1,01=0.2,10=0.3", "--lm"],
                          "--p-c-given: missing key '11'"),
    "file-unreadable": (["compute", "--file", "{missing}", "--lm"], "cannot read"),
    "file-invalid-json": (["compute", "--file", "{bad_json}", "--lm"], "is not valid JSON"),
    "file-not-object": (["compute", "--file", "{list_json}", "--lm"], "must contain a JSON object"),
    "file-not-utf8": (["compute", "--file", "{latin1_json}", "--lm"], "is not valid JSON"),
    # Too large for a double: out of range, like any other value above 1.
    "file-oversized-integer": (["compute", "--file", "{huge_int_json}", "--lm"],
                               "error: p_left = 1" + "0" * 400 + " is outside [0.0, 1.0]"),
    # A value of the wrong JSON type is not a number, whatever its range.
    "file-string-field": (["compute", "--file", "{string_json}", "--lm"],
                          "error: p_left must be a number, got '0.5'"),
    "file-bool-entry": (["compute", "--file", "{bool_json}", "--lm"],
                        "error: p_c_given[11] must be a number, got True"),
    # Too long for Python to read as an integer at all.
    "file-overlong-integer": (["compute", "--file", "{long_int_json}", "--lm"],
                              "is not valid JSON: Exceeds the limit"),
    "stratum-malformed": (["compute", *REFERENCE_FLAGS, "--stratum", "C=2"], "--stratum"),
    "tolerance-nan": (["compute", *REFERENCE_FLAGS, "--stratum", "C=1", "--tolerance=nan"],
                      "--tolerance must be finite and >= 0, got nan"),
    "tolerance-negative": (["compute", *REFERENCE_FLAGS, "--stratum", "C=1", "--tolerance=-1"],
                           "--tolerance must be finite and >= 0, got -1.0"),
    "tolerance-inf": (["compute", *REFERENCE_FLAGS, "--stratum", "C=1", "--tolerance=inf",
                       "--format", "json"], "--tolerance must be finite and >= 0, got inf"),
    "stratum-and-lm": (["compute", *REFERENCE_FLAGS, "--stratum", "C=1", "--lm"],
                       "mutually exclusive"),
    "stratum-wrong-variable": (["compute", *REFERENCE_FLAGS, "--stratum", "D=1"],
                               "V conditions on C, not D"),
    "verify-no-target": (["verify", "--draws", "5"], "--kind"),
    "verify-zero-draws": (["verify", "--kind", "V", "--draws", "0"], "draws"),
    "sample-zero-draws": (["sample", *REFERENCE_FLAGS, "--draws", "0"], "draws"),
    # Philox's key has 128 bits.
    "sample-seed-too-large": (["sample", *REFERENCE_FLAGS, "--seed", str(2**128)],
                              "seed must lie in [0, 2**128), got " + str(2**128)),
    "grid-probability-out-of-range": ([*GRID_FLAGS, "--p-left", "1.5"], "p_left"),
    "grid-child-edge-out-of-range": (
        [*GRID_FLAGS[:2], "child-stratum", *GRID_FLAGS[3:], "--p-d-given-c", "0=-0.1,1=0.7"],
        "p_d_given_c[0]",
    ),
    # An empty table flag is an error, not a flag that sets nothing.
    "compute-empty-table-flag": (["compute", "--file", "{v_json}", "--p-c-given", "", "--lm"],
                                 "--p-c-given: expected key=value entries, got ''"),
    "grid-empty-child-edge": ([*GRID_FLAGS, "--p-d-given-c", ""],
                              "--p-d-given-c: expected key=value entries, got ''"),
    # An --out that cannot be opened for writing is malformed input too.
    "verify-out-missing-directory": (
        ["verify", "--kind", "V", "--draws", "3", "--out", "{missing_dir_out}"], "cannot write "
    ),
    "sample-out-missing-directory": (
        ["sample", *REFERENCE_FLAGS, "--draws", "10", "--out", "{missing_dir_out}"], "cannot write "
    ),
    "grid-out-directory": ([*GRID_FLAGS, "--resolution", "5", "--out", "{dir_out}"],
                           "cannot write "),
    "compute-out-directory": (["compute", *REFERENCE_FLAGS, "--lm", "--out", "{dir_out}"],
                              "cannot write "),
}


@pytest.mark.parametrize("argv, fragment", MALFORMED_RUNS.values(), ids=MALFORMED_RUNS)
def test_malformed_input_exits_2(capsys, tmp_path, argv, fragment):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "list.json").write_text("[0.5]", encoding="utf-8")
    v_doc = {"kind": "V", "p_left": 0.5, "p_right": 0.5,
             "p_c_given": {"00": 0.15, "01": 0.25, "10": 0.25, "11": 0.75}}
    (tmp_path / "v.json").write_text(json.dumps(v_doc), encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "V\xff"}')
    (tmp_path / "huge.json").write_text(json.dumps({**v_doc, "p_left": 10**400}), encoding="utf-8")
    (tmp_path / "string.json").write_text(json.dumps({**v_doc, "p_left": "0.5"}), encoding="utf-8")
    bool_doc = {**v_doc, "p_c_given": {**v_doc["p_c_given"], "11": True}}
    (tmp_path / "bool.json").write_text(json.dumps(bool_doc), encoding="utf-8")
    (tmp_path / "long.json").write_text('{"p_left": 1' + "0" * 5000 + "}", encoding="utf-8")
    paths = {
        "{missing}": str(tmp_path / "missing.json"),
        "{bad_json}": str(tmp_path / "bad.json"),
        "{list_json}": str(tmp_path / "list.json"),
        "{v_json}": str(tmp_path / "v.json"),
        "{latin1_json}": str(tmp_path / "latin1.json"),
        "{huge_int_json}": str(tmp_path / "huge.json"),
        "{string_json}": str(tmp_path / "string.json"),
        "{bool_json}": str(tmp_path / "bool.json"),
        "{long_int_json}": str(tmp_path / "long.json"),
        "{missing_dir_out}": str(tmp_path / "missing" / "x.json"),
        "{dir_out}": str(tmp_path),
    }
    code, out, err = run_cli(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert fragment in err


def _cli_process(*argv: str, **streams) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("COLLIDER_BIAS_LOG", None)
    return subprocess.Popen([sys.executable, "-m", "colliderbias", *argv], env=env,
                            stderr=subprocess.PIPE, **streams)


def test_closed_stdout_exits_2_with_one_error_line():
    # A reader that stops early, as `grid ... | head -c 100` does.  The grid
    # is megabytes long, in many blocks, so a write comes after the pipe closed.
    with _cli_process(*GRID_FLAGS, "--resolution", "600", stdout=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_full_stdout_exits_2_with_one_error_line():
    with open("/dev/full", "wb") as full:
        with _cli_process("compute", *REFERENCE_FLAGS, "--lm", stdout=full) as proc:
            err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("argv", [["--help"], ["sample", "--help"], ["--version"]])
def test_help_on_a_full_stdout_exits_2_with_one_error_line(argv):
    # argparse ignores a failed write of its own text and exits 0.
    with open("/dev/full", "wb") as full:
        with _cli_process(*argv, stdout=full) as proc:
            err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: [Errno 28] No space left on device\n"


def test_grid_resolution_cap_rejects_before_allocating(capsys):
    code, out, err = run_cli(capsys, *GRID_FLAGS, "--resolution", str(10**9))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "resolution" in err and "2000" in err


# -- pinned text output -------------------------------------------------------


def test_compute_text_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "compute", *REFERENCE_FLAGS, "--scale", "cov",
                           "--stratum", "C=1")
    assert code == 0
    assert out == (
        "kind:        V\n"
        "query:       C=1 on scale cov\n"
        "oracle:      0.025510204081632626\n"
        "closed form: 0.02551020408163265 (sign positive)\n"
        "  factor cross_product_diff = 0.04999999999999999\n"
        "  factor p_stratum = 0.35\n"
        "discrepancy: abs 2.429e-17 rel 9.520e-16 (tolerance 1e-12: ok)\n"
    )
    code, out, _ = run_cli(capsys, "compute", *REFERENCE_FLAGS, "--scale", "rr",
                           "--stratum", "C=1")
    assert code == 0
    assert out == (
        "kind:        V\n"
        "query:       C=1 on scale rr\n"
        "oracle:      1.2\n"
        "closed form: none for this query (oracle value is authoritative)\n"
    )


def test_sign_text_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "sign", *REFERENCE_FLAGS)
    assert code == 0
    assert out == (
        "kind:            V\n"
        "effect pattern:  both-positive (canonical level 1)\n"
        "interactions:    rr_canonical=positive, rr_other=negative, or=positive, rd=positive\n"
        "bias sign C=0:  negative\n"
        "bias sign C=1:  positive\n"
        "bias sign lm:    negative\n"
    )


NABLA_FLAGS = [
    "--kind", "Nabla", "--p-left", "0.4", "--p-y-given-b", "0=0.3,1=0.6",
    "--p-c-given", "00=0.15,01=0.25,10=0.25,11=0.75",
]


def test_sign_nabla_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "sign", *NABLA_FLAGS)
    assert code == 0
    assert out == (
        "kind:            Nabla\n"
        "effect pattern:  both-positive (canonical level 1)\n"
        "interactions:    rr_canonical=positive, rr_other=negative, or=positive, rd=positive\n"
        "bias sign C=0:  negative\n"
        "bias sign C=1:  positive\n"
        "note: stratum signs apply to the odds-ratio scale only\n"
    )
    code, out, _ = run_cli(capsys, "sign", *NABLA_FLAGS, "--format", "json")
    assert code == 0
    assert out == (
        '{"canonical_level": 1, "command": "sign", "interactions": {"or": "positive", '
        '"rd": "positive", "rr_canonical": "positive", "rr_other": "negative"}, '
        '"kind": "Nabla", "note": "stratum signs apply to the odds-ratio scale only", '
        '"params": {"kind": "Nabla", "p_c_given": {"00": 0.15, "01": 0.25, "10": 0.25, '
        '"11": 0.75}, "p_left": 0.4, "p_y_given_b": {"0": 0.3, "1": 0.6}}, '
        '"pattern": "both-positive", "stratum_signs": {"C=0": "negative", "C=1": "positive"}}\n'
    )


FIXED_CAUSE_FLAGS = ["--kind", "V", "--p-left", "0", "--p-right", "0.5",
                     "--p-c-given", "00=0.1,01=0.2,10=0.3,11=0.9"]


def test_sign_agrees_with_compute_where_a_cause_is_fixed(capsys):
    # X is constant, so every bias is zero, as compute's oracle and closed
    # form say; the collider table alone would give C=1 positive.
    code, out, _ = run_cli(capsys, "sign", *FIXED_CAUSE_FLAGS)
    assert code == 0
    assert out.splitlines()[-3:] == [
        "bias sign C=0:  zero", "bias sign C=1:  zero", "bias sign lm:    zero",
    ]
    code, out, _ = run_cli(capsys, "compute", *FIXED_CAUSE_FLAGS, "--stratum", "C=1",
                           "--scale", "cov", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["oracle"]["value"], doc["closed_form"]["value"]) == (0.0, 0.0)
    assert doc["closed_form"]["sign"] == "zero"


# Nabla documents with an empty (X, Y, C=c) cell: X constant, Y constant
# given X=0, and P(C=1 | X=1, Y=0) = 0, which empties only the C=1 level.
EMPTY_CELL_FLAGS = {
    "x-constant": ["--p-left", "0", "--p-y-given-b", "0=0.3,1=0.6",
                   "--p-c-given", "00=0.1,01=0.2,10=0.3,11=0.9"],
    "y-constant-given-x": ["--p-left", "0.4", "--p-y-given-b", "0=0,1=0.6",
                           "--p-c-given", "00=0.1,01=0.2,10=0.3,11=0.9"],
    "c-never-1": ["--p-left", "0.4", "--p-y-given-b", "0=0.3,1=0.6",
                  "--p-c-given", "00=0.1,01=0.2,10=0,11=0.9"],
}


@pytest.mark.parametrize("flags", EMPTY_CELL_FLAGS.values(), ids=EMPTY_CELL_FLAGS.keys())
def test_nabla_sign_is_zero_where_compute_calls_the_odds_ratio_undefined(capsys, flags):
    code, out, _ = run_cli(capsys, "sign", "--kind", "Nabla", *flags, "--format", "json")
    assert code == 0
    signs = json.loads(out)["stratum_signs"]
    for level in (0, 1):
        code, _, err = run_cli(capsys, "compute", "--kind", "Nabla", *flags,
                               "--stratum", f"C={level}", "--scale", "or")
        assert (code == 2) == (signs[f"C={level}"] == "zero"), (level, err)
        if code == 2:
            assert "a zero cell makes the odds ratio undefined" in err
    assert signs["C=1"] == "zero"


def test_sample_text_output_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "sample", *REFERENCE_FLAGS, "--draws", "1000", "--seed", "2")
    assert code == 0
    assert out == (
        "XYC  exact       observed    |diff|\n"
        "000  0.21250000  0.19600000  1.65e-02\n"
        "001  0.03750000  0.03200000  5.50e-03\n"
        "010  0.18750000  0.19000000  2.50e-03\n"
        "011  0.06250000  0.07500000  1.25e-02\n"
        "100  0.18750000  0.19200000  4.50e-03\n"
        "101  0.06250000  0.06600000  3.50e-03\n"
        "110  0.06250000  0.05700000  5.50e-03\n"
        "111  0.18750000  0.19200000  4.50e-03\n"
        "max |observed - exact| = 1.650e-02 (smoke bound 7.906e-02: ok)\n"
    )


def test_child_stratum_grid_csv_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "--family", "child-stratum", "--p-c00", "0.15", "--p-c11", "0.75",
        "--p-d-given-c", "0=0.2,1=0.7", "--resolution", "3",
    )
    assert code == 0
    assert out == (
        "# family=child-stratum\n"
        "# resolution=3\n"
        "# p_c00=0.15\n"
        "# p_c11=0.75\n"
        "# p_left=0.5\n"
        "# p_right=0.5\n"
        "# p_d_given_c[0]=0.2\n"
        "# p_d_given_c[1]=0.7\n"
        "# zero_locus name=rr_level1 curve=hyperbola product=0.11249999999999999\n"
        "# zero_locus name=rr_level0 curve=complement-hyperbola product=0.2125\n"
        "# zero_locus name=rd curve=line-sum sum=0.9\n"
        "# zero_locus name=or curve=odds-curve odds_product=0.5294117647058824\n"
        "p10,p01,sign_d1,sign_d0\n"
        "0.16666666666666666,0.16666666666666666,1,-1\n"
        "0.16666666666666666,0.5,1,-1\n"
        "0.16666666666666666,0.8333333333333334,-1,1\n"
        "0.5,0.16666666666666666,1,-1\n"
        "0.5,0.5,-1,1\n"
        "0.5,0.8333333333333334,-1,1\n"
        "0.8333333333333334,0.16666666666666666,-1,1\n"
        "0.8333333333333334,0.5,-1,1\n"
        "0.8333333333333334,0.8333333333333334,-1,1\n"
    )
    grid = parse_grid_csv(out)
    assert grid.fixed.p_d_given_c is not None
    assert dict(grid.fixed.p_d_given_c.items()) == {"0": 0.2, "1": 0.7}
    assert grid_to_csv(grid) == out


@pytest.mark.parametrize("kind", list(StructureKind))
def test_flags_and_file_give_the_same_bytes(tmp_path, capsys, kind):
    doc = random_structure_params(kind, np.random.default_rng(11)).to_dict()
    config = tmp_path / "params.json"
    config.write_text(json.dumps(doc))
    flags = ["--kind", kind.value]
    for field, value in doc.items():
        if field == "kind":
            continue
        if isinstance(value, dict):
            value = ",".join(f"{key}={entry!r}" for key, entry in value.items())
        flags += ["--" + field.replace("_", "-"), str(value)]
    stratum = f"{kind.conditioning_variable}=1"
    for command, *options in (["compute", "--stratum", stratum], ["compute", "--lm"], ["sign"]):
        by_flags = run_cli(capsys, command, *flags, *options, "--format", "json")
        by_file = run_cli(capsys, command, "--file", str(config), *options, "--format", "json")
        assert by_flags == by_file
        assert by_flags[0] == 0 and json.loads(by_flags[1])["params"] == doc


# The output of `grid --family child-stratum --p-c00 0.15 --p-c11 0.75
# --p-d-given-c 0=0.2,1=0.7 --resolution 2`.
GRID_CSV = (
    "# family=child-stratum\n# resolution=2\n# p_c00=0.15\n# p_c11=0.75\n# p_left=0.5\n"
    "# p_right=0.5\n# p_d_given_c[0]=0.2\n# p_d_given_c[1]=0.7\n"
    "# zero_locus name=rr_level1 curve=hyperbola product=0.11249999999999999\n"
    "# zero_locus name=rr_level0 curve=complement-hyperbola product=0.2125\n"
    "# zero_locus name=rd curve=line-sum sum=0.9\n"
    "# zero_locus name=or curve=odds-curve odds_product=0.5294117647058824\n"
    "p10,p01,sign_d1,sign_d0\n0.25,0.25,1,-1\n0.25,0.75,-1,1\n0.75,0.25,-1,1\n0.75,0.75,-1,1\n"
)
RD_LOCUS = "# zero_locus name=rd curve=line-sum sum=0.9\n"


def not_grid_output(line: int) -> str:
    return (
        "grid csv is not what grid_to_csv prints for its metadata and signs"
        f" (first difference on line {line})"
    )


# Each row: (text to replace in GRID_CSV, its replacement, the error message).
MALFORMED_GRID_CSV = {
    "no-resolution": ("# resolution=2\n", "", "grid csv has no '# resolution=' metadata line"),
    "no-p-c00": ("# p_c00=0.15\n", "", "grid csv has no '# p_c00=' metadata line"),
    "no-family": ("# family=child-stratum\n", "", "grid csv has no '# family=' metadata line"),
    "half-child-edge": ("# p_d_given_c[1]=0.7\n", "",
                        "grid csv has no '# p_d_given_c[1]=' metadata line"),
    "resolution-not-int": ("resolution=2", "resolution=two",
                           "grid csv metadata resolution='two' is malformed"),
    "negative-resolution": ("resolution=2", "resolution=-2",
                            "grid csv has 4 rows for resolution -2"),
    "unknown-family": ("family=child-stratum", "family=cross",
                       "grid csv metadata family='cross' is malformed"),
    "sign-not-int": ("0.75,0.75,-1,1", "0.75,0.75,-1,x", not_grid_output(17)),
    "sign-out-of-range": ("0.75,0.75,-1,1", "0.75,0.75,-1,300", not_grid_output(17)),
    "short-row": ("0.25,0.75,-1,1", "0.25,0.75,-1", not_grid_output(15)),
    "p01-not-a-number": ("0.25,0.75,-1,1", "0.25,abc,-1,1", not_grid_output(15)),
    "locus-without-name": (" name=rd", "", not_grid_output(11)),
    "locus-not-a-number": ("sum=0.9", "sum=x", not_grid_output(11)),
    "too-few-rows": ("0.75,0.75,-1,1\n", "", "grid csv has 3 rows for resolution 2"),
    "lone-child-edge-1": ("# p_d_given_c[0]=0.2\n", "",
                          "grid csv has no '# p_d_given_c[0]=' metadata line"),
    "unknown-metadata": ("# p_left=0.5\n", "# p_left=0.5\n# bogus=1\n", not_grid_output(6)),
    "header-of-other-family": ("p10,p01,sign_d1,sign_d0", "p10,p01,sign_c1,sign_c0",
                               not_grid_output(13)),
    "tampered-p10": ("0.75,0.25,", "0.9,0.25,", not_grid_output(16)),
    "tampered-p01-in-a-later-block": ("0.75,0.75,", "0.75,0.9,", not_grid_output(17)),
    "changed-locus": ("sum=0.9", "sum=0.3", not_grid_output(11)),
    "dropped-locus": (RD_LOCUS, "", not_grid_output(11)),
    "extra-locus": ("p10,p01,", RD_LOCUS + "p10,p01,", not_grid_output(13)),
}


def test_grid_csv_fixture_parses():
    assert grid_to_csv(parse_grid_csv(GRID_CSV)) == GRID_CSV


@pytest.mark.parametrize("old, new, message", MALFORMED_GRID_CSV.values(), ids=MALFORMED_GRID_CSV)
def test_malformed_grid_csv_is_a_parameter_error(old, new, message):
    assert old in GRID_CSV
    with pytest.raises(ParameterError) as info:
        parse_grid_csv(GRID_CSV.replace(old, new, 1))
    assert str(info.value).startswith(message)
