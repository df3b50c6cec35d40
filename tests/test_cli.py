import hashlib
import json
import math

import pytest

from colliderbias import EdgeCpt, GridFamily, GridFixed, StructureKind, emit_grid
from colliderbias.cli import grid_to_csv, grid_to_json, main, parse_grid_csv

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
# discrepancy must stay as they were.  The 40-draw digests predate the
# batched battery; 1000 draws cross its 500-draw batch boundary.
VERIFY_BYTES_DIGESTS = {
    "json": {
        "40": "19c7b13de942b6f682e247bdfa9161c704a061940d7aaf2411f11ccc4bbcddbf",
        "1000": "ff4ec06945a09e5854e716057920b23663d145f9af74733535cc78bbdf46430f",
    },
    "text": {
        "40": "3336ec0d024edc936224b5be7b3973c5cc084c8937479d4f8695b9c324cd80f6",
        "1000": "046b68c424072495c22559dfcae6490b7c72234850bf4b7b7f4a3916de96095a",
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


def test_verify_timings_go_to_stderr_only(capsys):
    args = ["verify", "--all", "--draws", "3", "--seed", "2"]
    code, plain, plain_err = run_cli(capsys, *args)
    code_timed, timed, err = run_cli(capsys, *args, "--timings")
    assert code == code_timed == 0
    assert timed == plain and plain_err == ""
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == [kind.value for kind in StructureKind]
    assert all(line.endswith(" s") and float(line.split()[1]) >= 0.0 for line in lines)


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


def test_sample_rejects_zero_draws(capsys):
    code, _, err = run_cli(capsys, "sample", *REFERENCE_FLAGS, "--draws", "0")
    assert code == 2
    assert "draws" in err


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


def test_grid_bytes_pinned():
    digest = hashlib.sha256()
    for p_c00, p_c11, p_left, p_right, (d0, d1) in GRID_PIN_SETTINGS:
        fixed = GridFixed(p_c00=p_c00, p_c11=p_c11, p_left=p_left, p_right=p_right,
                          p_d_given_c=EdgeCpt(given_0=d0, given_1=d1))
        for family in GridFamily:
            for resolution in (5, 60):
                grid = emit_grid(family, fixed, resolution)
                digest.update(grid_to_csv(grid).encode())
                digest.update(grid_to_json(grid).encode())
    assert digest.hexdigest() == GRID_BYTES_DIGEST


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
    "grid-probability-out-of-range": ([*GRID_FLAGS, "--p-left", "1.5"], "p_left"),
    "grid-child-edge-out-of-range": (
        [*GRID_FLAGS[:2], "child-stratum", *GRID_FLAGS[3:], "--p-d-given-c", "0=-0.1,1=0.7"],
        "p_d_given_c[0]",
    ),
}


@pytest.mark.parametrize("argv, fragment", MALFORMED_RUNS.values(), ids=MALFORMED_RUNS)
def test_malformed_input_exits_2(capsys, tmp_path, argv, fragment):
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    (tmp_path / "list.json").write_text("[0.5]", encoding="utf-8")
    paths = {
        "{missing}": str(tmp_path / "missing.json"),
        "{bad_json}": str(tmp_path / "bad.json"),
        "{list_json}": str(tmp_path / "list.json"),
    }
    code, out, err = run_cli(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert fragment in err


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
