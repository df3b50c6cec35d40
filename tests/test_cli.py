import json
import math

import pytest

from colliderbias.cli import grid_to_csv, main, parse_grid_csv

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
