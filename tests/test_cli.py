"""Command-line entry points: output shapes, config handling, exit codes."""

import json

import pytest

from mcie.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partition_asymptotic_pinned_json(capsys):
    code, out, err = _run(
        capsys, "partition", "--N", "1000000", "--m", "3", "--schedule", "asymptotic"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == [5, 26, 968]
    assert payload["sum"] == 999
    assert payload["budget"] == 1000000
    assert payload["warning"] == "sum != budget"


def test_partition_budget_consistent_has_objective(capsys):
    code, out, _ = _run(capsys, "partition", "--N", "100", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == [9, 91]
    assert payload["sum"] == 100
    assert "warning" not in payload
    assert payload["objective"] == pytest.approx(0.0122100, abs=5e-8)


def test_cases_lists_registry(capsys):
    code, out, _ = _run(capsys, "cases")
    assert code == 0
    rows = json.loads(out)
    assert {r["case"] for r in rows} == {
        "fred-lin-const", "fred-smooth", "volt-exp", "volt-smooth"
    }
    assert all({"case", "kind", "description"} <= set(r) for r in rows)


def test_solve_zero_variance_values(tmp_path, capsys):
    out_prefix = tmp_path / "run"
    code, out, _ = _run(
        capsys, "solve", "--case", "fred-lin-const", "--N", "1000",
        "--m", "8", "--seed", "0", "--out", str(out_prefix),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "solve"
    assert payload["halfwidth"] == 0.0
    csv_lines = (tmp_path / "run.csv").read_text().splitlines()
    assert csv_lines[0] == "point_index,coord_0,mc_value,det_value,halfwidth"
    first = csv_lines[1].split(",")
    # x_8 = 2 - 2^-8 exactly for the linear constant case
    assert float(first[2]) == 1.99609375
    json_copy = json.loads((tmp_path / "run.json").read_text())
    assert json_copy == payload


def test_solve_reruns_are_byte_identical(tmp_path, capsys):
    args = (
        "solve", "--case", "fred-smooth", "--N", "3000", "--m", "2", "--seed", "5",
    )
    texts = []
    for prefix in ("a", "b"):
        code, out, _ = _run(capsys, *args, "--out", str(tmp_path / prefix))
        assert code == 0
        texts.append(
            (tmp_path / f"{prefix}.csv").read_text()
            + (tmp_path / f"{prefix}.json").read_text()
        )
    assert texts[0] == texts[1]


def test_band_reports_widened_interval(capsys):
    code, out, _ = _run(
        capsys, "band", "--case", "fred-lin-const", "--N", "500", "--m", "4",
        "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["covers_det_iterate"] is True
    assert payload["halfwidth_widened"] >= payload["halfwidth"]
    assert payload["iteration_bound"] >= 0.0


def test_solve_and_band_report_covariance_diagnostics(capsys):
    code, out, _ = _run(
        capsys, "solve", "--case", "fred-lin-const", "--N", "500", "--m", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cov_rank"] == 0
    assert payload["cov_heavy_clip"] is False
    code, out, _ = _run(
        capsys, "band", "--case", "fred-smooth", "--N", "2000", "--m", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cov_rank"] == 3
    assert payload["cov_heavy_clip"] is False


# (solve, band) covariance ranks at N=2000, m=2, seed 0.
_COV_RANKS = {
    "fred-lin-const": (0, 0),
    "fred-smooth": (3, 3),
    "volt-exp": (1, 1),
    "volt-smooth": (6, 6),
}


@pytest.mark.parametrize("case_id", sorted(_COV_RANKS))
def test_cov_rank_on_registered_cases(capsys, case_id):
    for command, rank in zip(("solve", "band"), _COV_RANKS[case_id]):
        code, out, _ = _run(capsys, command, "--case", case_id, "--N", "2000", "--m", "2")
        assert code == 0
        assert json.loads(out)["cov_rank"] == rank, command


def test_rate_needs_multiple_budgets(capsys):
    code, _, err = _run(
        capsys, "rate", "--case", "fred-smooth", "--N", "1000", "--seed", "0"
    )
    assert code == 1
    assert "budget" in err.lower()


_NOT_EXACT = (
    "error: schedule kind 'asymptotic' does not spend the budget exactly; "
    "use 'uniform' or 'budget-consistent'\n"
)


def test_rate_rejects_asymptotic_schedule(capsys):
    code, _, err = _run(
        capsys, "rate", "--case", "fred-smooth", "--N", "400,1600",
        "--schedule", "asymptotic",
    )
    assert code == 1
    assert err == _NOT_EXACT


def test_coverage_rejects_asymptotic_schedule(capsys):
    code, _, err = _run(
        capsys, "coverage", "--case", "fred-smooth", "--N", "400", "--m", "2",
        "--schedule", "asymptotic",
    )
    assert code == 1
    assert err == _NOT_EXACT


def test_rate_runs_small_study(capsys):
    code, out, _ = _run(
        capsys, "rate", "--case", "fred-smooth", "--N", "400,1600", "--m", "2",
        "--reps", "4", "--seed", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["median_errors"]) == 2
    assert payload["budgets"] == [400, 1600]


def test_coverage_zero_variance_case(capsys):
    code, out, _ = _run(
        capsys, "coverage", "--case", "fred-lin-const", "--N", "400", "--m", "2",
        "--reps", "20", "--seed", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coverage"] == 1.0
    assert payload["coverage_reference"] == 1.0


_ONE_BUDGET = "error: N lists 2 budgets; only 'rate' takes more than one\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--case", "fred-lin-const"),
        ("band", "--case", "fred-lin-const"),
        ("coverage", "--case", "fred-lin-const"),
        ("partition",),
    ],
    ids=lambda argv: argv[0],
)
def test_single_budget_commands_refuse_a_list(capsys, argv):
    code, out, err = _run(capsys, *argv, "--N", "1000,5000", "--m", "2")
    assert (code, out, err) == (1, "", _ONE_BUDGET)


def test_config_budget_list_is_refused_outside_rate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "fred-lin-const", "N": [1000, 5000], "m": 2}))
    code, out, err = _run(capsys, "solve", "--config", str(cfg))
    assert (code, out, err) == (1, "", _ONE_BUDGET)
    code, out, _ = _run(capsys, "rate", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["budgets"] == [1000, 5000]


def test_unknown_case_exits_one(capsys):
    code, _, err = _run(capsys, "solve", "--case", "no-such-case", "--N", "100")
    assert code == 1
    assert "unknown case" in err


def test_volt_exp_grid_override_exits_one(capsys):
    code, out, err = _run(
        capsys, "solve", "--case", "volt-exp", "--N", "100", "--m", "2", "--grid", "7"
    )
    assert code == 1
    assert out == ""
    assert "fixed grid of 2 points" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "fred-lin-const", "N": 500, "m": 2, "seed": 11}))
    code, out, _ = _run(capsys, "solve", "--config", str(cfg), "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["stages"] == 4
    assert payload["budget"] == 500
    assert payload["seed"] == 11


def test_config_rejects_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"casx": "fred-lin-const"}))
    code, _, err = _run(capsys, "solve", "--config", str(cfg))
    assert code == 1
    assert "unknown config field 'casx'" in err


def test_config_rejects_bad_level(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "fred-lin-const", "level": 1.7}))
    code, _, err = _run(capsys, "solve", "--config", str(cfg))
    assert code == 1
    assert "level" in err


# One invalid value per config field, with the requirement it must meet.
_BAD_CONFIG_VALUES = {
    "case": (5, "a case id string"),
    "N": ([1, 0], "a positive integer or list of positive integers"),
    "m": (True, "a positive integer"),
    "schedule": ("fastest", "one of uniform, budget-consistent, asymptotic"),
    "seed": (True, "a non-negative integer"),
    "level": (True, "a number strictly between 0 and 1"),
    "reps": (True, "a positive integer"),
    "grid": (True, "an integer of at least 2"),
    "tau_grid": (True, "an integer of at least 2"),
    "out": ("", "an output path prefix string"),
}


@pytest.mark.parametrize("field", list(_BAD_CONFIG_VALUES))
def test_config_rejects_each_bad_field(tmp_path, capsys, field):
    value, requirement = _BAD_CONFIG_VALUES[field]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "fred-lin-const", field: value}))
    code, out, err = _run(capsys, "solve", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == f"error: config field '{field}' must be {requirement}\n"


def test_unwritable_out_prefix_exits_one(tmp_path, capsys):
    code, _, err = _run(
        capsys, "solve", "--case", "fred-lin-const", "--N", "100", "--m", "2",
        "--out", str(tmp_path / "missing-dir" / "run"),
    )
    assert code == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "solve" in out and "partition" in out
