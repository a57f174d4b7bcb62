"""Subcommand plumbing: flags, config files, overrides, outputs, exit codes.

Exit convention: 0 success/Pass, 1 Fail or numeric failure, 2 usage error.
"""

import csv
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import yamabelab as yl
from yamabelab import cli
from yamabelab.cli import LIMIT_COLUMNS, run

SOLVE_FLAGS = ["--n", "3", "--m", "0.2", "--beta", "1", "--rho", "1", "--eta", "1"]


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("YAMABELAB_OUTPUT_DIR", raising=False)
    return tmp_path


def test_solve_writes_profile(tmp_path, capsys):
    code = run(["solve", *SOLVE_FLAGS, "--r-max", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Global" in out
    with open(tmp_path / "profile.csv") as fh:
        assert fh.readline().strip() == "r,v,dv"
    doc = json.loads((tmp_path / "profile.json").read_text())
    assert doc["status"]["kind"] == "Global"
    assert doc["params"]["rho"] == 1.0


def test_solve_blowup_reports_radius(tmp_path, capsys):
    code = run(
        ["solve", "--n", "3", "--m", "0.2", "--alpha", "-1", "--beta", "-1",
         "--eta", "1", "--r-max", "10"]
    )
    assert code == 0
    assert "BlowUp" in capsys.readouterr().out
    doc = json.loads((tmp_path / "profile.json").read_text())
    assert doc["status"]["kind"] == "BlowUp"
    assert doc["status"]["radius"] < 3.873


def test_formats_subset(tmp_path):
    code = run(["solve", *SOLVE_FLAGS, "--r-max", "10", "--formats", "json"])
    assert code == 0
    assert not (tmp_path / "profile.csv").exists()
    assert (tmp_path / "profile.json").exists()
    assert run(["solve", *SOLVE_FLAGS, "--r-max", "10", "--formats", "yaml"]) == 2


def test_geometry_outputs(tmp_path, capsys):
    code = run(["geometry", *SOLVE_FLAGS, "--r-max", "10"])
    assert code == 0
    assert "cross-check" in capsys.readouterr().out
    with open(tmp_path / "geometry.csv") as fh:
        assert fh.readline().strip() == "r,v,w,R,K0,K1,psi_s"
    doc = json.loads((tmp_path / "geometry.json").read_text())
    assert doc["k0_agreement"] < 1e-3


def test_geometry_rejects_general_exponent(capsys):
    code = run(
        ["geometry", "--n", "3", "--m", "0.15", "--beta", "1", "--alpha", "2",
         "--eta", "1", "--r-max", "10"]
    )
    assert code == 2
    assert "soliton" in capsys.readouterr().err


def test_geometry_csv_roundtrip_reproduces(tmp_path):
    assert run(["solve", *SOLVE_FLAGS, "--r-max", "100"]) == 0
    assert run(["geometry", *SOLVE_FLAGS, "--r-max", "100"]) == 0
    prof = yl.load_profile(tmp_path / "profile.csv", tmp_path / "profile.json")
    curves = yl.compute_geometry(prof)
    data = np.loadtxt(tmp_path / "geometry.csv", delimiter=",", skiprows=1)
    for col, name in ((2, "w"), (3, "R"), (4, "K0"), (5, "K1"), (6, "psi_s")):
        stored = data[:, col]
        recomputed = getattr(curves, name)
        scale = np.max(np.abs(stored))
        assert np.max(np.abs(stored - recomputed)) <= 1e-12 * scale
    # the two sidecars of one run agree on the fields they share
    profile = json.loads((tmp_path / "profile.json").read_text())
    geometry = json.loads((tmp_path / "geometry.json").read_text())
    shared = {"params", "status", "rtol", "atol", "grid_points"}
    assert set(profile) == shared | {"step_indices"}
    assert set(geometry) == shared | {"k0_agreement"}
    assert all(profile[key] == geometry[key] for key in shared)


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.toml"
    cfg.write_text(
        "# expanding reference\n"
        "n = 3\n"
        "m = 0.2\n"
        "beta = 1\n"
        "rho = -1\n"
        "eta = 1\n"
    )
    code = run(["verify", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Expanding" in out and "Pass" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["overall"] == "Pass"


def test_verify_nonpass_exit_code():
    # steady run is honestly Inconclusive at r = 1e4, so verify exits 1
    code = run(
        ["verify", "--n", "3", "--m", "0.2", "--beta", "1", "--rho", "0", "--eta", "1"]
    )
    assert code == 1


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.toml"
    cfg.write_text("n = 3\ngamma = 7\n")
    assert run(["verify", "--config", str(cfg)]) == 2
    assert "unknown config key 'gamma'" in capsys.readouterr().err
    cfg.write_text("n 3\n")
    assert run(["verify", "--config", str(cfg)]) == 2
    assert run(["verify", "--config", str(tmp_path / "missing.toml")]) == 2


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.toml"
    cfg.write_text("n = 3\nm = 0.2\nbeta = -1\nalpha = -4\neta = 1\n")
    # config alone certifies the faster Case1 blow-up; the flag moves alpha
    assert run(["certify-blowup", "--config", str(cfg)]) == 0
    assert "Case1" in capsys.readouterr().out
    assert run(["certify-blowup", "--config", str(cfg), "--alpha", "-1"]) == 0
    assert "Case2" in capsys.readouterr().out


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    nested = tmp_path / "deep" / "out"
    monkeypatch.setenv("YAMABELAB_OUTPUT_DIR", str(nested))
    code = run(["solve", *SOLVE_FLAGS, "--r-max", "10",
                "--output-dir", str(tmp_path / "ignored")])
    assert code == 0
    assert (nested / "profile.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_certify_blowup_cases(capsys):
    assert run(["certify-blowup", "--n", "3", "--m", "0.2", "--alpha", "-1",
                "--beta", "-1", "--eta", "1"]) == 0
    out = capsys.readouterr().out
    assert "Case2" in out and "3.8730" in out.replace("3.87298", "3.8730")
    assert "within bound" in out

    assert run(["certify-blowup", "--n", "3", "--m", "0.2", "--alpha", "-1",
                "--beta", "0", "--eta", "1"]) == 0
    assert "no certified bound" in capsys.readouterr().out

    assert run(["certify-blowup", "--n", "3", "--m", "0.2", "--alpha", "1",
                "--beta", "1", "--eta", "1"]) == 2
    capsys.readouterr()

    # a negative value in exponent form is a value, as with =
    flags = ["--n", "3", "--m", "0.2", "--beta", "-1", "--eta", "1"]
    assert run(["certify-blowup", *flags, "--alpha=-1e-3"]) == 0
    expected = capsys.readouterr()
    for alpha in (["--alpha", "-1e-3"], ["--alpha", "-.1e-2"], ["--alpha", "-1E-3"]):
        assert run(["certify-blowup", *flags, *alpha]) == 0
        assert capsys.readouterr() == expected


def test_selfsim_forward(tmp_path, capsys):
    code = run(["selfsim", "--kind", "forward", "--n", "3", "--m", "0.2",
                "--beta", "1", "--eta", "1", "--x-max", "5", "--samples", "11",
                "--r-max", "100"])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "selfsim.csv")))
    assert len(rows) == 11
    assert float(rows[0]["u"]) == 1.0  # v(0) = eta at t = 1
    # passing alpha or rho alongside --kind is contradictory
    assert run(["selfsim", "--kind", "forward", "--n", "3", "--m", "0.2",
                "--beta", "1", "--eta", "1", "--alpha", "5"]) == 2
    capsys.readouterr()
    # m = 1 has no scaling alpha: a typed parameter error, not a traceback,
    # that names only the cause (not the NaN alpha the user never passed)
    assert run(["selfsim", "--kind", "forward", "--n", "3", "--m", "1",
                "--beta", "1", "--eta", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid parameters: exponent-range: ")
    assert "alpha" not in err and ";" not in err


def test_missing_and_malformed_parameters(tmp_path, capsys):
    assert run(["solve", "--n", "3", "--m", "0.2", "--beta", "1"]) == 2
    assert "eta" in capsys.readouterr().err
    # list values only make sense for sweep
    assert run(["solve", *SOLVE_FLAGS[:-2], "--eta", "1,2"]) == 2
    assert capsys.readouterr().err.startswith("error: eta: ")
    assert run(["solve", *SOLVE_FLAGS, "--r-max", "-5"]) == 2
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    # non-finite values: a typed error naming the key, never a traceback
    for bad_n in ("inf", "nan", "abc"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"n = {bad_n}\nm = 0.2\nbeta = 1\nrho = 1\neta = 1\n")
        assert run(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: n: ")
        assert run(["sweep", "--n", bad_n, "--m", "0.2", "--beta", "1", "--rho", "1",
                    "--eta", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: n: ")
        # flags and config values share one parser
        assert run(["solve", "--n", bad_n, *SOLVE_FLAGS[2:]]) == 2
        assert capsys.readouterr().err.startswith("error: n: ")
    assert run(["solve", "--n", "3.0", *SOLVE_FLAGS[2:], "--r-max", "10"]) == 0
    capsys.readouterr()
    for value in ("nan", "inf"):
        assert run(["solve", *SOLVE_FLAGS[:4], "--beta", value, *SOLVE_FLAGS[6:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid parameters: ") and "finite: beta" in err
    assert run(["verify", *SOLVE_FLAGS[:6], "--rho", "nan", *SOLVE_FLAGS[8:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid parameters: ") and "finite: rho" in err
    # alpha derived from a non-finite beta or rho: only the cause is named
    for flags in (["--beta", "nan", "--rho", "1"], ["--beta", "1", "--rho", "inf"]):
        assert run(["solve", "--n", "3", "--m", "0.2", *flags, "--eta", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid parameters: finite: ") and "alpha" not in err


def test_certify_blowup_ending_before_the_blow_up(tmp_path, capsys):
    # r_max below r* = 3.05: the solve ends Global, which certify-blowup
    # reports and fails, and a sweep writes as a Global row that fails
    flags = ["--n", "3", "--m", "0.2", "--alpha", "-1", "--beta", "-1", "--eta", "1",
             "--r-max", "1"]
    assert run(["certify-blowup", *flags]) == 1
    assert capsys.readouterr().out.strip() == "Case2: no blow-up detected before r = 1 (Global)"
    assert run(["sweep", *flags]) == 1
    (row,) = csv.DictReader(open(tmp_path / "sweep.csv"))
    assert (row["status"], row["overall"], row["error"]) == ("Global", "Fail", "")


def test_sweep_grid(tmp_path, capsys):
    code = run(["sweep", "--n", "3", "--m", "0.2", "--beta", "1",
                "--rho=-1,0", "--eta", "1", "--r-max", "150"])
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    assert len(rows) == 2
    variants = {row["rho"]: row["variant"] for row in rows}
    assert variants == {"-1": "Expanding", "0": "Steady"}
    assert all(row["error"] == "" for row in rows)
    # short r_max leaves verdicts unsettled; Inconclusive must not fail the sweep
    assert all(row["overall"] in {"Pass", "Inconclusive"} for row in rows)
    assert code == 0


def test_sweep_blowup_row_certified(tmp_path):
    code = run(["sweep", "--n", "3", "--m", "0.2", "--beta", "-1",
                "--alpha=-1,-4", "--eta", "1", "--r-max", "50"])
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    assert [row["overall"] for row in rows] == ["Certified", "Certified"]
    for row in rows:
        assert row["status"] == "BlowUp"
        assert float(row["blowup_radius"]) <= float(row["blowup_bound"]) * (1 + 1e-6)


def test_sweep_captures_per_point_errors(tmp_path):
    # rho > 0 with beta <= 0 solves into uncertified blow-up: verify raises,
    # the row records the error, the other rows are unaffected
    code = run(["sweep", "--n", "3", "--m", "0.2", "--beta=-1,1",
                "--alpha", "1.25", "--eta", "1", "--r-max", "150"])
    assert code == 1
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    by_beta = {row["beta"]: row for row in rows}
    assert "RuntimeError" in by_beta["-1"]["error"]
    assert by_beta["1"]["error"] == ""


def test_sweep_row_with_invalid_eta_carries_error(tmp_path):
    # the invalid point fails at construction; the valid row is unaffected
    code = run(["sweep", "--n", "3", "--m", "0.2", "--beta", "-1",
                "--alpha", "-1", "--eta=-1,1", "--r-max", "50"])
    assert code == 1
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    by_eta = {row["eta"]: row for row in rows}
    assert by_eta["-1"]["status"] == "Error"
    # the message holds a comma: quoted, it stays one field
    assert by_eta["-1"]["error"] == (
        "ValueError: invalid parameters: eta-positive: need eta > 0, got -1.0")
    assert all(None not in row for row in rows)
    assert by_eta["1"]["error"] == ""
    assert by_eta["1"]["overall"] == "Certified"


@given(st.lists(st.text(), min_size=2, max_size=4))
def test_sweep_fields_are_quoted_as_csv_quotes_them(fields):
    # csv quotes CR and LF under its default "\r\n" line end, the sweep writes "\n"
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    assert ",".join(map(cli._csv_field, fields)) + "\r\n" == buf.getvalue()


def test_sweep_requires_grid_keys():
    assert run(["sweep", "--n", "3", "--m", "0.2", "--beta", "1"]) == 2
    assert run(["sweep", "--n", "3", "--m", "0.2", "--beta", "1", "--eta", "1"]) == 2
    assert run(["sweep", "--n", "3.5,4", "--m", "0.2", "--beta", "1",
                "--eta", "1", "--rho", "1"]) == 2


# every shared flag, negative values in exponent and list form included
SHARED_FLAGS = [
    "--n", "3", "--m", "0.2", "--beta", "-1e-3", "--rho", "-1,0", "--alpha", "-.5",
    "--eta", "1e-2", "--r-max", "1e3", "--rtol", "1e-8", "--atol", "-1e-20",
    "--r0-scale", "1e-2", "--config", "run.cfg", "--output-dir", "out", "--formats", "json",
]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_takes_every_shared_flag(command):
    own = ["--kind", "forward"] if command == "selfsim" else []
    args = cli._build_parser().parse_args([command, *own, *SHARED_FLAGS])
    assert args.func is cli._COMMANDS[command]
    assert (args.n, args.m, args.beta, args.rho, args.alpha, args.eta) == (
        "3", "0.2", "-1e-3", "-1,0", "-.5", "1e-2")
    assert (args.r_max, args.rtol, args.atol, args.r0_scale) == (1e3, 1e-8, -1e-20, 1e-2)
    assert (args.config, args.output_dir, args.formats) == ("run.cfg", "out", "json")


def test_verify_honours_r0_scale(tmp_path):
    flags = [*SOLVE_FLAGS, "--r-max", "1e3"]
    assert run(["verify", *flags, "--output-dir", "default"]) == 0
    assert run(["verify", *flags, "--r0-scale", "1e-2", "--output-dir", "scaled"]) == 0
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    scaled = (tmp_path / "scaled" / "report.json").read_text()
    assert scaled == yl.report_to_json(yl.verify(p, r_max=1e3, r0_scale=1e-2)) + "\n"
    assert scaled != (tmp_path / "default" / "report.json").read_text()


def test_sweep_verify_row_honours_r0_scale(tmp_path):
    assert run(["sweep", *SOLVE_FLAGS, "--r-max", "1e3", "--r0-scale", "1e-2"]) == 0
    [row] = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    scaled = yl.verify(p, r_max=1e3, r0_scale=1e-2).observed
    default = yl.verify(p, r_max=1e3).observed
    assert [row[name] for name in LIMIT_COLUMNS] == [
        f"{scaled[name].value:.17g}" if name in scaled else "" for name in LIMIT_COLUMNS]
    assert scaled["w"].value != default["w"].value


@pytest.mark.parametrize("r0_scale", ["1", "2"])
def test_a_start_at_or_past_l_solves_and_sweeps(tmp_path, r0_scale):
    # a series start at l = eta^((m-1)/2) ended in a ZeroDivisionError, past
    # it in an IndexError: the r-form alone now carries the run
    flags = ["--n", "3", "--m", "0.2", "--alpha", "1e-9", "--beta", "1", "--eta", "1",
             "--r-max", "100", "--r0-scale", r0_scale]
    assert run(["solve", *flags]) == 0
    doc = json.loads((tmp_path / "profile.json").read_text())
    assert doc["status"] == {"kind": "Global", "radius": 100.0}
    assert run(["sweep", *flags]) == 0
    [row] = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    assert (row["status"], row["error"]) == ("Global", "")


def test_a_series_start_past_rtol_is_a_usage_error(tmp_path, capsys):
    # shrink3's series start at r0_scale 1 drops 0.084 of eta
    assert run(["solve", *SOLVE_FLAGS, "--r-max", "100", "--r0-scale", "1"]) == 2
    assert "r0_scale = 1.0 is too large" in capsys.readouterr().err
    assert run(["sweep", *SOLVE_FLAGS, "--r-max", "100", "--r0-scale", "1"]) == 1
    [row] = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    assert row["status"] == "Error"
    assert row["error"].startswith("ValueError: r0_scale = 1.0 is too large")


def test_limit_columns_are_the_observed_limits():
    # the expanding run is the one that reports r2v2k too
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=-1.0, eta=1.0)
    assert tuple(yl.verify(p, r_max=1e3).observed) == LIMIT_COLUMNS


def test_numeric_failures_exit_one(capsys):
    # alpha > 0 > beta touches down: the solver stalls short of r_max
    touchdown = ["--n", "3", "--m", "0.2", "--beta", "-2.5", "--alpha", "1", "--eta", "1"]
    assert run(["geometry", *touchdown, "--r-max", "100"]) == 1
    assert capsys.readouterr().err.startswith("solver stalled at r = ")
    # verify raises RuntimeError on a run that is not Global
    assert run(["verify", *touchdown]) == 1
    assert capsys.readouterr().err.startswith("numeric failure: solver did not reach r_max")
    # forward scaling at beta = -1 has alpha = -3.75 < 0: the profile blows up
    assert run(["selfsim", "--kind", "forward", "--n", "3", "--m", "0.2", "--beta", "-1",
                "--eta", "1", "--r-max", "100"]) == 1
    assert capsys.readouterr().err.startswith("profile is not global (BlowUp at r = ")


def test_malformed_numeric_setting_and_empty_list(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 3\nm = 0.2\nbeta = 1\nrho = 1\neta = 1\nrtol = tight\n")
    assert run(["solve", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: rtol: expected a number, got 'tight'\n"
    for value in (",", " , "):
        assert run(["sweep", *SOLVE_FLAGS[:6], "--rho", value, "--eta", "1"]) == 2
        assert capsys.readouterr().err == "error: rho: empty value\n"
