import importlib.util
import json
import math
import os
from pathlib import Path

import pytest

from exitdom import bm, cli, dominance, io, verify, walk
from exitdom.io import OUTDIR_ENV

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def run(args):
    return cli.main(args)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_no_command_is_usage_error(capsys):
    assert run([]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("rw-survival", "rw-dominance", "rw-independence", "rw-reweight",
                 "rw-factorization", "bm-survival", "bm-dominance", "bm-couple",
                 "bm-independence", "bm-reweight", "verify-all"):
        assert name in out


def test_subcommand_help_shows_units_and_defaults(capsys):
    assert run(["rw-survival", "--help"]) == 0
    out = capsys.readouterr().out
    assert "(steps)" in out and "[default: 2]" in out


def test_tol_help_states_the_pass_rule(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep each flag's help on one line
    assert run(["rw-independence", "--help"]) == 0
    assert "max allowed joint-vs-product independence deviation (probability)" \
        in capsys.readouterr().out
    assert run(["rw-reweight", "--help"]) == 0
    assert "floor under the tail bound: pass when |reweighted - direct| <= " \
        "max(tail bound, tol) (probability)" in capsys.readouterr().out


def test_rw_survival_csv_rows(tmp_path, capsys):
    assert run(["rw-survival", "--p", "0.6", "--k", "2", "--horizon", "2",
                "--outdir", str(tmp_path)]) == 0
    lines = read(tmp_path / "rw_survival.csv").splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data == ["n,survival", "0,1", "1,1", "2,0.48"]
    # resolved config is echoed and embedded
    assert "# p = 0.6" in lines
    assert "p = 0.6" in capsys.readouterr().out
    doc = json.loads(read(tmp_path / "rw_survival.json"))
    assert doc["schema_version"] == 1
    assert doc["config"]["horizon"] == "2"
    assert doc["survival"] == {"mode": "float", "values": ["1", "1", "0.48"]}


def test_rw_survival_rational_mode(tmp_path):
    assert run(["rw-survival", "--p", "3/5", "--k", "2", "--horizon", "2",
                "--mode", "rational", "--outdir", str(tmp_path)]) == 0
    data = [l for l in read(tmp_path / "rw_survival.csv").splitlines()
            if not l.startswith("#")]
    assert data[-1] == "2,12/25"
    doc = json.loads(read(tmp_path / "rw_survival.json"))
    assert doc["survival"] == {"mode": "rational",
                               "values": ["1/1", "1/1", "12/25"]}


def test_bad_flag_value_is_exit_1(tmp_path, capsys):
    assert run(["rw-survival", "--k", "two", "--outdir", str(tmp_path)]) == 1
    assert "bad value for key 'k'" in capsys.readouterr().err


def test_bad_domain_value_is_exit_1(tmp_path, capsys):
    assert run(["rw-survival", "--p", "1.5", "--outdir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unwritable_outdir_is_exit_3(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("")  # a file where a directory is needed
    assert run(["rw-survival", "--outdir", str(target / "sub")]) == 3


def test_config_file_and_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# demo config\np = 0.7\nhorizon = 3\n")
    assert run(["rw-survival", "--horizon", "2", "--config", str(cfgfile),
                "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "p = 0.7" in out       # from file
    assert "horizon = 2" in out   # flag wins over file


@pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
def test_config_file_of_defaults_resolves_as_no_file(tmp_path, command):
    # every default, written as text, goes through its flag's converter
    flags = cli._SUBCOMMANDS[command][1]
    cfgfile = tmp_path / "defaults.cfg"
    cfgfile.write_text("".join(f"{flag} = {default}\n"
                               for flag, (default, _, _) in flags.items()))
    parser = cli._build_parser()

    def resolve(*extra):
        args = parser.parse_args([command, "--outdir", str(tmp_path), *extra])
        return cli._resolve(command, args)

    assert resolve("--config", str(cfgfile)) == resolve()


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nonsense = 1\n")
    assert run(["rw-survival", "--config", str(cfgfile),
                "--outdir", str(tmp_path)]) == 1
    assert "nonsense" in capsys.readouterr().err


def test_config_file_syntax_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p 0.7\n")
    assert run(["rw-survival", "--config", str(cfgfile),
                "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "run.cfg:1" in err


def test_outdir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
    assert run(["rw-survival", "--horizon", "2"]) == 0
    assert (tmp_path / "rw_survival.csv").exists()


def test_rw_dominance_ok(tmp_path, capsys):
    assert run(["rw-dominance", "--ps", "0.5,0.7", "--k", "2", "--horizon", "60",
                "--outdir", str(tmp_path)]) == 0
    assert "violations: 0" in capsys.readouterr().out
    doc = json.loads(read(tmp_path / "rw_dominance.json"))
    assert doc["report"]["n_violations"] == 0


@pytest.mark.parametrize("ps", ["0.5,,0.7", "", "0.5,x", "0.5,1/0"])
def test_bad_bias_list_is_exit_1_before_the_echo(tmp_path, capsys, ps):
    # each once failed in the handler, after the config echo
    assert run(["rw-dominance", "--ps", ps, "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "bad value for key 'ps'" in err
    assert "resolved config" not in out
    assert not list(tmp_path.iterdir())


def test_valid_bias_list_is_kept_as_written(tmp_path, capsys):
    assert run(["rw-dominance", "--ps", "1/2, 0.7", "--k", "2", "--horizon", "20",
                "--outdir", str(tmp_path)]) == 0
    assert "  ps = 1/2, 0.7" in capsys.readouterr().out
    doc = json.loads(read(tmp_path / "rw_dominance.json"))
    assert doc["config"]["ps"] == "1/2, 0.7"


@pytest.mark.parametrize("command, flag", [
    ("rw-survival", "p"), ("rw-independence", "p"), ("rw-reweight", "p-from"),
    ("rw-reweight", "p-to"), ("rw-factorization", "p1"), ("rw-factorization", "p2")])
@pytest.mark.parametrize("value", ["", "1/0", "x", "0", "1", "1.5", "-1/2"])
def test_bad_bias_is_exit_1_before_the_echo(tmp_path, capsys, command, flag, value):
    # each once failed in the library, after the config echo, without the flag
    assert run([command, f"--{flag}", value, "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert f"bad value for key '{flag}'" in err
    assert "resolved config" not in out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag", [
    (["rw-factorization", "--p1", "0.6", "--p2", "0.5"], "p2"),
    (["rw-factorization", "--p1", "3/5", "--p2", "0.6"], "p2"),
    (["rw-factorization", "--p1", "0.4"], "p1"),
    (["rw-factorization", "--p2", "0.45"], "p2"),
    (["rw-dominance", "--ps", "0.7,0.6"], "ps"),
    (["rw-dominance", "--ps", "0.5,1/2"], "ps"),
    (["rw-dominance", "--ps", "0.4,0.6"], "ps")])
def test_bias_order_and_range_are_exit_1_before_the_echo(tmp_path, capsys, argv, flag):
    # p1 >= p2, a bias below 1/2 and a grid that does not ascend once failed
    # in the library, after the config echo, without naming a flag
    assert run([*argv, "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert f"bad value for key '{flag}'" in err
    assert "resolved config" not in out
    assert not list(tmp_path.iterdir())


def test_bias_order_holds_across_config_file_and_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p1 = 0.7\n")
    out_dir = tmp_path / "out"
    assert run(["rw-factorization", "--config", str(cfg), "--p2", "0.6",
                "--outdir", str(out_dir)]) == 1
    assert "bad value for key 'p2'" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("value, message", [("", "empty bias"),
                                            ("1/0", "zero denominator in '1/0'")])
def test_bias_text_error_names_the_fault(tmp_path, capsys, value, message):
    assert run(["rw-survival", "--p", value, "--outdir", str(tmp_path)]) == 1
    assert f"bad value for key 'p': {message}" in capsys.readouterr().err


def test_valid_bias_is_kept_as_written(tmp_path, capsys):
    assert run(["rw-reweight", "--p-from", "1/2", "--p-to", " 0.7",
                "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "  p-from = 1/2\n" in out and "  p-to =  0.7\n" in out
    doc = json.loads(read(tmp_path / "rw_reweight.json"))
    assert (doc["config"]["p-from"], doc["config"]["p-to"]) == ("1/2", " 0.7")


@pytest.mark.parametrize("command", ["bm-independence", "bm-reweight", "verify-all"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_exit_1(tmp_path, capsys, command, threads):
    # bm-independence and bm-reweight once ran serially and echoed the value
    assert run([command, "--threads", threads, "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert (f"bad value for key 'threads': expected at least 1 thread, "
            f"got {threads}") in err
    assert "resolved config" not in out
    assert not list(tmp_path.iterdir())


def test_rw_independence_tolerance_failure_is_exit_2(tmp_path):
    assert run(["rw-independence", "--tol", "1e-300", "--truncation", "200",
                "--outdir", str(tmp_path)]) == 2
    assert run(["rw-independence", "--truncation", "200",
                "--outdir", str(tmp_path)]) == 0


def test_rw_independence_rational_passes_only_on_exact_zero(tmp_path, monkeypatch):
    argv = ["rw-independence", "--p", "31/61", "--k", "3", "--truncation", "300",
            "--mode", "rational", "--tol", "0", "--outdir", str(tmp_path)]
    assert run(argv) == 0
    assert json.loads(read(tmp_path / "rw_independence.json"))["max_deviation"] == 0
    # one upper exit moved off the product form by 1 / 61^250: the exact
    # deviation is above 0 but rounds to 0.0 as a float, and once passed
    real = walk._joint_entries

    def corrupted(spec, horizon, mode):
        up, down, residual, scale = real(spec, horizon, mode)
        up = list(up)
        up[250] += 1
        return up, down, residual, scale

    monkeypatch.setattr(walk, "_joint_entries", corrupted)
    assert run(argv) == 2
    assert json.loads(read(tmp_path / "rw_independence.json"))["max_deviation"] == 0


def test_rw_reweight_and_factorization(tmp_path):
    assert run(["rw-reweight", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "rw_reweight.json"))
    assert doc["abs_diff"] <= max(doc["tail_bound"], 1e-10)
    # the direct value is the table's residual, which holds the survival DP's bits
    assert doc["direct"] == walk.survival_pmf(walk.WalkSpec(0.7, 3), 10).values[10]
    assert run(["rw-factorization", "--outdir", str(tmp_path)]) == 0


def test_factorization_underflow_is_exit_1_without_nan(tmp_path, capsys):
    # every r^m P(sigma = m) underflowed: the command exited 2 and wrote
    # "deviation": NaN
    assert run(["rw-factorization", "--p1", "0.5", "--p2", "0.999999", "--k", "200",
                "--n", "4", "--outdir", str(tmp_path)]) == 1
    assert "underflows" in capsys.readouterr().err
    assert not (tmp_path / "rw_factorization.json").exists()


def test_reweight_bound_past_a_float_overflow_is_strict_json(tmp_path, capsys):
    # the float sum inside the tail bound overflowed: the bound read nan,
    # the command printed "tail bound nan" and exited 2
    assert run(["rw-reweight", "--p-from", "0.99", "--p-to", "0.98", "--k", "200",
                "--n", "300", "--truncation", "5000", "--outdir", str(tmp_path)]) == 0
    assert "tail bound 0.000e+00" in capsys.readouterr().out
    doc = json.loads(read(tmp_path / "rw_reweight.json"), parse_constant=reject)
    assert doc["tail_bound"] == 0.0 and doc["abs_diff"] <= 1e-40


def test_reweight_infinite_tail_bound_is_written_as_null(tmp_path, capsys):
    # a bound whose log passes the float range is inf; the JSON holds null
    run(["rw-reweight", "--p-from", "0.99", "--p-to", "0.5", "--k", "400",
         "--truncation", "600", "--outdir", str(tmp_path)])
    assert "tail bound inf" in capsys.readouterr().out
    doc = json.loads(read(tmp_path / "rw_reweight.json"), parse_constant=reject)
    assert doc["tail_bound"] is None


def test_reweight_infinite_tail_bound_fails_the_check(tmp_path, capsys):
    # |reweighted - direct| = 1 passed as within max(inf, tol), and exited 0
    assert run(["rw-reweight", "--p-from", "0.99", "--p-to", "0.5", "--k", "400",
                "--truncation", "600", "--outdir", str(tmp_path)]) == 2
    assert "tail bound inf (not finite" in capsys.readouterr().out
    doc = json.loads(read(tmp_path / "rw_reweight.json"), parse_constant=reject)
    assert doc["tail_bound"] is None and doc["abs_diff"] == 1.0


def test_reweight_rule_needs_a_finite_bound():
    assert verify.reweight_within(0.0, 0.0)
    assert verify.reweight_within(1e-10, 1e-20)
    assert verify.reweight_within(1e-3, 1e-3)
    assert not verify.reweight_within(2e-10, 1e-20)
    assert not verify.reweight_within(0.0, math.inf)
    assert not verify.reweight_within(0.0, math.nan)


@pytest.mark.parametrize("argv", [
    ["rw-factorization", "--p1", "0.5", "--p2", "0.6", "--n", "0"],
    ["rw-independence", "--mode", "float"],
    ["rw-independence", "--mode", "rational"],
    ["rw-reweight", "--n", "0"],
])
def test_truncation_below_k_is_exit_1_and_named(tmp_path, capsys, argv):
    # the message named a horizon, which these commands take as --truncation
    assert run(argv + ["--k", "2", "--truncation", "1", "--outdir", str(tmp_path)]) == 1
    assert "error: truncation 1 is below the half-width k=2" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_a_non_finite_value_before_the_file(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        io.write_json(str(path), {"x": [1.0, value]}, {})
    assert not path.exists()


def test_bm_survival_csv(tmp_path):
    assert run(["bm-survival", "--lambdas", "0,1", "--times", "1",
                "--outdir", str(tmp_path)]) == 0
    data = [l for l in read(tmp_path / "bm_survival.csv").splitlines()
            if not l.startswith("#")]
    assert data[0] == "lambda,t,survival,error_bound"
    assert data[1].startswith("0,1,0.37077742979952")
    assert data[2].startswith("1,1,0.24693790529559")


def test_bm_survival_error_bound_scales_with_cosh(tmp_path):
    # from t = 0.05 b^2 on the survival is cosh(lam b) times a series cut at
    # SERIES_TOL: the column once read SERIES_TOL there too
    assert run(["bm-survival", "--lambdas", "0,12", "--times", "0.04,0.05",
                "--outdir", str(tmp_path)]) == 0
    rows = json.loads(read(tmp_path / "bm_survival.json"))["rows"]
    assert [r["error_bound"] for r in rows] == [
        bm.SERIES_TOL, bm.SERIES_TOL, bm.SERIES_TOL, math.cosh(12.0) * bm.SERIES_TOL]


def test_bm_survival_cosh_overflow_is_exit_1(tmp_path, capsys):
    assert run(["bm-survival", "--lambdas", "800", "--outdir", str(tmp_path)]) == 1
    assert ("error: lambda*b = 800 exceeds 710.48, above which cosh(lambda*b) "
            "overflows a float") in capsys.readouterr().err


def test_bm_dominance(tmp_path, capsys):
    assert run(["bm-dominance", "--lambdas", "0,1", "--times", "0.5,1",
                "--outdir", str(tmp_path)]) == 0
    assert "violations: 0" in capsys.readouterr().out


def test_bm_dominance_negative_tolerance_is_exit_1(tmp_path, capsys):
    # a negative tie tolerance once reported a "violation" with negative gap
    assert run(["bm-dominance", "--lambdas", "0,1", "--b", "1", "--times", "0.5",
                "--tol", "-1", "--outdir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "tie tolerance must be nonnegative" in captured.err
    assert "violat" not in captured.out
    assert not (tmp_path / "bm_dominance.json").exists()


@pytest.mark.parametrize("command", ["bm-dominance", "rw-independence"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_flag_is_exit_1(tmp_path, capsys, command, value):
    assert run([command, f"--tol={value}", "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "bad value for key 'tol'" in err and "finite" in err
    assert "Traceback" not in err


def test_negative_flag_value_with_exponent_is_a_value(tmp_path, capsys):
    # argparse once read -1e-3 after a flag as an option: "expected one argument"
    assert run(["bm-survival", "--lambdas", "-1e-3,0", "--times", "0.5",
                "--outdir", str(tmp_path)]) == 0
    rows = json.loads(read(tmp_path / "bm_survival.json"))["rows"]
    assert [r["lambda"] for r in rows] == [-1e-3, 0.0]
    assert rows[0]["survival"] == pytest.approx(rows[1]["survival"], abs=1e-6)
    assert run(["bm-reweight", "--lambda-from", "-1e-3", "--n-paths", "2000",
                "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "bm_reweight.json"))
    assert doc["config"]["lambda-from"] == "-0.001"


def test_negative_infinite_flag_value_is_exit_1(tmp_path, capsys):
    assert run(["bm-dominance", "--tol", "-inf", "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "bad value for key 'tol': expected a finite number, got '-inf'" in err
    assert "expected one argument" not in err


@pytest.mark.parametrize("command, flag", [("bm-dominance", "times"),
                                           ("bm-survival", "lambdas"),
                                           ("bm-couple", "lambdas")])
def test_empty_float_list_is_exit_1(tmp_path, capsys, command, flag):
    # an empty --times once made bm-dominance report dominance from zero
    # comparisons, and an empty --lambdas an empty bm-survival table
    assert run([command, f"--{flag}", "", "--outdir", str(tmp_path)]) == 1
    assert f"bad value for key '{flag}'" in capsys.readouterr().err
    assert run([command, f"--{flag}", ",", "--outdir", str(tmp_path)]) == 1
    assert not list(tmp_path.iterdir())


def test_non_finite_float_list_and_config_value_are_exit_1(tmp_path, capsys):
    assert run(["bm-survival", "--times", "0.5,nan", "--outdir", str(tmp_path)]) == 1
    assert "bad value for key 'times'" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("b = inf\n")
    assert run(["bm-survival", "--config", str(cfgfile),
                "--outdir", str(tmp_path)]) == 1
    assert "bad value for key 'b'" in capsys.readouterr().err


def test_fmt_cell_prints_non_finite_floats():
    assert [io.fmt_cell(v) for v in (math.nan, math.inf, -math.inf)] == \
        ["nan", "inf", "-inf"]
    assert [io.fmt_cell(v) for v in (2.0, -0.0, 0.48, 1e16)] == \
        ["2", "0", "0.48", "1e+16"]


def test_bm_couple(tmp_path):
    assert run(["bm-couple", "--n-paths", "100", "--dt", "1e-3",
                "--time-horizon", "0.2", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "bm_couple.json"))
    assert doc["violation_fraction"] == 0  # the modulus step keeps the order
    assert len(doc["hit_mean"]) == 3
    assert max(doc["hit_law_deviation"]) <= doc["dkw_half_width"]
    assert doc["dkw_half_width"] == dominance._dkw_half_width(verify.COUPLED_ALPHA, 100)
    assert not {"tol", "level", "y0"} & set(doc["config"])


def test_bm_couple_fails_where_a_hit_law_leaves_its_band(tmp_path, capsys):
    # five steps of 0.2 record the hits far late: the order holds, the band
    # does not
    assert run(["bm-couple", "--dt", "0.2", "--outdir", str(tmp_path)]) == 2
    doc = json.loads(read(tmp_path / "bm_couple.json"))
    assert doc["violation_fraction"] == 0
    assert max(doc["hit_law_deviation"]) > doc["dkw_half_width"]
    assert "against DKW half-width" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["level", "y0"])
def test_bm_couple_has_no_level_or_start_flag(tmp_path, capsys, flag):
    # the band is the exit law from (-1, 1) started at 0: level 1 from y0 = 0
    assert run(["bm-couple", f"--{flag}", "1", "--outdir", str(tmp_path)]) == 1
    assert f"unrecognized arguments: --{flag} 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bm_couple_has_no_tolerance_flag(tmp_path, capsys):
    # every nonnegative --tol gave the verdict of verify.COUPLED_TOL, 0
    assert run(["bm-couple", "--tol", "0", "--outdir", str(tmp_path)]) == 1
    assert "unrecognized arguments: --tol=0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bm_couple_dt_above_horizon_is_exit_1(tmp_path, capsys):
    assert run(["bm-couple", "--dt", "3", "--time-horizon", "1",
                "--outdir", str(tmp_path)]) == 1
    assert "error: dt must not exceed the horizon" in capsys.readouterr().err


def test_bm_couple_step_count_overflow_is_exit_1(tmp_path, capsys):
    assert run(["bm-couple", "--dt", "1e-300", "--time-horizon", "1e300",
                "--outdir", str(tmp_path)]) == 1
    assert ("error: horizon / dt is not a finite step count: dt=1e-300, "
            "horizon=1e+300") in capsys.readouterr().err


def reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_bm_couple_json_is_strict_without_hits(tmp_path):
    # no path comes near level 1 in 10 steps of 1e-3
    assert run(["bm-couple", "--n-paths", "50", "--dt", "1e-3",
                "--time-horizon", "0.01", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "bm_couple.json"), parse_constant=reject)
    assert doc["hit_mean"] == doc["hit_stderr"] == [None, None, None]
    assert doc["hit_fraction"] == [0.0, 0.0, 0.0]


def test_bm_independence_and_path_dump(tmp_path):
    assert run(["bm-independence", "--n-paths", "5000", "--dump-paths", "1",
                "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "bm_independence.json"))
    assert doc["p_value"] >= 1e-3
    assert "bridge" not in doc["config"]  # the in-step sampler is the one exit path
    dump = [l for l in read(tmp_path / "bm_independence_paths.csv").splitlines()
            if not l.startswith("#")]
    assert dump[0] == "path,time,side,terminal"
    assert len(dump) == 5001


@pytest.mark.parametrize("command", ["bm-independence", "bm-reweight"])
def test_exit_dt_too_coarse_for_the_barrier_is_exit_1(tmp_path, capsys, command):
    # b / sqrt(dt) = 5: one step may reach both barriers
    assert run([command, "--b", "0.5", "--dt", "0.01", "--n-paths", "100",
                "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: dt=0.01 is too coarse for barrier b=0.5" in err
    assert "Traceback" not in err
    # endpoint monitoring, which skipped the check, is no longer an option
    assert run([command, "--b", "0.5", "--dt", "0.01", "--n-paths", "2000",
                "--bridge", "0", "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --bridge 0" in err
    assert "Traceback" not in err
    cfgfile = tmp_path / "bridge.cfg"
    cfgfile.write_text("bridge = 1\n")
    assert run([command, "--config", str(cfgfile), "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"config key 'bridge' is not accepted by {command}" in err
    assert "Traceback" not in err


def test_bm_reweight(tmp_path):
    assert run(["bm-reweight", "--n-paths", "5000",
                "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "bm_reweight.json"))
    assert doc["z_score"] <= 4.0
    assert "bridge" not in doc["config"]
    assert not (tmp_path / "bm_reweight_paths.csv").exists()  # dump is opt-in


def test_bm_reweight_exact_match_reads_z_zero(tmp_path):
    # at t = 0 the estimate and the analytic value are both exactly 1 with
    # stderr 0; this once wrote "z_score": Infinity and exited 2
    assert run(["bm-reweight", "--lambda-from", "1", "--lambda-to", "1",
                "--t", "0", "--n-paths", "2000", "--outdir", str(tmp_path)]) == 0
    doc = json.loads(read(tmp_path / "bm_reweight.json"), parse_constant=reject)
    assert doc["estimate"] == doc["analytic"] == 1.0
    assert doc["stderr"] == doc["z_score"] == 0.0


def test_bm_reweight_infinite_z_is_null_and_exit_2(tmp_path):
    # both paths outlive t, so stderr is 0 while the analytic value is below 1
    assert run(["bm-reweight", "--lambda-from", "1", "--lambda-to", "1",
                "--t", "0.3", "--n-paths", "2", "--seed", "2",
                "--outdir", str(tmp_path)]) == 2
    doc = json.loads(read(tmp_path / "bm_reweight.json"), parse_constant=reject)
    assert doc["estimate"] == 1.0 and doc["stderr"] == 0.0
    assert doc["analytic"] < 1.0
    assert doc["z_score"] is None


def test_bm_reweight_one_path_is_exit_1(tmp_path, capsys):
    # one path once wrote "stderr": NaN, with numpy warnings on stderr
    assert run(["bm-reweight", "--n-paths", "1", "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: reweighting needs at least 2 paths for a standard error, got 1\n"
    assert not (tmp_path / "bm_reweight.json").exists()


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_quick(tmp_path, capsys):
    # under the benchmark's tracer, which rebinds the library's functions and
    # reports one verify.<check>.s span total per battery check
    tracing = load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        root = tracer.open("verify-all", "bench")
        status = run(["verify-all", "--profile", "quick", "--outdir", str(tmp_path)])
        tracer.close(root)
    finally:
        restore()
    assert status == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 10
    assert "10/10 checks passed" in out
    txt = read(tmp_path / "verify_all.txt")
    assert "10/10 checks passed" in txt
    doc = json.loads(read(tmp_path / "verify_all.json"))
    assert all(r["passed"] for r in doc["results"])
    assert tuple(r["name"] for r in doc["results"]) == tracing.VERIFY_CHECKS
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, root)
    assert all(metrics[f"verify.{name}.s"] > 0 for name in tracing.VERIFY_CHECKS)


def test_verify_all_bad_profile(tmp_path, capsys):
    # once failed in the battery, after the echo
    assert run(["verify-all", "--profile", "huge",
                "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert ("bad value for key 'profile': expected one of desk|quick, "
            "got 'huge'") in err
    assert "resolved config" not in out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["rw-survival", "rw-dominance", "rw-independence"])
@pytest.mark.parametrize("value", ["decimal", "Float", ""])
def test_bad_mode_is_exit_1_before_the_echo(tmp_path, capsys, command, value):
    # each once failed in the library, after the echo
    assert run([command, "--mode", value, "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert (f"bad value for key 'mode': expected one of rational|float, "
            f"got {value!r}") in err
    assert "resolved config" not in out
    assert not list(tmp_path.iterdir())


def test_bad_mode_in_a_config_file_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = exact\n")
    out_dir = tmp_path / "out"
    assert run(["rw-survival", "--config", str(cfg), "--outdir", str(out_dir)]) == 1
    assert "bad value for key 'mode'" in capsys.readouterr().err
    assert not out_dir.exists()
