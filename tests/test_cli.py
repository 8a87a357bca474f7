import json
import subprocess
import sys

import pytest

from hyperlap.cli import main, parse_complex
from hyperlap.gammafn import gamma
from hyperlap.laplace import LaplaceCase, LaplaceId, closed_form


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "hyperlap", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_complex_literals():
    assert parse_complex("2") == 2.0
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("1.5+0.5i") == complex(1.5, 0.5)
    assert parse_complex("1.5-0.5i") == complex(1.5, -0.5)
    assert parse_complex("0.5i") == complex(0.0, 0.5)
    with pytest.raises(Exception):
        parse_complex("abc")


def test_eval_gamma():
    code, out, _ = run_cli("eval", "gamma", "--z", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert abs(doc["results"][0]["value_re"] - 24.0) < 1e-10
    assert doc["results"][0]["value_im"] == 0.0


def test_eval_pfq():
    code, out, _ = run_cli("eval", "pfq", "--num", "1,2", "--den", "2",
                           "--z", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"][0]["value_re"] - 2.0) < 1e-10


def test_eval_closed_form_round_trips_library():
    code, out, _ = run_cli("eval", "closed-form", "--id", "lap.gauss2x",
                           "--a", "1.2", "--b", "0.9", "--d", "1.4", "--s", "2")
    assert code == 0
    doc = json.loads(out)
    lib = closed_form(LaplaceCase(LaplaceId.GAUSS2X_L,
                                  {"a": 1.2, "b": 0.9, "d": 1.4}, 2.0))
    got = complex(doc["results"][0]["value_re"], doc["results"][0]["value_im"])
    assert got == lib.value  # bit-exact: repr round-trip through JSON


def test_eval_laplace_numeric_raw_mode():
    code, out, _ = run_cli("eval", "laplace-numeric", "--v", "1.5", "--s", "2",
                           "--w", "1", "--num", "", "--den", "")
    assert code == 0
    doc = json.loads(out)
    ref = gamma(1.5) * (2.0 - 1.0) ** -1.5
    got = doc["results"][0]["value_re"]
    assert abs(got - ref.real) <= 1e-8 * abs(ref)


def test_eval_laplace_numeric_by_id():
    code, out, _ = run_cli("eval", "laplace-numeric", "--id", "lap.watson1x",
                           "--a", "0.8", "--b", "1.1", "--c", "1.3", "--d", "2",
                           "--s", "2")
    assert code == 0
    doc = json.loads(out)
    lib = closed_form(LaplaceCase(LaplaceId.WATSON1X_L,
                                  {"a": 0.8, "b": 1.1, "c": 1.3, "d": 2.0}, 2.0))
    got = complex(doc["results"][0]["value_re"], doc["results"][0]["value_im"])
    assert abs(got - lib.value) <= 1e-5 * abs(lib.value)


def test_check_pass_and_exit_codes():
    code, out, _ = run_cli("check", "--id", "sum.kummerx",
                           "--a", "2.5", "--b", "0.5", "--d", "3")
    assert code == 0
    doc = json.loads(out)
    row = doc["results"][0]
    assert row["pass"] is True
    assert set(row) >= {"identity_id", "params", "lhs_re", "lhs_im", "rhs_re",
                        "rhs_im", "abs_residual", "rel_residual", "oracle", "pass"}


def test_check_degenerate_exits_2():
    code, out, err = run_cli("check", "--id", "sum.kummerx",
                             "--a", "2.5", "--b", "1", "--d", "3")
    assert code == 2
    assert "degenerate b=1" in err


def test_check_validity_reason_exits_2():
    code, _, err = run_cli("check", "--id", "sum.gauss2x",
                           "--a", "1.2", "--b", "0.8", "--d=-0.5")
    assert code == 2
    assert "Re(d)<=0" in err


def test_check_quadrature_oracle_flag():
    code, out, _ = run_cli("check", "--id", "lap.watson1x", "--oracle",
                           "quadrature", "--a", "0.8", "--b", "1.1",
                           "--c", "1.3", "--d", "2", "--s", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["oracle"] == "quadrature"


@pytest.mark.parametrize("identity, oracle, flags", [
    ("sum.kummerx", "quadrature", ["--a", "2.5", "--b", "0.5", "--d", "3"]),
    ("lap.kummer", "specialization", ["--a", "2.5", "--b", "0.5", "--s", "2"]),
])
def test_check_with_an_oracle_that_does_not_apply_is_a_usage_error(identity, oracle, flags,
                                                                    capsys):
    code, doc, err = _main_json(capsys, "check", "--id", identity, "--oracle", oracle, *flags)
    assert code == 1 and doc is None and f"{oracle} oracle does not apply" in err


@pytest.mark.parametrize("oracle", ["series", "specialization"])
def test_check_dixon_variant_reaches_every_closed_form(oracle, capsys):
    # the other printed reading of the second denominator misses by ~4e-2,
    # against the series and against the classical Dixon entry alike
    flags = ["--id", "lap.dixonx", "--oracle", oracle, "--a", "1.3", "--b", "0.6",
             "--c", "0.5", "--d", "1.7", "--s", "2"]
    code, doc, _ = _main_json(capsys, "check", *flags)
    assert code == 0 and doc["results"][0]["rel_residual"] < 1e-12
    code, doc, _ = _main_json(capsys, "check", *flags,
                              "--dixon-variant", "half_a_minus_c_twice")
    row = doc["results"][0]
    assert code == 3 and row["pass"] is False and row["rel_residual"] > 1e-2


def test_usage_errors_exit_1():
    code, _, _ = run_cli("eval", "gamma", "--zz", "5")
    assert code == 1
    code, _, _ = run_cli("check", "--id", "sum.gauss2x", "--a", "1.2")
    assert code == 1
    code, _, _ = run_cli("check", "--id", "bogus.thing", "--a", "1.2")
    assert code == 1
    # transform-law ids name a rule, not a checkable identity
    code, _, err = run_cli("suite", "--ids", "lap.general", "--n", "2")
    assert code == 1 and "transform law" in err
    code, _, _ = run_cli("check", "--id", "lap.lap_2f2", "--a", "1", "--s", "2")
    assert code == 1


def test_pole_is_validity_exit():
    code, _, err = run_cli("eval", "gamma", "--z", "0")
    assert code == 2


def test_suite_json_deterministic(tmp_path):
    args = ("suite", "--ids", "sum.gauss2x,lap.bailey", "--n", "5",
            "--seed", "42")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    # round trip: reparse and re-dump reproduces the numbers exactly
    assert json.dumps(doc, indent=2) + "\n" == out1


def test_suite_out_file_and_csv(tmp_path):
    out_json = tmp_path / "report.json"
    code, _, _ = run_cli("suite", "--ids", "sum.gauss2x", "--n", "4",
                         "--seed", "7", "--out", str(out_json))
    assert code == 0
    doc = json.loads(out_json.read_text())
    payload = doc["results"][0]
    assert payload["per_identity"]["sum.gauss2x"]["n_checked"] == 4

    out_csv = tmp_path / "report.csv"
    code, _, _ = run_cli("suite", "--ids", "sum.gauss2x", "--n", "4",
                         "--seed", "7", "--format", "csv", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # header + one row per check
    assert "identity_id" in lines[0]


def test_suite_n_zero_vacuous_pass():
    code, out, _ = run_cli("suite", "--all", "--n", "0", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["overall_pass"] is True


def test_suite_resolve_variant_flag():
    code, out, _ = run_cli("suite", "--ids", "sum.dixonx", "--n", "5",
                           "--seed", "42", "--resolve-variant")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["dixon_variant_verdict"] == "half_a_minus_b"


def test_resolve_dixon_command():
    code, out, _ = run_cli("resolve-dixon", "--n", "20", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    payload = doc["results"][0]
    assert payload["dixon_variant_verdict"] == "half_a_minus_b"
    assert len(payload["evidence"]) == 20


def test_config_file_defaults_cli_wins(tmp_path):
    cfg = tmp_path / "args.cfg"
    cfg.write_text("a=1.2\nb=0.8\nd=1.5\n")
    code, out, _ = run_cli("check", "--id", "sum.gauss2x",
                           "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["params"]["d"]["re"] == 1.5
    # explicit flag overrides the config value
    code, out, _ = run_cli("check", "--id", "sum.gauss2x",
                           "--config", str(cfg), "--d", "2.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["params"]["d"]["re"] == 2.5


def test_timing_envelope_only_on_request():
    code, out, _ = run_cli("eval", "gamma", "--z", "5")
    assert "envelope" not in json.loads(out)
    code, out, _ = run_cli("eval", "gamma", "--z", "5", "--timing")
    doc = json.loads(out)
    assert doc["envelope"]["timing_ms"] >= 0.0


def test_main_callable_in_process(capsys):
    assert main(["eval", "gamma", "--z", "5"]) == 0
    captured = capsys.readouterr()
    assert "value_re" in captured.out


@pytest.mark.parametrize("w, code", [("1.5", 2), ("0.5+2i", 3)])
def test_eval_laplace_numeric_refusals_exit_codes(w, code, capsys):
    # 1F1(1; 2) at s = 1+1i: w = 1.5 diverges (validity), w = 0.5+2i exists
    # but grows along the quadrature's ray (numerical failure)
    assert main(["eval", "laplace-numeric", "--v", "1", "--s", "1+1i", "--w", w,
                 "--num", "1", "--den", "2"]) == code
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [["--n", "-3"], ["--complex-im", "-0.5"],
                                   ["--pole-margin", "-1"]])
def test_suite_refuses_negative_sampler_inputs(flags, capsys):
    assert main(["suite", "--ids", "sum.gauss2x", *flags]) == 1
    assert "usage error" in capsys.readouterr().err


def _main_json(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None, captured.err


def test_config_values_replace_defaults_that_are_not_none(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("n=1\nseed=7\ncomplex-im=0.3\npole-margin=0.01\n")
    code, doc, _ = _main_json(capsys, "suite", "--ids", "sum.gauss2x", "--no-reports",
                              "--config", str(cfg))
    assert code == 0
    env = doc["results"][0]["environment"]
    got = env["n_per_id"], env["seed"], env["complex_im"], env["pole_margin"]
    assert got == (1, 7, 0.3, 0.01)
    # an explicit flag still wins over the config
    code, doc, _ = _main_json(capsys, "suite", "--ids", "sum.gauss2x", "--no-reports",
                              "--config", str(cfg), "--n", "2", "--seed", "42")
    env = doc["results"][0]["environment"]
    assert (env["n_per_id"], env["seed"], env["complex_im"]) == (2, 42, 0.3)


def test_config_tol_and_max_terms_reach_eval_pfq(tmp_path, capsys):
    cfg = tmp_path / "pfq.cfg"
    cfg.write_text("tol=1e-6\nmax-terms=5\n")
    code, doc, err = _main_json(capsys, "eval", "pfq", "--num", "1", "--den", "2", "--z", "0.5",
                                "--config", str(cfg))
    assert code == 3 and "did not converge" in err
    code, doc, _ = _main_json(capsys, "eval", "pfq", "--num", "1", "--den", "2", "--z", "0.5",
                              "--config", str(cfg), "--max-terms", "100")
    assert code == 0
    assert doc["inputs"]["tol"] == 1e-6 and doc["inputs"]["max_terms"] == 100


@pytest.mark.parametrize("line", ["n=3", "config=other.cfg", "format=xml", "timing=maybe", None])
def test_unknown_config_key_or_missing_config_is_a_usage_error(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    if line is not None:  # else no config file at all
        cfg.write_text(line + "\n")
    code, doc, err = _main_json(capsys, "eval", "pfq", "--num", "1", "--den", "2", "--z", "0.5",
                                "--config", str(cfg))
    assert code == 1 and doc is None and "usage error" in err


@pytest.mark.parametrize("identity, flags, rel", [
    ("sum.kummerx", ["--a", "2.5", "--b", "0.9995", "--d", "3"], 1e-11),  # 5e-4 from b = 1
    ("sum.gauss2x", ["--a", "1.8005", "--b", "0.8", "--d", "1.5"], 1e-10),  # 5e-4 from a pole
])
def test_check_runs_bindings_inside_the_sampler_margins(identity, flags, rel, capsys):
    code, doc, _ = _main_json(capsys, "check", "--id", identity, *flags)
    row = doc["results"][0]
    assert code == 0 and row["pass"] is True and row["rel_residual"] <= rel


@pytest.mark.parametrize("identity", ["sum.gauss2x", "lap.gauss2x"])
def test_check_at_a_gamma_pole_is_a_validity_error_for_both_kinds(identity, capsys):
    # a - b = 1 puts a numerator gamma argument of the closed form on 0
    code, doc, err = _main_json(capsys, "check", "--id", identity, "--a", "1.8", "--b", "0.8",
                                "--d", "1.5", "--s", "2")
    assert code == 2 and doc is None and "pole" in err


@pytest.mark.parametrize("identity, flags", [("sum.kummerx", []), ("lap.kummerx", ["--s", "2"])])
def test_check_with_a_zero_series_denominator_is_a_validity_error_for_both_kinds(
        identity, flags, capsys):
    # b = a + 2 puts a denominator parameter of the series on 0
    code, doc, err = _main_json(capsys, "check", "--id", identity, "--a", "0.5", "--b", "2.5",
                                "--d", "1.5", *flags)
    assert code == 2 and doc is None
    assert "validity error" in err and "nonpositive integer" in err


def test_specialization_check_is_prechecked_at_the_distinguished_d(capsys):
    # the given d = -0.5 is refused, but the check runs at d = (a+b+1)/2 = 1.55
    code, doc, _ = _main_json(capsys, "check", "--id", "lap.gauss2x", "--oracle",
                              "specialization", "--a", "1.2", "--b", "0.9", "--d=-0.5", "--s", "2")
    row = doc["results"][0]
    assert code == 0 and row["pass"] is True
    assert row["params"]["d"] == {"re": 1.55, "im": 0.0}


def test_specialization_binding_invalid_at_the_distinguished_d_exits_2(capsys):
    # valid at the given d = 1.5 (the series oracle runs), but d = (a+b+1)/2 = -0.3
    flags = ["--id", "lap.gauss2x", "--a", "-2.5", "--b", "0.9", "--d", "1.5", "--s", "2"]
    assert _main_json(capsys, "check", *flags)[0] == 0
    code, doc, err = _main_json(capsys, "check", "--oracle", "specialization", *flags)
    assert code == 2 and doc is None and "Re(d)<=0" in err
