import json
import os

import numpy as np
import pytest

from tailchain import tail_chain
from tailchain.cli import _write_paths_csv, main, read_config
from tailchain.paths import PathEnsemble


def _run(args):
    return main(args)


def test_beta_seq_csv_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = _run(["--out", str(out), "--seed", "9", "beta-seq",
                     "--beta", "0.61", "--k", "5", "--horizon", "40"])
        assert code == 0
    a = (out1 / "beta_seq.csv").read_bytes()
    b = (out2 / "beta_seq.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "t,beta_t"


def test_float_format_17_digits(tmp_path):
    _run(["--out", str(tmp_path), "beta-seq", "--beta", "0.61", "--k", "2",
          "--horizon", "3"])
    lines = (tmp_path / "beta_seq.csv").read_text().splitlines()
    assert lines[2].split(",")[1] == f"{0.61:.17g}"


def test_solve_recurrence_outputs(tmp_path):
    code = _run(["--out", str(tmp_path), "solve-recurrence", "--c", "0.9",
                 "--gamma", "0.3,0.7", "--delta", "1.0",
                 "--alpha-init", "1,0.55", "--horizon", "25"])
    assert code == 0
    blob = json.loads((tmp_path / "recurrence.json").read_text())
    assert blob["regime"] == "general_delta"
    assert blob["max_abs_diff_vs_iteration"] < 1e-10
    rows = (tmp_path / "recurrence.csv").read_text().splitlines()
    assert rows[0] == "t,alpha"
    assert len(rows) == 27
    code = _run(["--out", str(tmp_path), "solve-recurrence", "--c", "0.9",
                 "--gamma", "0.3,0.7", "--delta", "inf", "--horizon", "10"])
    assert code == 0


def test_simulate_chain_paths_csv(tmp_path):
    code = _run(["--out", str(tmp_path), "--seed", "3", "simulate-chain",
                 "--family", "gaussian", "--rho", "0.7,0.5", "--u", "6",
                 "--horizon", "6", "--n-rep", "20"])
    assert code == 0
    rows = (tmp_path / "chain_paths.csv").read_text().splitlines()
    assert rows[0] == "replicate,t,value"
    assert len(rows) == 1 + 20 * 7


def test_simulate_tail_chain_and_bands(tmp_path):
    code = _run(["--out", str(tmp_path), "--seed", "3", "simulate-tail-chain",
                 "--kind", "logistic-rw", "--alpha", "0.32", "--k", "5",
                 "--horizon", "10", "--n-rep", "200"])
    assert code == 0
    bands = (tmp_path / "tail_chain_bands.csv").read_text().splitlines()
    assert bands[0] == "t,mean,q0.025,q0.5,q0.975"
    assert len(bands) == 12


def test_regime_chain_csv_has_mode_columns(tmp_path):
    code = _run(["--out", str(tmp_path), "--seed", "4", "simulate-tail-chain",
                 "--kind", "regime-switching", "--horizon", "40",
                 "--n-rep", "50"])
    assert code == 0
    rows = (tmp_path / "tail_chain_paths.csv").read_text().splitlines()
    assert rows[0] == "replicate,t,value,atom_flag,regime"


def test_paths_csv_rows(tmp_path):
    # every value in replicate-major order; with mode columns, values after
    # termination (NaN) are left out
    data = np.array([[0.0, 1.5, np.nan], [0.0, -0.25, 2.0]])
    modes = np.array([[1, 0, -1], [1, 1, 0]], dtype=np.int8)
    ens = PathEnsemble(data=data, extras={"modes": modes,
                                          "atom_flag": (modes == 0).astype(np.int8)})
    _write_paths_csv(tmp_path / "regime.csv", ens)
    assert (tmp_path / "regime.csv").read_text().splitlines() == [
        "replicate,t,value,atom_flag,regime", "0,0,0,0,1", "0,1,1.5,1,0",
        "1,0,0,0,1", "1,1,-0.25,0,1", "1,2,2,1,0"]
    _write_paths_csv(tmp_path / "plain.csv", PathEnsemble(data=data[1:]))
    assert (tmp_path / "plain.csv").read_text().splitlines() == [
        "replicate,t,value", "0,0,0", "0,1,-0.25", "0,2,2"]


def test_fig1_and_fig2(tmp_path):
    code = _run(["--out", str(tmp_path), "--seed", "5", "fig1", "--panel", "b",
                 "--horizon", "15", "--n-rep", "500"])
    assert code == 0
    assert (tmp_path / "fig1b_bands.csv").exists()
    assert (tmp_path / "fig1b_path.csv").exists()
    code = _run(["--out", str(tmp_path), "--seed", "5", "fig2",
                 "--horizon", "80", "--n-rep", "500"])
    assert code == 0
    blob = json.loads((tmp_path / "fig2_summary.json").read_text())
    assert 6.0 < blob["mean_tb"] < 11.0
    hist = (tmp_path / "fig2_tb_hist.csv").read_text().splitlines()
    assert hist[0] == "tb,count"


def test_fig2_runs_where_the_body_quantile_cycled(tmp_path):
    # this seed draws a body value on which the regime body quantile's Newton
    # steps used to cycle until they ran out (exit code 3)
    assert _run(["--out", str(tmp_path), "--seed", "77115418", "fig2",
                 "--horizon", "50"]) == 0


def test_validate_json(tmp_path):
    code = _run(["--out", str(tmp_path), "--seed", "6", "validate",
                 "--family", "gaussian", "--rho", "0.7",
                 "--u-grid", "3,6", "--lags", "1,2", "--n-rep", "500"])
    assert code == 0
    blob = json.loads((tmp_path / "convergence_report.json").read_text())
    assert len(blob["ks"]) == 2 and len(blob["ks"][0]) == 2


def test_chi_json(tmp_path):
    code = _run(["--out", str(tmp_path), "--seed", "7", "chi",
                 "--family", "gaussian", "--rho", "0.7", "--lags", "1",
                 "--levels", "0.9", "--n-rep", "2000"])
    assert code == 0
    blob = json.loads((tmp_path / "chi.json").read_text())
    assert 0.0 <= blob["estimates"][0]["chi"] <= 1.0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# chain settings
family = gaussian
rho = [0.7, 0.5]
u = 6.0
horizon = 6
n-rep = 10
""")
    parsed = read_config(str(cfg))
    assert parsed["rho"] == [0.7, 0.5]
    out = tmp_path / "o"
    code = _run(["--config", str(cfg), "--out", str(out), "simulate-chain",
                 "--n-rep", "5"])
    assert code == 0
    rows = (out / "chain_paths.csv").read_text().splitlines()
    assert len(rows) == 1 + 5 * 7   # flag override wins over config


def test_exit_code_2_on_bad_parameters(tmp_path):
    assert _run(["--out", str(tmp_path), "simulate-chain",
                 "--family", "nosuch"]) == 2
    assert _run(["--out", str(tmp_path), "simulate-chain",
                 "--family", "logistic", "--alpha", "1.7", "--k", "2"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("family gaussian\n")
    assert _run(["--config", str(bad), "--out", str(tmp_path),
                 "simulate-chain"]) == 2


def test_validate_csv_outputs_byte_identical(tmp_path):
    outs = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        code = _run(["--out", str(out), "--seed", "11", "simulate-tail-chain",
                     "--kind", "gaussian-ar", "--rho", "0.7,0.5",
                     "--horizon", "8", "--n-rep", "100"])
        assert code == 0
        outs.append((out / "tail_chain_paths.csv").read_bytes())
    assert outs[0] == outs[1]


def test_validate_without_tail_chain_is_a_config_error(tmp_path, capsys):
    code = _run(["--out", str(tmp_path), "validate", "--family", "asym-logistic",
                 "--u-grid", "3", "--lags", "1", "--n-rep", "10"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "asym-logistic" in err["message"]


@pytest.mark.parametrize("args, error", [
    (["--kind", "gaussian-ar"], "ConfigError"),
    (["--kind", "husler-reiss-rw"], "ConfigError"),
    (["--kind", "logistic-rw", "--k", "0"], "ParameterError"),
    (["--kind", "inverted-logistic-scale", "--k", "0"], "ParameterError"),
    (["--kind", "husler-reiss-rw", "--cov-toeplitz", "1,2"], "ParameterError"),
])
def test_tail_chain_bad_parameters_exit_2(tmp_path, capsys, args, error):
    code = _run(["--out", str(tmp_path), "simulate-tail-chain", *args,
                 "--horizon", "5", "--n-rep", "10"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == error
    assert not (tmp_path / "tail_chain_paths.csv").exists()


def test_non_finite_tail_chain_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tail_chain.LogisticProfileLaw, "quantile",
                        lambda self, p: np.full(np.shape(p), -np.inf))
    code = _run(["--out", str(tmp_path), "simulate-tail-chain", "--kind", "logistic-rw",
                 "--alpha", "0.5", "--k", "1", "--horizon", "3", "--n-rep", "10"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NumericalError"


def test_logistic_rw_near_unit_alpha_has_finite_paths(tmp_path):
    # the profile quantile's expm1 overflowed here and the run exited 3
    code = _run(["--out", str(tmp_path), "--seed", "1", "simulate-tail-chain",
                 "--kind", "logistic-rw", "--alpha", "0.99", "--k", "1",
                 "--horizon", "50", "--n-rep", "10000"])
    assert code == 0
    lines = (tmp_path / "tail_chain_paths.csv").read_text().splitlines()
    assert len(lines) == 1 + 10_000 * 51
    assert all(np.isfinite(float(line.rsplit(",", 1)[1])) for line in lines[1:])
