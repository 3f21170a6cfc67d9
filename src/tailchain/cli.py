"""Command-line surface: configuration, orchestration, bit-stable output.

Every run is fully determined by (config, seed): CSV outputs are
byte-identical across repeated runs.  Every CSV has one byte format: `%.17g`
floats, decimal ints, CRLF line ends and no quoting (no field holds a comma,
quote or line break).  One registry, `_FAMILIES`, maps each chain family to its
parameter parser, chain builder, tail-chain kind and tail builder; every
subcommand that builds a model (`simulate-chain`, `simulate-tail-chain`,
`validate`, `chi`, `fig1`) looks it up there.  Exit codes: 0 success, 2
configuration or parameter problems, 3 numerical failures (with a
diagnostic JSON on stderr).
"""
import argparse
import json
import os
import sys

import numpy as np
from scipy.linalg import toeplitz

from .kernels import (asym_logistic_model, gaussian_model, husler_reiss_model,
                      inverted_logistic_model, logistic_model,
                      simulate_conditioned_chain)
from .measures import AsymLogisticParams
from .mc_lab import chi_estimate, convergence_diagnostic, quantile_bands
from .recurrence import (HomogeneousFamily, beta_sequence, iterate_alpha,
                         solve_closed_form, solve_delta_inf, solve_delta_zero)
from .tail_chain import (GaussianARTailChain, HuslerReissLocationTailChain,
                         InvertedLogisticScaleTailChain, LogisticLocationTailChain,
                         simulate_hidden_tail_chain, simulate_regime_tail_chain)
from .utils import BracketError, DomainError, NumericalError, ParameterError

FIG1_GAUSS_RHO = (0.70, 0.57, 0.47, 0.39, 0.33)
FIG1_HR_TOEPLITZ = (1.0, 0.9, 0.7, 0.5, 0.3, 0.1)
FIG1_INVERTED_ALPHA = 0.27
FIG1_LOGISTIC_ALPHA = 0.32
FIG2_THETA = (0.3, 0.3, 0.3, 0.3, 0.3, 0.1)
FIG2_NU = (0.5, 0.5, 0.5)
# replicates per write of a path CSV; the writer holds one block's text, not the file's
_BLOCK_ROWS = 128
# fig1 panel -> registry family and its reference parameters
_FIG1_PANELS = {"a": ("gaussian", {"rho": FIG1_GAUSS_RHO}),
                "b": ("inverted-logistic", {"alpha": FIG1_INVERTED_ALPHA, "k": 5}),
                "c": ("logistic", {"alpha": FIG1_LOGISTIC_ALPHA, "k": 5}),
                "d": ("husler-reiss", {"cov_toeplitz": FIG1_HR_TOEPLITZ})}


class ConfigError(ValueError):
    pass


def _parse_value(text):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text


def read_config(path):
    """Flat `key = value` file; values parse as JSON scalars/lists, else text."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = _parse_value(val.strip())
    return out


def _floats(value, name):
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"{name}: cannot parse {value!r} as numbers")
    return [float(v) for v in value]


def _write_csv(path, header, lines):
    """The header, then `lines` (formatted rows or blocks of rows) as they are."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def _write_paths_csv(path, ensemble):
    """One row per path value in replicate-major order, formatted and written
    `_BLOCK_ROWS` replicates at a time; with mode columns (the regime chain)
    only the finite values, i.e. until termination."""
    data, extras = ensemble.data, ensemble.extras
    # one row template per ensemble width; the replicate is filled in per row
    template = "".join(f"{{r}},{t},%.17g\r\n" for t in range(data.shape[1]))

    def block(s):
        rows = slice(s, s + _BLOCK_ROWS)
        if "modes" not in extras:
            return "".join([template.replace("{r}", str(r)) % tuple(row)
                            for r, row in enumerate(data[rows].tolist(), s)])
        keep = np.isfinite(data[rows])
        r, t = np.nonzero(keep)
        return "".join(["%d,%d,%.17g,%d,%d\r\n" % row for row in zip(
            (r + s).tolist(), t.tolist(), data[rows][keep].tolist(),
            extras["atom_flag"][rows][keep].tolist(), extras["modes"][rows][keep].tolist())])
    header = ["replicate", "t", "value"] + (["atom_flag", "regime"] if "modes" in extras else [])
    _write_csv(path, header, map(block, range(0, data.shape[0], _BLOCK_ROWS)))


def _write_bands_csv(path, bands):
    keys = [k for k in bands if k != "t"]
    template = "%d" + ",%.17g" * len(keys) + "\r\n"
    _write_csv(path, ["t"] + keys,
               [template % row for row in zip(bands["t"], *(bands[k] for k in keys))])


def _n_rep(cfg, default):
    n = int(cfg.get("n_rep", default))
    if n < 1:
        raise ConfigError(f"n_rep must be a positive integer, got {n}")
    return n


# one parser per model parameter; each returns the builder's arguments

def _rho_args(cfg):
    rho = _floats(cfg.get("rho"), "rho")
    if not rho:
        raise ConfigError("rho = rho_1..rho_k is required")
    return (np.asarray(rho),)


def _alpha_k_args(cfg):
    return float(cfg.get("alpha", 0.5)), int(cfg.get("k", 1))


def _cov_toeplitz_args(cfg):
    vec = _floats(cfg.get("cov_toeplitz"), "cov_toeplitz")
    if not vec:
        raise ConfigError("cov_toeplitz = first row of the Toeplitz covariance is required")
    return (toeplitz(np.asarray(vec)),)


def _alog_args(cfg):
    theta = _floats(cfg.get("theta", list(FIG2_THETA)), "theta")
    nu = _floats(cfg.get("nu", list(FIG2_NU)), "nu")
    if len(theta) != 6 or len(nu) != 3:
        raise ConfigError("asym-logistic needs theta (6 values) and nu (3 values)")
    return (AsymLogisticParams(*theta, *nu),)


# family -> (parameter parser, chain builder, tail-chain kind, tail builder).
# The asymmetric logistic's limit is the regime-switching chain, which has
# its own simulator instead of a tail-chain model.
_FAMILIES = {
    "gaussian": (_rho_args, gaussian_model, "gaussian-ar", GaussianARTailChain),
    "logistic": (_alpha_k_args, logistic_model, "logistic-rw", LogisticLocationTailChain),
    "inverted-logistic": (_alpha_k_args, inverted_logistic_model,
                          "inverted-logistic-scale", InvertedLogisticScaleTailChain),
    "husler-reiss": (_cov_toeplitz_args, husler_reiss_model, "husler-reiss-rw",
                     HuslerReissLocationTailChain),
    "asym-logistic": (_alog_args, asym_logistic_model, "regime-switching", None),
}
_KIND_FAMILY = {entry[2]: family for family, entry in _FAMILIES.items()}


def _family(cfg, key="family"):
    """Registry family named by cfg[key]: a chain family or a tail-chain kind."""
    names = {f: f for f in _FAMILIES} if key == "family" else _KIND_FAMILY
    name = str(cfg.get(key) or "").replace("_", "-")
    if name not in names:
        raise ConfigError(f"unknown {key} {name!r}; one of {', '.join(names)}")
    return names[name]


def _chain(cfg):
    parse, build, _, _ = _FAMILIES[_family(cfg)]
    return build(*parse(cfg))


# ---------------------------------------------------------------------------
# subcommand runners

def _run_solve_recurrence(cfg, out, seed):
    gamma = _floats(cfg.get("gamma"), "gamma")
    if not gamma:
        raise ConfigError("gamma is required")
    c = float(cfg.get("c", 1.0))
    delta_raw = cfg.get("delta", 1.0)
    if isinstance(delta_raw, str) and delta_raw.strip().lstrip("+-") == "inf":
        delta = -np.inf if delta_raw.strip().startswith("-") else np.inf
    else:
        delta = float(delta_raw)
    T = int(cfg.get("horizon", 50))
    alpha_init = _floats(cfg.get("alpha_init"), "alpha_init")
    if alpha_init is None:
        alpha_init = [1.0] + [0.5] * (len(gamma) - 1)
    fam = HomogeneousFamily(c, tuple(gamma), delta)
    info = {"c": c, "gamma": gamma, "delta": delta, "alpha_init": alpha_init}
    if np.isinf(delta):
        seq = solve_delta_inf(fam, alpha_init, T)
        info["regime"] = "delta_inf"
    else:
        sol = solve_delta_zero(fam, alpha_init) if delta == 0.0 \
            else solve_closed_form(fam, alpha_init)
        seq = sol.evaluate(np.arange(T + 1))
        info.update({
            "regime": sol.regime,
            "roots": [[r.real, r.imag] for r in sol.roots],
            "multiplicities": sol.multiplicities.tolist(),
            "constants": [[c0.real, c0.imag] for c0 in sol.constants],
            "drift": sol.drift,
            "condition": sol.condition,
            "messages": sol.messages,
        })
        check = iterate_alpha(fam, alpha_init, min(T, 50))
        info["max_abs_diff_vs_iteration"] = float(
            np.max(np.abs(seq[:len(check)] - check)))
    _write_csv(os.path.join(out, "recurrence.csv"), ["t", "alpha"],
               ["%d,%.17g\r\n" % row for row in enumerate(seq)])
    with open(os.path.join(out, "recurrence.json"), "w") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
    return {"rows": int(T + 1)}


def _run_beta_seq(cfg, out, seed):
    beta = float(cfg.get("beta", 0.5))
    k = int(cfg.get("k", 1))
    T = int(cfg.get("horizon", 50))
    seq = beta_sequence(beta, k, T)
    _write_csv(os.path.join(out, "beta_seq.csv"), ["t", "beta_t"],
               ["%d,%.17g\r\n" % row for row in enumerate(seq)])
    return {"rows": int(T + 1)}


def _run_simulate_chain(cfg, out, seed):
    model = _chain(cfg)
    u = float(cfg.get("u", 9.0))
    T = int(cfg.get("horizon", max(2 * model.k, 10)))
    n = _n_rep(cfg, 100)
    ens = simulate_conditioned_chain(model, u, T, n, seed)
    _write_paths_csv(os.path.join(out, "chain_paths.csv"), ens)
    return {"model": model.descriptor(), "u": u, "n_rep": n, "horizon": T}


def _run_simulate_tail_chain(cfg, out, seed):
    parse, _, _, tail = _FAMILIES[_family(cfg, "kind")]
    T = int(cfg.get("horizon", 50))
    n = _n_rep(cfg, 10_000)
    if tail is None:
        ens = simulate_regime_tail_chain(*parse(cfg), T, n, seed)
    else:
        ens = simulate_hidden_tail_chain(tail(*parse(cfg)), T, n, seed)
    _write_paths_csv(os.path.join(out, "tail_chain_paths.csv"), ens)
    probs = _floats(cfg.get("probs", [0.025, 0.5, 0.975]), "probs")
    _write_bands_csv(os.path.join(out, "tail_chain_bands.csv"),
                     quantile_bands(ens, probs))
    return {"model": ens.model, "n_rep": n, "horizon": T}


def _run_validate(cfg, out, seed):
    family = _family(cfg)
    parse, build, _, tail = _FAMILIES[family]
    if tail is None:
        raise ConfigError(f"validate has no tail chain for family {family!r}; supported: "
                          f"{', '.join(f for f, e in _FAMILIES.items() if e[3])}")
    model = build(*parse(cfg))
    tail = tail(*parse(cfg))
    u_grid = _floats(cfg.get("u_grid", [3.0, 6.0, 9.0]), "u_grid")
    lags = cfg.get("lags")
    lags = tuple(int(v) for v in _floats(lags, "lags")) if lags is not None else None
    n = _n_rep(cfg, 10_000)
    tol = float(cfg.get("tolerance", 0.05))
    rep = convergence_diagnostic(model, tail, u_grid=tuple(u_grid), lags=lags,
                                 n=n, seed=seed, tolerance=tol)
    with open(os.path.join(out, "convergence_report.json"), "w") as fh:
        json.dump(rep.to_dict(), fh, indent=2, sort_keys=True)
    return {"final_pass": rep.final_pass.astype(bool).tolist(),
            "runtime_s": rep.runtime_s}


def _run_chi(cfg, out, seed):
    model = _chain(cfg)
    lags = tuple(int(v) for v in _floats(cfg.get("lags", [1]), "lags"))
    levels = _floats(cfg.get("levels", [0.95]), "levels")
    n = _n_rep(cfg, 100_000)
    results = [chi_estimate(model, lags, lv, n, seed).to_dict()
               for lv in levels]
    with open(os.path.join(out, "chi.json"), "w") as fh:
        json.dump({"model": model.descriptor(), "estimates": results},
                  fh, indent=2, sort_keys=True)
    return {"estimates": results}


def _run_fig1(cfg, out, seed):
    panel = str(cfg.get("panel", "a")).lower()
    T = int(cfg.get("horizon", 50))
    n = _n_rep(cfg, 10_000)
    if panel not in _FIG1_PANELS:
        raise ConfigError("panel must be one of a, b, c, d")
    family, params = _FIG1_PANELS[panel]
    parse, _, _, tail = _FAMILIES[family]
    ens = simulate_hidden_tail_chain(tail(*parse(params)), T, n, seed)
    bands = quantile_bands(ens, _floats(cfg.get("probs", [0.025, 0.5, 0.975]), "probs"))
    _write_bands_csv(os.path.join(out, f"fig1{panel}_bands.csv"), bands)
    one = ens.with_data(ens.data[:1])
    _write_paths_csv(os.path.join(out, f"fig1{panel}_path.csv"), one)
    return {"panel": panel, "model": ens.model, "n_rep": n}


def _run_fig2(cfg, out, seed):
    T = int(cfg.get("horizon", 200))
    n = _n_rep(cfg, 10_000)
    cond = int(cfg.get("condition_tb", 8))
    ens = simulate_regime_tail_chain(*_alog_args(cfg), T, n, seed)
    tb = ens.extras["termination"]
    done = tb[tb > 0]
    values, counts = np.unique(done, return_counts=True)
    _write_csv(os.path.join(out, "fig2_tb_hist.csv"), ["tb", "count"],
               ["%d,%d\r\n" % row for row in zip(values, counts)])
    sel = tb == cond
    sub = ens.with_data(ens.data[sel][:, :cond + 1])
    sub.extras["modes"] = ens.extras["modes"][sel][:, :cond + 1]
    sub.extras["atom_flag"] = ens.extras["atom_flag"][sel][:, :cond + 1]
    bands = quantile_bands(sub, _floats(cfg.get("probs", [0.025, 0.5, 0.975]), "probs"))
    _write_bands_csv(os.path.join(out, f"fig2_bands_tb{cond}.csv"), bands)
    summary = {"mean_tb": float(done.mean()), "n_terminated": int(done.size),
               "n_rep": n, "conditioned_on": cond, "n_conditioned": int(sel.sum())}
    with open(os.path.join(out, "fig2_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


_RUNNERS = {
    "solve-recurrence": _run_solve_recurrence,
    "beta-seq": _run_beta_seq,
    "simulate-chain": _run_simulate_chain,
    "simulate-tail-chain": _run_simulate_tail_chain,
    "validate": _run_validate,
    "chi": _run_chi,
    "fig1": _run_fig1,
    "fig2": _run_fig2,
}

_FLAGS = [
    ("family", str), ("kind", str), ("rho", str), ("alpha", float), ("k", int),
    ("cov-toeplitz", str), ("theta", str), ("nu", str), ("u", float),
    ("u-grid", str), ("lags", str), ("levels", str), ("horizon", int),
    ("n-rep", int), ("probs", str), ("tolerance", float), ("panel", str),
    ("condition-tb", int), ("c", float), ("gamma", str), ("delta", str),
    ("alpha-init", str), ("beta", float),
]


def build_parser():
    p = argparse.ArgumentParser(
        prog="tailchain",
        description="Simulators and diagnostics for extremes of higher-order "
                    "Markov chains")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    p.add_argument("--out", default=".", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        sp = sub.add_parser(name)
        for flag, typ in _FLAGS:
            sp.add_argument(f"--{flag}", type=typ, default=None)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = read_config(args.config) if args.config else {}
        for flag, _ in _FLAGS:
            key = flag.replace("-", "_")
            val = getattr(args, key, None)
            if val is not None:
                cfg[key] = val
        os.makedirs(args.out, exist_ok=True)
        summary = _RUNNERS[args.command](cfg, args.out, args.seed)
    except (ConfigError, ParameterError, DomainError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (BracketError, NumericalError, FloatingPointError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "command": args.command}), file=sys.stderr)
        return 3
    print(json.dumps({"command": args.command, "seed": args.seed,
                      "out": args.out, **summary}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
