"""Run a fixed list of tailchain CLI commands and print one sha256 per output.

Usage:
    PYTHONPATH=src python tools/output_digest.py [OUT_DIR] > digests.txt

Run it on two trees, each with PYTHONPATH at that tree's `src`, and diff the
two listings to see which output files a change alters.  Each command writes
into its own subdirectory of OUT_DIR (a temporary directory, removed
afterwards, when OUT_DIR is omitted).  JSON files are hashed without their
`runtime_s` field, the one value that differs between repeated runs.  BLAS
is pinned to one thread before numpy is imported.  Standard library plus
`tailchain.cli` only.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HR_TOEPLITZ = "1,0.9,0.7,0.5,0.3,0.1"
GAUSS_RHO = "0.7,0.57,0.47,0.39,0.33"
RECURRENCE = ["solve-recurrence", "--c", "0.9", "--gamma", "0.2,0.3,0.5",
              "--alpha-init", "1,0.6,0.4", "--horizon", "40"]
TAIL = ["simulate-tail-chain", "--horizon", "30", "--n-rep", "3000"]
# order-1 tail chains, which have no initial law
TAIL_K1 = [("gaussian-ar", ["--rho", "0.7"]),
           ("logistic-rw", ["--alpha", "0.32", "--k", "1"]),
           ("husler-reiss-rw", ["--cov-toeplitz", "1,0.9"]),
           ("inverted-logistic-scale", ["--alpha", "0.27", "--k", "1"])]
CHAIN = ["simulate-chain", "--u", "9", "--horizon", "10", "--n-rep", "2500"]

# (name, seed, subcommand and flags)
COMMANDS = [
    ("chain-gaussian", 20, CHAIN + ["--family", "gaussian", "--rho", GAUSS_RHO]),
    ("chain-logistic", 21, CHAIN + ["--family", "logistic", "--alpha", "0.32", "--k", "5"]),
    # the order cap, kernels.MAX_ORDER: 203 partitions of the conditioning states
    ("chain-logistic-k6", 26, CHAIN + ["--family", "logistic", "--alpha", "0.32", "--k", "6"]),
    ("chain-inverted-logistic", 22,
     CHAIN + ["--family", "inverted-logistic", "--alpha", "0.27", "--k", "5"]),
    ("chain-asym-logistic", 23, CHAIN + ["--family", "asym-logistic"]),
    ("chain-husler-reiss", 24, ["simulate-chain", "--u", "9", "--family", "husler-reiss",
                                "--cov-toeplitz", HR_TOEPLITZ, "--n-rep", "400",
                                "--horizon", "7"]),
    # a lower threshold: a rounding change in the lattice sums can leave the
    # u = 9 chain byte-identical and move this one
    ("chain-husler-reiss-u3", 24, ["simulate-chain", "--u", "3", "--family", "husler-reiss",
                                   "--cov-toeplitz", HR_TOEPLITZ, "--n-rep", "400",
                                   "--horizon", "7"]),
    ("tail-gaussian-ar", 31, TAIL + ["--kind", "gaussian-ar", "--rho", GAUSS_RHO]),
    ("tail-logistic-rw", 32, TAIL + ["--kind", "logistic-rw", "--alpha", "0.32", "--k", "5"]),
    ("tail-husler-reiss-rw", 33,
     TAIL + ["--kind", "husler-reiss-rw", "--cov-toeplitz", HR_TOEPLITZ]),
    ("tail-inverted-logistic-scale", 34,
     TAIL + ["--kind", "inverted-logistic-scale", "--alpha", "0.27", "--k", "5"]),
    ("tail-regime-switching", 35, ["simulate-tail-chain", "--kind", "regime-switching",
                                   "--horizon", "40", "--n-rep", "2000"]),
] + [(f"tail-{kind}-k1", 36, TAIL + ["--kind", kind, *flags])
      for kind, flags in TAIL_K1] + [
    (f"fig1{panel}", 41, ["fig1", "--panel", panel, "--horizon", "30", "--n-rep", "3000"])
    for panel in "abcd"] + [
    ("fig2", 42, ["fig2", "--horizon", "60", "--n-rep", "2000"]),
    ("recurrence-delta-0.5", 0, RECURRENCE + ["--delta", "0.5"]),
    ("recurrence-delta-0", 0, RECURRENCE + ["--delta", "0"]),
    ("recurrence-delta-inf", 0, RECURRENCE + ["--delta", "inf"]),
    ("recurrence-delta--inf", 0, RECURRENCE + ["--delta=-inf"]),
    ("beta-seq", 0, ["beta-seq", "--beta", "0.5", "--k", "3", "--horizon", "40"]),
    ("validate-logistic", 25, ["validate", "--family", "logistic", "--alpha", "0.32",
                               "--k", "5", "--u-grid", "3,6,9", "--n-rep", "2000"]),
]


def _drop_runtime(value):
    if isinstance(value, dict):
        return {k: _drop_runtime(v) for k, v in value.items() if k != "runtime_s"}
    if isinstance(value, list):
        return [_drop_runtime(v) for v in value]
    return value


def digest(path):
    """sha256 of a file's bytes; of its canonical JSON without `runtime_s`
    for a .json file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        data = json.dumps(_drop_runtime(json.loads(data)), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run(out_root):
    from tailchain import cli
    for name, seed, args in COMMANDS:
        out = os.path.join(out_root, name)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--out", out, "--seed", str(seed), *args])
        if code != 0:
            raise SystemExit(f"{name}: tailchain exited with code {code}")
        for fname in sorted(os.listdir(out)):
            print(f"{digest(os.path.join(out, fname))}  {name}/{fname}", flush=True)


def main(argv):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if len(argv) > 1:
        run(argv[1])
        return
    with tempfile.TemporaryDirectory(prefix="tailchain-digest-") as out_root:
        run(out_root)


if __name__ == "__main__":
    main(sys.argv)
