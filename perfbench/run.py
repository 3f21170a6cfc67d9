"""Benchmark of the tailchain package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of hr-chain, closed-form-chain, limit-cli, or `all`, which runs
each workload in its own process and prints a table.  The workload's inputs
are drawn from --seed.  The operations are repeated in whole rounds until
another round would end after --seconds (at least two rounds, three for
traced runs).  Times are CPU seconds of this process, all threads, scaled
to a reference speed by a fixed calibration loop run before and after every
op call (see run_round); each operation counts with its median over rounds.
With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 rounds alternate between untraced and
traced, and it carries the per-layer metrics instead.  See perfbench/README.md.
"""
import os

# One BLAS thread: on a few shared cores, BLAS worker threads that spin at
# barriers make timings depend on the host's scheduler, and the program calls
# run single-threaded as well.  This must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
NAMES = ("hr-chain", "closed-form-chain", "limit-cli")
UNITS = {"setup_s": "s", "round_cpu_s": "s", "draws_per_cpu_s": "1/s",
         "query_cpu_ms": "ms", "peak_rss_mb": "MB"}
MIN_ROUNDS = 2
# Calibration time, in CPU seconds, on the machine the reference figures in
# README.md come from when its cores ran at full speed; it fixes the scale of
# the reported times.
CALIBRATION_REF_S = 0.0020


def calibrate():
    """CPU seconds of a fixed loop of about 2 ms that does not touch the program.

    Its mix resembles the program's: transcendental functions over arrays,
    many numpy calls on small arrays, and interpreted Python.
    """
    import numpy as np

    x = np.linspace(-4.0, 4.0, 20_000)
    small = np.linspace(0.1, 1.0, 8)
    c0 = time.process_time()
    for _ in range(6):
        np.log1p(np.exp(-np.abs(x))).sum()
    for i in range(450):
        np.maximum(small * i, 0.5).sum()
    total = 0
    for i in range(9000):
        total += i % 7
    return time.process_time() - c0


def run_round(ops, tracer, index, log):
    """One pass over the workload's operations; returns the round's record.

    Every op call is bracketed by two calibrations.  The op's CPU time times
    CALIBRATION_REF_S over their mean is its time at the reference speed:
    the shared cores' speed drifts by up to a factor of two within minutes,
    and the calibrations next to a call see the speed it ran at.
    """
    from workloads import CheckFailed

    rec = {"traced": tracer is not None, "wall": 0.0, "ops": [], "cal": [calibrate()],
           "attempted": 0, "failed": 0, "unexpected": 0}
    if tracer:
        tracer.install()
    try:
        for op in ops:
            if tracer:
                tracer.op = f"{index}:{op.name}"
                tracer.active = True
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result, error = op.call(), None
            except Exception as exc:  # an operation that raises is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            cpu = time.process_time() - c0
            rec["wall"] += time.perf_counter() - t0
            if tracer:
                tracer.active = False
            rec["cal"].append(calibrate())
            ref_cpu = cpu * 2.0 * CALIBRATION_REF_S / (rec["cal"][-2] + rec["cal"][-1])
            draws = 0
            if error is None:
                try:
                    draws = op.check(result)
                except CheckFailed as exc:
                    error = str(exc)
            rec["attempted"] += 1
            rec["ops"].append((op.name, op.kind, ref_cpu, draws))
            if error is not None:
                rec["failed"] += 1
                rec["unexpected"] += not op.may_fail
                log.setdefault(op.name, ("kept-failing" if op.may_fail else "WRONG", error))
    finally:
        if tracer:
            tracer.uninstall()
    return rec


def end_to_end(plain, setup_s):
    """The end-to-end metrics from the untraced rounds.

    Every round runs the same operations on the same inputs; each operation
    counts with the median over rounds of its reference-speed CPU time.
    """
    times, draws = defaultdict(list), {}
    for r in plain:
        for name, kind, ref_cpu, n in r["ops"]:
            times[name].append(ref_cpu)
            draws[name] = (kind, n)
    typical = {name: statistics.median(v) for name, v in times.items()}
    sample = [name for name, (kind, _) in draws.items() if kind == "sample"]
    query = [name for name, (kind, _) in draws.items() if kind == "query"]
    return {
        # the calibrations of the first round are the ones closest to set-up
        "setup_s": setup_s * CALIBRATION_REF_S / statistics.median(plain[0]["cal"]),
        "round_cpu_s": sum(typical.values()),
        "draws_per_cpu_s": (sum(draws[name][1] for name in sample)
                            / sum(typical[name] for name in sample)),
        "query_cpu_ms": 1e3 * statistics.fmean(typical[name] for name in query),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name, seed, seconds, trace):
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[name](seed, out_dir)
        # CPU seconds of every thread since the process started: interpreter,
        # imports, model construction and the warm-up calls
        setup_s = time.process_time()
        tracer = spans.Tracer() if trace else None
        need = MIN_ROUNDS + 1 if trace else MIN_ROUNDS
        rounds, log = [], {}
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            traced = tracer if trace and len(rounds) % 2 == 1 else None
            rounds.append(run_round(wl.ops, traced, len(rounds), log))
            now = time.perf_counter()
            if len(rounds) >= need and now - start + (now - t0) > seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for op_name, (what, error) in log.items():
        print(f"{name}: {what} {op_name}: {error}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    print(f"{name}: median calibration {statistics.median(c for r in plain for c in r['cal']):.6f}"
          " s", file=sys.stderr)
    if trace:
        hot = [r for r in rounds if r["traced"]]
        overhead = (statistics.median(r["wall"] for r in hot)
                    - statistics.median(r["wall"] for r in plain))
        tracer.write(OUT / f"trace-{name}.jsonl")
        metrics = spans.layer_metrics(tracer.spans, len(hot), overhead)
    else:
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(plain, setup_s).items()}
    return {
        "correct": not any(r["unexpected"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, len(rounds)


def run_all(args):
    """Each workload in its own process; a table, then the combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {res['attempted']} operations attempted, {res['failed']} failed, "
              f"correct {res['correct']}")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    width = max(len(k) for k in combined["metrics"])
    for k, v in combined["metrics"].items():
        print(f"{k:<{width}}  {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tailchain" / "__init__.py").is_file():
        print(f"perfbench: no tailchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, n_rounds = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(f"{args.workload} seed {args.seed}: {n_rounds} rounds, {result['attempted']} "
          f"operations attempted, {result['failed']} failed, correct {result['correct']}")
    for k, v in result["metrics"].items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
