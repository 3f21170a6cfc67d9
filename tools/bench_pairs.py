"""Run the benchmark on a parent and a change checkout in alternating pairs.

Usage:
    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --change "what changed" \
        [--out BENCH_N.json]

Pair i of ten (seed i, from 1 upward) runs `python3 perfbench/run.py
--workload W --seed i --seconds S --trace 0` for each workload W of the
change's BENCHMARK.json in both checkouts, with S its `run_seconds`, the
parent first in odd pairs and the change first in even ones.  Then each
side makes one traced run per workload (`--trace 1 --seconds 20 --seed 4`).
It names every pair and workload in which either side reports
`correct: false`.  For every end-to-end metric of every workload it prints
the median and quartiles of each side, the ratio of the medians and the
pairs in which the change read better (ties count for neither), with "gain"
marking a metric on which the change won at least nine tenths of the pairs,
the medians differ by more than the parent's interquartile range, the
change failed no more of that workload's operations than the parent, and
both sides ran it correctly in every pair.  The metric directions come from
the change's BENCHMARK.json.  With --out it writes the pairs, the summary and
the traced metrics as JSON.  Each checkout runs its own perfbench and
src; PYTHONPATH is dropped from the environment.  Standard library only.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
TRACE_SEED = 4
TRACE_SECONDS = 20
OPERATIONS_FIELDS = ["attempted", "failed", "correct"]


def run_bench(checkout, workload, seed, seconds, trace):
    """The JSON line of one `perfbench/run.py --workload WORKLOAD` run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workloads(checkout, workloads, seed, seconds, trace):
    """(metrics as {"workload.metric": value}, {workload: operations}) of one
    run of each workload."""
    values, operations = {}, {}
    for w in workloads:
        result = run_bench(checkout, w, seed, seconds, trace)
        values.update((f"{w}.{k}", v["value"]) for k, v in result["metrics"].items())
        operations[w] = [result[f] for f in OPERATIONS_FIELDS]
    return values, operations


def failed(pairs, side, workload):
    """The operations of `workload` that failed on one side, over all pairs."""
    return sum(p["operations"][side][workload][1] for p in pairs)


def incorrect(pairs):
    """(seed, workload, side) of every run that reports `correct: false`."""
    return [(p["seed"], w, side) for p in pairs for side in ("parent", "change")
            for w, ops in p["operations"][side].items() if not ops[2]]


def summarize(pairs, better):
    """Per metric: each side's median and quartiles, their ratio and the wins."""
    wrong = {w for _, w, _ in incorrect(pairs)}
    out = {}
    for key in pairs[0]["parent"]:
        workload, metric = key.split(".", 1)
        lower = better[metric] == "lower"
        fails_more = failed(pairs, "change", workload) > failed(pairs, "parent", workload)
        par = [p["parent"][key] for p in pairs]
        chg = [p["change"][key] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        q_par = statistics.quantiles(par, n=4, method="inclusive")
        q_chg = statistics.quantiles(chg, n=4, method="inclusive")
        gap = statistics.median(par) - statistics.median(chg)
        out[key] = {
            "parent_median": statistics.median(par),
            "parent_quartiles": [q_par[0], q_par[2]],
            "change_median": statistics.median(chg),
            "change_quartiles": [q_chg[0], q_chg[2]],
            "change_over_parent": statistics.median(chg) / statistics.median(par),
            "change_wins": f"{wins}/{len(pairs)}",
            "gain": 10 * wins >= 9 * len(pairs) and not fails_more
            and workload not in wrong and (gap if lower else -gap) > q_par[2] - q_par[0],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--change", required=True, help="one line naming the change")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.change_dir / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change_dir}

    pairs = []
    for seed in range(1, PAIRS + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        results = {side: run_workloads(sides[side], workloads, seed, seconds, 0)
                   for side in order}
        pairs.append({"seed": seed, "first": order[0],
                      "parent": results["parent"][0], "change": results["change"][0],
                      "operations": {s: results[s][1] for s in ("parent", "change")}})
        print(f"pair {seed}/{PAIRS} done ({order[0]} first)", file=sys.stderr)
    summary = summarize(pairs, better)
    trace = {"command": f"python3 perfbench/run.py --workload W --seconds {TRACE_SECONDS} "
                        f"--seed {TRACE_SEED} --trace 1"}
    for side in ("parent", "change"):
        values, operations = run_workloads(sides[side], workloads, TRACE_SEED,
                                           TRACE_SECONDS, 1)
        trace[side] = dict(values, operations=operations)

    width = max(len(k) for k in summary)
    print(f"{'metric':<{width}}  {'parent median [q1, q3]':>34}  "
          f"{'change median [q1, q3]':>34}  ratio  wins")
    for key, s in summary.items():
        unit = units[key.split(".", 1)[1]]
        cells = [f"{s[f'{side}_median']:.4g} [{s[f'{side}_quartiles'][0]:.4g}, "
                 f"{s[f'{side}_quartiles'][1]:.4g}] {unit}" for side in ("parent", "change")]
        print(f"{key:<{width}}  {cells[0]:>34}  {cells[1]:>34}  {s['change_over_parent']:.3f}  "
              f"{s['change_wins']}{'  gain' if s['gain'] else ''}")
    for w in workloads:
        print(f"{w} failed operations: parent {failed(pairs, 'parent', w)}, "
              f"change {failed(pairs, 'change', w)}")
    for seed, w, side in incorrect(pairs):
        print(f"pair {seed}: {w} reports correct false on the {side} side; "
              f"no {w} metric counts as a gain")

    if args.out:
        record = {
            "change": args.change,
            "harness": f"python3 perfbench/run.py --workload W --seconds {seconds} "
                       f"--seed N",
            "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                       f"python {platform.python_version()}, one BLAS thread",
            "pairs": pairs,
            "end_to_end": {k: dict(unit=units[k.split(".", 1)[1]], **v)
                           for k, v in summary.items()},
            "trace": trace,
            "operations_fields": OPERATIONS_FIELDS,
            "note": "end_to_end: per metric, the medians and quartiles over the pairs, the "
                    "ratio of the medians, the pairs in which the change read better and "
                    "whether that is a gain (at least nine tenths of the pairs, a median "
                    "gap wider than the parent's interquartile range, no more failed "
                    "operations of the workload than the parent and no run of it that "
                    "reports correct false); operations are per workload; pairs with "
                    "odd seeds ran the parent first",
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
