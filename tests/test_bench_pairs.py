import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, key, failed=(0, 0), correct=(True, True)):
    """Pairs of one metric "workload.metric"; each run of the workload attempted
    100 operations, `failed` of them failed, and reports `correct`."""
    w = key.split(".", 1)[0]
    return [{"seed": i + 1, "parent": {key: p}, "change": {key: c},
             "operations": {"parent": {w: [100, failed[0], correct[0]]},
                            "change": {w: [100, failed[1], correct[1]]}}}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    parent = [3.0, 3.1, 3.2, 3.3, 3.0, 3.1, 3.2, 3.3, 3.0, 3.1]
    change = [1.5] * 8 + [3.0, 3.5]          # one tie, one loss
    s = bench_pairs.summarize(_pairs(parent, change, "w.round_cpu_s"),
                              {"round_cpu_s": "lower"})["w.round_cpu_s"]
    assert s["change_wins"] == "8/10" and not s["gain"]
    assert s["parent_quartiles"] == [3.025, 3.2]        # inclusive quartiles
    s = bench_pairs.summarize(_pairs(parent, change, "w.draws"),
                              {"draws": "higher"})["w.draws"]
    assert s["change_wins"] == "1/10"


def test_gain_needs_nine_tenths_and_a_gap_wider_than_the_parent_spread():
    parent = [3.0, 3.1, 3.2, 3.3, 3.0, 3.1, 3.2, 3.3, 3.0, 3.1]
    better = {"round_cpu_s": "lower"}
    clear = bench_pairs.summarize(_pairs(parent, [1.5] * 9 + [3.4], "w.round_cpu_s"), better)
    assert clear["w.round_cpu_s"]["gain"]
    # wins every pair, but by less than the parent's interquartile range
    narrow = bench_pairs.summarize(_pairs(parent, [p - 0.01 for p in parent], "w.round_cpu_s"),
                                   better)
    assert narrow["w.round_cpu_s"]["change_wins"] == "10/10"
    assert not narrow["w.round_cpu_s"]["gain"]


def test_no_gain_when_the_change_fails_more_operations():
    parent = [3.0, 3.1, 3.2, 3.3, 3.0, 3.1, 3.2, 3.3, 3.0, 3.1]
    change = [1.5] * 10
    better = {"round_cpu_s": "lower"}
    worse = bench_pairs.summarize(_pairs(parent, change, "w.round_cpu_s", failed=(1, 2)), better)
    assert worse["w.round_cpu_s"]["change_wins"] == "10/10"
    assert not worse["w.round_cpu_s"]["gain"]
    same = bench_pairs.summarize(_pairs(parent, change, "w.round_cpu_s", failed=(2, 2)), better)
    assert same["w.round_cpu_s"]["gain"]


def test_no_gain_and_a_named_workload_when_a_run_is_incorrect():
    parent = [3.0, 3.1, 3.2, 3.3, 3.0, 3.1, 3.2, 3.3, 3.0, 3.1]
    better = {"round_cpu_s": "lower"}
    for correct in ((False, True), (True, False)):
        pairs = _pairs(parent, [1.5] * 10, "w.round_cpu_s", correct=correct)
        pairs[3]["operations"]["parent"]["w"][2] = True
        pairs[3]["operations"]["change"]["w"][2] = True
        s = bench_pairs.summarize(pairs, better)["w.round_cpu_s"]
        assert s["change_wins"] == "10/10" and not s["gain"]
        side = "parent" if not correct[0] else "change"
        assert bench_pairs.incorrect(pairs) == [(p["seed"], "w", side) for p in pairs
                                                if p["seed"] != 4]
    # an incorrect run of another workload leaves this one's gain standing
    pairs = _pairs(parent, [1.5] * 10, "w.round_cpu_s")
    pairs[0]["operations"]["change"]["v"] = [100, 5, False]
    pairs[0]["operations"]["parent"]["v"] = [100, 0, True]
    assert bench_pairs.summarize(pairs, better)["w.round_cpu_s"]["gain"]
    assert bench_pairs.incorrect(pairs) == [(1, "v", "change")]
