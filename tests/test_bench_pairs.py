import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, key, failed=(0, 0)):
    """Pairs of one metric; each run attempted 100 operations, `failed` of them failed."""
    return [{"parent": {key: p}, "change": {key: c},
             "operations": {"parent": [100, failed[0], True], "change": [100, failed[1], True]}}
            for p, c in zip(parent, change)]


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
