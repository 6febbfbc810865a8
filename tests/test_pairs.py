"""The statistics and pairing order of ``tools/pairs.py`` on fixed inputs.

The tool's subprocess path (one ``perfbench/run.py`` per side) is not run
here: each run takes at least the benchmark's golden call and eleven timed
calls at full size, several seconds.  The committed ``BENCH_*.json`` files
come from that path.
"""

import statistics

import pytest

from tools import pairs


def test_quartiles_inclusive_and_of_one_value():
    assert pairs.quartiles([9, 1, 8, 2, 7, 3, 6, 4, 5]) == (3.0, 5.0, 7.0)
    assert pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_wins_count_ties_for_neither_side():
    assert pairs.wins([1, 2, 3, 4], [0.5, 2, 4, 3.5]) == {"head": 2, "base": 1, "ties": 1}


def test_bootstrap_interval_is_seeded_and_brackets_the_median():
    changes = [-0.2, -0.15, -0.1, -0.18, -0.12, 0.02, -0.16, -0.14, -0.11, -0.13]
    low, high = pairs.bootstrap_interval(changes)
    assert (low, high) == pairs.bootstrap_interval(changes)
    assert min(changes) <= low <= statistics.median(changes) <= high <= max(changes)
    assert high < 0.0
    assert pairs.bootstrap_interval([0.1] * 5) == (0.1, 0.1)


BASE = [30.0, 32.0, 31.0, 33.0, 29.0, 34.0, 30.5, 31.5, 32.5, 33.5]


def test_a_consistent_gain_is_a_gain():
    head = [0.85 * b for b in BASE]
    summary = pairs.metric_summary(BASE, head)
    assert summary["wins"] == {"head": 10, "base": 0, "ties": 0}
    assert summary["median_change"] == pytest.approx(-0.15)
    assert summary["change_ci95"] == pytest.approx([-0.15, -0.15])
    assert summary["ci_excludes_0"] and summary["gain"]
    assert summary["base"] == {"q1": 30.625, "median": 31.75, "q3": 32.875}


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_base_spread():
    eight = [0.8 * b for b in BASE[:8]] + [1.1 * b for b in BASE[8:]]
    assert not pairs.metric_summary(BASE, eight)["gain"]
    small = [b - 0.5 for b in BASE]  # wins every pair, gap 0.5 < IQR 2.25
    summary = pairs.metric_summary(BASE, small)
    assert summary["wins"]["head"] == 10 and not summary["gain"]
    assert summary["ci_excludes_0"]


def test_a_copy_against_itself_shows_no_gain():
    summary = pairs.metric_summary(BASE, list(BASE))
    assert summary["wins"] == {"head": 0, "base": 0, "ties": 10}
    assert summary["change_ci95"] == [0.0, 0.0] and not summary["ci_excludes_0"]
    assert not summary["gain"]


def _run(value, **metrics):
    return {"attempted": 12, "failed": 0, "correct": True, "metrics": {"setup_s": value, **metrics}}


def test_summarize_skips_failed_runs_and_one_sided_metrics_and_reads_the_aa_interval():
    runs = [{"base": _run(b, only_base=1.0), "head": _run(0.8 * b)} for b in BASE]
    runs.append({"base": {"correct": False, "error": "exit 1"}, "head": _run(1.0)})
    aa = {"setup_s": {"change_ci95": [-0.05, 0.04]}}
    summary = pairs.summarize(runs, aa)
    assert list(summary) == ["setup_s"]
    assert summary["setup_s"]["pairs"] == 10
    assert summary["setup_s"]["outside_aa"]
    assert pairs.totals(runs, "base") == {"runs": 11, "attempted": 120, "failed": 0,
                                          "correct": 10}


def test_run_pairs_alternates_the_first_side_and_shares_each_seed():
    calls = []

    def runner(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return _run(1.0)

    result = pairs.run_pairs("toy-cone", "B", "H", 3, 35.0, 100, runner=runner)
    assert calls == [("B", 100), ("H", 100), ("H", 101), ("B", 101), ("B", 102), ("H", 102)]
    assert [pair["first"] for pair in result] == ["base", "head", "base"]
    assert [pair["seed"] for pair in result] == [100, 101, 102]
