"""Alternating paired benchmark runs of two checkouts, with their statistics.

    python3 tools/pairs.py --workload toy-cone --base DIR --head DIR \\
        --pairs 10 --seconds 35 --seed 9501 --label parent-vs-change

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, as a subprocess started in that checkout's root: each
side runs its own unchanged benchmark, which pins BLAS to one thread and
imports only that checkout's ``src/``.  Pair ``i`` gives both sides the seed
``S + i``; the base runs first in even pairs and the head in odd ones.  Each
run's last line of output is its JSON result.  An A/A control passes two
copies of the same code as ``--base`` and ``--head``.

The tool writes ``BENCH_<workload>_<label>.json`` (standard library only):

- per pair: the seed, the side that ran first, and each side's attempted,
  failed and correct counts and end-to-end metrics;
- per metric, over the pairs where both sides report it: each side's
  median and quartiles, the head's wins (lower is better, as for every
  end-to-end metric of the benchmark; ties count for neither side), the
  median paired change ``head / base - 1`` and a 95% bootstrap interval of
  it (the pairs resampled 2,000 times from a fixed seed), and whether that
  interval excludes 0;
- ``gain``: the head wins at least nine tenths of the pairs and its median
  is below the base's by more than the base's interquartile range;
- with ``--aa FILE``, ``outside_aa``: the median change lies outside that
  A/A file's interval for the metric.

A speed claim on a metric counts when ``gain`` holds, or, where this host's
spread is wider than the gap, when the head wins nine tenths of the pairs
and ``outside_aa`` holds (Kalibera and Jones, "Rigorous Benchmarking in
Reasonable Time", ISMM 2013; Georges, Buytaert and Eeckhout, OOPSLA 2007).
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

RESAMPLES = 2000
BOOTSTRAP_SEED = 20130620


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(base, head) -> dict[str, int]:
    """Pairs where each side is lower; equal pairs count for neither."""
    return {"head": sum(h < b for b, h in zip(base, head)),
            "base": sum(b < h for b, h in zip(base, head)),
            "ties": sum(b == h for b, h in zip(base, head))}


def bootstrap_interval(changes, resamples: int = RESAMPLES,
                       seed: int = BOOTSTRAP_SEED) -> tuple[float, float]:
    """95% percentile interval of the median of ``changes``, the pairs
    resampled with replacement."""
    rng = random.Random(seed)
    medians = [statistics.median(rng.choices(changes, k=len(changes)))
               for _ in range(resamples)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def metric_summary(base, head) -> dict:
    """Statistics of one metric over paired values of the two sides."""
    changes = [h / b - 1.0 for b, h in zip(base, head)]
    base_q, head_q = quartiles(base), quartiles(head)
    won = wins(base, head)
    low, high = bootstrap_interval(changes)
    return {
        "pairs": len(base),
        "base": dict(zip(("q1", "median", "q3"), base_q)),
        "head": dict(zip(("q1", "median", "q3"), head_q)),
        "wins": won,
        "median_change": statistics.median(changes),
        "change_ci95": [low, high],
        "ci_excludes_0": not low <= 0.0 <= high,
        "gain": (won["head"] >= 0.9 * len(base)
                 and base_q[1] - head_q[1] > base_q[2] - base_q[0]),
    }


def summarize(pairs: list[dict], aa: dict | None = None) -> dict:
    """Per-metric statistics over the pairs where both sides report it."""
    names = sorted({name for pair in pairs for side in ("base", "head")
                    for name in pair[side].get("metrics", {})})
    summary = {}
    for name in names:
        both = [(pair["base"]["metrics"][name], pair["head"]["metrics"][name])
                for pair in pairs
                if all(name in pair[side].get("metrics", {}) for side in ("base", "head"))]
        if not both:
            continue
        summary[name] = metric_summary([b for b, _ in both], [h for _, h in both])
        if aa is not None and name in aa:
            low, high = aa[name]["change_ci95"]
            summary[name]["outside_aa"] = not low <= summary[name]["median_change"] <= high
    return summary


def totals(pairs: list[dict], side: str) -> dict:
    runs = [pair[side] for pair in pairs]
    return {"runs": len(runs),
            "attempted": sum(run.get("attempted") or 0 for run in runs),
            "failed": sum(run.get("failed") or 0 for run in runs),
            "correct": sum(bool(run.get("correct")) for run in runs)}


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its counts and metric values,
    its ``env`` line, or the error that stopped it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {done.returncode}: {done.stderr[-500:]}"}
    environment = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()
                        if entry["value"] is not None},
            "env": {key: environment.get(key) for key in ("git_rev", "src_sha256")}}


def run_pairs(workload: str, base: Path, head: Path, pairs: int, seconds: float,
              seed: int, runner=run_side, log=None) -> list[dict]:
    """``pairs`` alternating pairs; the base runs first in even pairs."""
    results = []
    for index in range(pairs):
        order = ("base", "head") if index % 2 == 0 else ("head", "base")
        pair = {"seed": seed + index, "first": order[0]}
        for side in order:
            pair[side] = runner(base if side == "base" else head, workload, seed + index, seconds)
        results.append(pair)
        if log is not None:
            log(f"pair {index + 1}/{pairs} seed {seed + index}: " + ", ".join(
                f"{side} {pair[side].get('metrics', pair[side].get('error'))}"
                for side in ("base", "head")))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", required=True, type=Path, help="checkout root of the base")
    parser.add_argument("--head", required=True, type=Path, help="checkout root of the head")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--label", required=True)
    parser.add_argument("--aa", type=Path, help="an A/A file of the same workload")
    parser.add_argument("--out-dir", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    aa = json.loads(args.aa.read_text())["metrics"] if args.aa else None
    pairs = run_pairs(args.workload, args.base.resolve(), args.head.resolve(), args.pairs,
                      args.seconds, args.seed, log=lambda line: print(line, file=sys.stderr))
    payload = {
        "workload": args.workload, "label": args.label, "seconds": args.seconds,
        "first_seed": args.seed,
        "sides": {side: {**pairs[0][side].get("env", {}), **totals(pairs, side)}
                  for side in ("base", "head")},
        "metrics": summarize(pairs, aa),
        "pairs": pairs,
    }
    path = args.out_dir / f"BENCH_{args.workload}_{args.label}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(path)
    clean = all(t["failed"] == 0 and t["correct"] == t["runs"]
                for t in (totals(pairs, "base"), totals(pairs, "head")))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
