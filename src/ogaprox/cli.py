"""Command-line entry points.

One verb per experiment plus a library self-check::

    ogaprox validate  [--config FILE] [--seed N] [--out DIR]
    ogaprox toy       [--config FILE] [--seed N] [--out DIR]
    ogaprox synthetic [--config FILE] [--seed N] [--out DIR]
    ogaprox mksvm     --config FILE [--seed N] [--out DIR]
    ogaprox fairness  --config FILE [--seed N] [--out DIR]

Config files are flat ``key = value`` text ('#' starts a comment); the
keys each verb reads are listed in its handler below and in the README.
Exit codes: 0 on success, 2 when validation fails (or a config value is
rejected), 1 on runtime errors.
"""

import argparse
import sys
from pathlib import Path

from .datasets import DATASET_FORMATS, DatasetSpec, UnknownDatasetError, load_dataset
from .experiments import (
    MKSVM_VARIANTS,
    fairness_experiment,
    mksvm_experiment,
    synthetic_experiment,
    toy_experiment,
    validation_experiment,
)

__all__ = ["main", "parse_config"]


def parse_config(path: str | None) -> dict[str, str]:
    """Flat key=value file; later keys win, '#' comments, blank lines skipped."""
    values: dict[str, str] = {}
    if path is None:
        return values
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _get(cfg, key, cast, default):
    if key not in cfg:
        return default
    return cast(cfg[key])


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _write_reports(out_dir: str | None, named_reports: dict) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, report in named_reports.items():
        report.to_csv(out / f"{name}.csv")
        report.to_json(out / f"{name}.json")
        print(f"wrote {out / name}.csv and .json")


def _cmd_validate(cfg, seed, out_dir) -> int:
    trials = _get(cfg, "trials", int, 1000)
    ok, lines = validation_experiment(seed=seed, trials=trials)
    for line in lines:
        print(line)
    return 0 if ok else 2


def _cmd_toy(cfg, seed, out_dir) -> int:
    d = _get(cfg, "d", int, 250)
    n = _get(cfg, "n", int, 350)
    max_iter = _get(cfg, "iters", int, 10_000)
    nu = _get(cfg, "nu", float, None)
    checkpoints = _get(cfg, "checkpoints", _int_list, None)
    tau0 = _get(cfg, "tau0", float, None)
    sigma0 = _get(cfg, "sigma0", float, None)
    nus = [nu] if nu is not None else [0.0, 0.3]
    reports = {}
    for value in nus:
        outcome = toy_experiment(seed=seed, nu=value, d=d, n=n, max_iter=max_iter,
                                 checkpoints=list(checkpoints) if checkpoints else None,
                                 tau0=tau0, sigma0=sigma0)
        tag = f"toy_nu{str(value).replace('.', '-')}"
        reports[tag] = outcome.report
        final = outcome.report.records[-1] if outcome.report.records else None
        gap = f"{final.gap:.3e}" if final else "n/a"
        print(f"{tag}: {max_iter} iterations in {outcome.elapsed:.1f}s, final gap {gap}")
    _write_reports(out_dir, reports)
    return 0


def _cmd_synthetic(cfg, seed, out_dir) -> int:
    outcome = synthetic_experiment(
        seed=seed,
        dim=_get(cfg, "dim", int, 40),
        max_iter=_get(cfg, "iters", int, 500),
        theta=_get(cfg, "theta", float, 0.9),
        record_every=_get(cfg, "record_every", int, 1),
    )
    status = "holds" if outcome.certificate_ok else "VIOLATED"
    print(f"synthetic: linear certificate {status} "
          f"(max lhs/bound {outcome.max_ratio:.3f}) in {outcome.elapsed:.2f}s")
    _write_reports(out_dir, {"synthetic": outcome.report})
    return 0 if outcome.certificate_ok else 2


def _dataset_from_cfg(cfg, default_name=None):
    name = cfg.get("dataset", default_name)
    if name is None:
        raise ValueError("config must set dataset = <name>")
    if name not in DATASET_FORMATS:
        raise UnknownDatasetError(f"unknown dataset {name!r}")
    path = cfg.get("path")
    if path is None:
        data_dir = cfg.get("data_dir", "data")
        filename = {
            "breast-cancer": "breast-cancer-wisconsin.data",
            "heart-disease": "heart.dat",
            "ionosphere": "ionosphere.data",
            "sonar": "sonar.all-data",
        }[name]
        path = str(Path(data_dir) / filename)
    return load_dataset(DatasetSpec(name=name, path=path))


def _cmd_mksvm(cfg, seed, out_dir) -> int:
    data = _dataset_from_cfg(cfg)
    variant = cfg.get("variant", "c1")
    if variant not in MKSVM_VARIANTS:
        print(f"unknown variant {variant!r}", file=sys.stderr)
        return 2
    outcome = mksvm_experiment(
        data,
        variant=variant,
        seed=seed,
        runs=_get(cfg, "runs", int, 12),
        checkpoints=_get(cfg, "checkpoints", _int_list, (250, 500, 1000, 1500, 2000)),
        box_c=_get(cfg, "box_c", float, 1.0),
        split_fraction=_get(cfg, "split_fraction", float, 0.8),
        tau0=_get(cfg, "tau0", float, None),
        sigma0=_get(cfg, "sigma0", float, None),
    )
    for k, tsa in outcome.aggregated.items():
        print(f"{data.name} {variant} k={k}: TSA {tsa:.2f}")
    print(f"({outcome.elapsed:.1f}s over {len(outcome.per_run)} runs)")
    _write_reports(out_dir, {f"mksvm_{data.name}_{variant}": outcome.report})
    return 0


def _cmd_fairness(cfg, seed, out_dir) -> int:
    data = _dataset_from_cfg(cfg, default_name="heart-disease")
    grouping = cfg.get("grouping", "sex")
    outcome = fairness_experiment(
        data,
        grouping=grouping,
        seed=seed,
        partitions=_get(cfg, "partitions", int, 5),
        checkpoints=_get(cfg, "checkpoints", _int_list, (100, 500, 1000)),
        split_fraction=_get(cfg, "split_fraction", float, 0.8),
    )
    for k in sorted(outcome.with_fairness):
        cell = outcome.with_fairness[k]
        plain = outcome.without_fairness[k]
        print(f"k={k}: overall with {cell['overall']:.2f} / without {plain['overall']:.2f}")
    _write_reports(out_dir, {f"fairness_{grouping}": outcome.report})
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "toy": _cmd_toy,
    "synthetic": _cmd_synthetic,
    "mksvm": _cmd_mksvm,
    "fairness": _cmd_fairness,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ogaprox",
        description="Saddle-point experiments with optimistic gradient ascent"
                    " and proximal steps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="flat key=value file")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", default=None, help="directory for CSV/JSON reports")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        return _COMMANDS[args.command](cfg, args.seed, args.out)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"runtime error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
