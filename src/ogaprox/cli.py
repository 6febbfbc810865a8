"""Command-line entry points.

One verb per experiment plus a library self-check::

    ogaprox validate  [--config FILE] [--seed N] [--out DIR]
    ogaprox toy       [--config FILE] [--seed N] [--out DIR]
    ogaprox synthetic [--config FILE] [--seed N] [--out DIR]
    ogaprox mksvm     --config FILE [--seed N] [--out DIR]
    ogaprox fairness  --config FILE [--seed N] [--out DIR]

Config files are flat ``key = value`` text ('#' starts a comment).  Each
key a handler below reads is a keyword of its experiment driver (``iters``
is ``max_iter``); a key that is not set takes the driver's default, a
key the verb does not read is rejected, and the driver checks every value.
The CLI's own keys, read by mksvm and fairness, are ``dataset``, ``path``
and ``data_dir`` (default ``data``); toy runs both nu = 0 and 0.3 unless
``nu`` is set.  Exit codes: 0 on success, 2 when validation fails or a
config value is rejected, 1 on runtime errors.  Each verb prints from the
report it writes; toy, synthetic and mksvm print the wall time of the
whole driver call, which the drivers leave to their caller.
"""

import argparse
import sys
import time
from pathlib import Path

from .datasets import DATASET_FORMATS, DatasetSpec, UnknownDatasetError, load_dataset
from .experiments import (
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


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _options(cfg, casts, own=()) -> dict:
    """Driver keywords for the config keys that are set; ``casts`` maps a key
    to its cast, or to ``(keyword, cast)`` where the names differ.  A key
    that is neither in ``casts`` nor one of the verb's ``own`` keys, or a
    value its cast rejects, is a ``ValueError`` naming the key."""
    unread = sorted(set(cfg) - set(casts) - set(own))
    if unread:
        raise ValueError(f"config key(s) not read by this command: {', '.join(unread)}")
    options = {}
    for key, spec in casts.items():
        if key in cfg:
            keyword, cast = spec if isinstance(spec, tuple) else (key, spec)
            try:
                options[keyword] = cast(cfg[key])
            except ValueError as err:
                raise ValueError(f"{key}: {err}") from None
    return options


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
    ok, lines = validation_experiment(seed=seed, **_options(cfg, {"trials": int}))
    for line in lines:
        print(line)
    return 0 if ok else 2


def _cmd_toy(cfg, seed, out_dir) -> int:
    options = _options(cfg, {"d": int, "n": int, "iters": ("max_iter", int), "nu": float,
                             "checkpoints": _int_list, "tau0": float, "sigma0": float})
    nus = [options.pop("nu")] if "nu" in options else [0.0, 0.3]
    reports = {}
    for value in nus:
        started = time.perf_counter()
        report = toy_experiment(seed=seed, nu=value, **options)
        elapsed = time.perf_counter() - started
        tag = f"toy_nu{str(value).replace('.', '-')}"
        reports[tag] = report
        gap = f"{report.records[-1].gap:.3e}" if report.records else "n/a"
        print(f"{tag}: {report.config['max_iter']} iterations in "
              f"{elapsed:.1f}s, final gap {gap}")
    _write_reports(out_dir, reports)
    return 0


def _cmd_synthetic(cfg, seed, out_dir) -> int:
    options = _options(
        cfg, {"dim": int, "iters": ("max_iter", int), "theta": float, "record_every": int})
    started = time.perf_counter()
    report = synthetic_experiment(seed=seed, **options)
    elapsed = time.perf_counter() - started
    ok = report.config["certificate_ok"]
    print(f"synthetic: linear certificate {'holds' if ok else 'VIOLATED'} "
          f"(max lhs/bound {report.config['max_certificate_ratio']:.3f}) in {elapsed:.2f}s")
    _write_reports(out_dir, {"synthetic": report})
    return 0 if ok else 2


_DATA_KEYS = ("dataset", "path", "data_dir")


def _dataset_from_cfg(cfg, default_name=None):
    name = cfg.get("dataset", default_name)
    if name is None:
        raise ValueError("config must set dataset = <name>")
    if name not in DATASET_FORMATS:
        raise UnknownDatasetError(f"unknown dataset {name!r}")
    path = cfg.get("path")
    if path is None:
        path = str(Path(cfg.get("data_dir", "data")) / DATASET_FORMATS[name].filename)
    return load_dataset(DatasetSpec(name=name, path=path))


def _cmd_mksvm(cfg, seed, out_dir) -> int:
    options = _options(cfg, {
        "variant": str, "runs": int, "checkpoints": _int_list, "box_c": float,
        "split_fraction": float, "tau0": float, "sigma0": float}, _DATA_KEYS)
    data = _dataset_from_cfg(cfg)
    started = time.perf_counter()
    report = mksvm_experiment(data, seed=seed, **options)
    elapsed = time.perf_counter() - started
    variant = report.config["variant"]
    for rec in report.records:
        print(f"{data.name} {variant} k={rec.k}: TSA {rec.tsa:.2f}")
    print(f"({elapsed:.1f}s over {report.config['runs']} runs)")
    _write_reports(out_dir, {f"mksvm_{data.name}_{variant}": report})
    return 0


def _cmd_fairness(cfg, seed, out_dir) -> int:
    options = _options(cfg, {"grouping": str, "partitions": int, "checkpoints": _int_list,
                             "split_fraction": float}, _DATA_KEYS)
    data = _dataset_from_cfg(cfg, default_name="heart-disease")
    report = fairness_experiment(data, seed=seed, **options)
    config = report.config
    for k in config["checkpoints"]:
        cell = config["with_fairness"][str(k)]
        plain = config["without_fairness"][str(k)]
        print(f"k={k}: overall with {cell['overall']:.2f} / without {plain['overall']:.2f}")
    _write_reports(out_dir, {f"fairness_{config['grouping']}": report})
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
