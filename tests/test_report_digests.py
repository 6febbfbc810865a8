"""Byte identity of the CLI's reports: SHA-256 digests of small seed-fixed runs.

Every CLI verb that writes a report runs in-process through ``cli.main`` at
a small size, seed 1:

- ``toy``, both nu, d = 20, n = 30, 300 steps;
- ``synthetic``, dim 12, 300 steps, a record every 10;
- ``mksvm`` c1, a and c2 on a 120-row ionosphere-shaped file from
  ``perfbench/datagen.py``, 2 runs, checkpoints 100 and 300;
- ``fairness`` ``sex`` and ``age`` on a 100-row heart-shaped file,
  2 partitions, checkpoints 20 and 50;
- the standard output of ``validate --seed 1`` with ``trials = 100`` (it
  prints no timings).

``report_digests.json`` holds each file's SHA-256, and one short digest per
JSON field, CSV cell or output line, so that a mismatch names the file and
its first differing field or cell.  A change that alters a report on purpose
re-records the file and names the change in CHANGES.md::

    PYTHONPATH=src:. python tests/test_report_digests.py --record

Limits:

- digests depend on the numpy and BLAS build, so the file records both, and
  the test is skipped on another build;
- at these sizes 1 and 2 BLAS threads give the same bytes, so this test does
  not cover the toy's thread dependence at d = 250 (README states that
  exception).
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ogaprox.cli import main
from perfbench import datagen

DIGESTS = Path(__file__).with_name("report_digests.json")


def build() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _cli(directory: Path, verb: str, config: dict, out: Path | None) -> str:
    """One in-process CLI call at seed 1; returns its standard output."""
    path = directory / f"{verb}-{len(list(directory.glob('*.cfg')))}.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    argv = [verb, "--config", str(path), "--seed", "1"] + (["--out", str(out)] if out else [])
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, f"{verb} exited {code}: {buffer.getvalue()}"
    return buffer.getvalue()


def write_reports(directory: Path) -> dict[str, bytes]:
    """Every covered file's bytes, by file name."""
    out = directory / "reports"
    ionosphere, heart = directory / "ionosphere.data", directory / "heart.dat"
    ionosphere.write_text(datagen.ionosphere_text(1, rows=120))
    heart.write_text(datagen.heart_text(1, rows=100))
    _cli(directory, "toy", {"d": 20, "n": 30, "iters": 300}, out)
    _cli(directory, "synthetic", {"dim": 12, "iters": 300, "record_every": 10}, out)
    for variant in ("c1", "a", "c2"):
        _cli(directory, "mksvm", {"dataset": "ionosphere", "path": ionosphere,
                                  "variant": variant, "runs": 2, "checkpoints": "100, 300"}, out)
    for grouping in ("sex", "age"):
        _cli(directory, "fairness", {"dataset": "heart-disease", "path": heart,
                                     "grouping": grouping, "partitions": 2,
                                     "checkpoints": "20, 50"}, out)
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    files["validate.txt"] = _cli(directory, "validate", {"trials": 100}, None).encode()
    return files


def _json_fields(path: str, value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_fields(f"{path}.{key}" if path else key, item)
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        for index, item in enumerate(value):
            yield from _json_fields(f"{path}[{index}]", item)
    else:  # a scalar or a flat list is one field
        yield path, json.dumps(value)


def fields(name: str, data: bytes) -> list[tuple[str, str]]:
    """(JSON field, CSV cell or output line; its text), in document order."""
    text = data.decode()
    if name.endswith(".json"):
        return list(_json_fields("", json.loads(text)))
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        return [(f"row {i}, column {header[j] if j < len(header) else j}", cell)
                for i, row in enumerate(rows) for j, cell in enumerate(row)]
    return [(f"line {i + 1}", line) for i, line in enumerate(text.splitlines())]


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def record_of(name: str, data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "fields": " ".join(_short(text) for _, text in fields(name, data))}


def first_difference(name: str, data: bytes, recorded: dict) -> str:
    """Where ``data`` first departs from its recorded digests."""
    produced = fields(name, data)
    old = recorded["fields"].split()
    for (field, text), digest in zip(produced, old):
        if _short(text) != digest:
            return f"{name}: first differing field or cell is {field}"
    if len(produced) != len(old):
        return f"{name}: {len(produced)} fields or cells, {len(old)} recorded"
    return f"{name}: every field and cell as recorded, but the bytes differ (layout)"


def test_reports_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    if recorded["build"] != build():
        pytest.skip(f"digests recorded with {recorded['build']}, running {build()}")
    files = write_reports(tmp_path)
    assert sorted(files) == sorted(recorded["files"])
    mismatches = [first_difference(name, data, recorded["files"][name])
                  for name, data in files.items()
                  if hashlib.sha256(data).hexdigest() != recorded["files"][name]["sha256"]]
    assert not mismatches, "\n".join(mismatches)


_JSON = b'{\n  "config": {"seed": 1},\n  "records": [{"k": 1, "gap": 0.5}, {"k": 2, "gap": 0.25}]\n}'
_CSV = b"k,gap\r\n1,0.5\r\n2,0.25\r\n"


@pytest.mark.parametrize("name, data, changed, message", [
    ("r.json", _JSON, _JSON.replace(b"0.25", b"0.125"), "records[1].gap"),
    ("r.json", _JSON, _JSON.replace(b"\n  ", b"\n "), "layout"),
    ("r.csv", _CSV, _CSV.replace(b"0.25", b"0.2"), "row 2, column gap"),
    ("r.csv", _CSV, _CSV + b"3,\r\n", "8 fields or cells, 6 recorded"),
    ("validate.txt", b"PASS a\nPASS b\n", b"PASS a\nFAIL b\n", "line 2"),
])
def test_a_mismatch_names_the_first_differing_field(name, data, changed, message):
    assert message in first_difference(name, changed, record_of(name, data))


def record() -> None:
    with tempfile.TemporaryDirectory() as directory:
        files = write_reports(Path(directory))
    payload = {"build": build(), "files": {name: record_of(name, data)
                                           for name, data in sorted(files.items())}}
    DIGESTS.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"recorded {len(files)} files in {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
