"""Per-iteration metric records and CSV/JSON export.

A JSON report is exactly ``json.dumps(payload, indent=2)``.  Only ``version``
and ``config`` go through that encoder.  Each record and each flat number list
(``step_dx``, ``step_dy``, each ``schedule_trace`` entry) is written by json's
C encoder, which ``indent`` bypasses, and spliced into that layout.  A list of
one object repeated (the trace of a constant step) is encoded once; the test
is identity, as equal values such as ``0.0`` and ``-0.0`` may differ in text.
"""

import csv
import functools
import importlib.metadata
import io
import json
import operator
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

__all__ = ["MetricRecord", "RunReport", "package_version", "CSV_COLUMNS"]

CSV_COLUMNS = ("k", "gap", "dist_x", "dist_y", "tsa", "theta", "tau", "sigma")


@functools.cache
def package_version() -> str:
    try:
        return importlib.metadata.version("ogaprox")
    except importlib.metadata.PackageNotFoundError:
        return "0.0.0+unknown"


@dataclass(frozen=True)
class MetricRecord:
    """Metrics logged at one iteration; absent metrics stay ``None``."""

    k: int
    gap: float | None = None
    dist_x: float | None = None
    dist_y: float | None = None
    tsa: float | None = None
    theta: float | None = None
    tau: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.tsa is not None and not 0.0 <= self.tsa <= 100.0:
            raise ValueError(f"tsa must be a percentage in [0, 100], got {self.tsa}")


def _cell(record: MetricRecord, column: str):
    value = getattr(record, column)
    if value is None:
        return ""
    return value if column == "k" else repr(float(value))


def _flat(value, level: int) -> str:
    """A flat list or dict laid out as ``indent=2`` lays it out at nesting ``level``."""
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    pad = "\n" + "  " * (level + 1)
    if not isinstance(value, dict) and all(map(operator.is_, value, repeat(value[0]))):
        text = "[" + ("," + pad).join([json.dumps(value[0])] * len(value)) + "]"
    else:
        text = json.dumps(value, separators=("," + pad, ": "))
    return text[0] + pad + text[1:-1] + pad[:-2] + text[-1]


@dataclass
class RunReport:
    """Metric records plus per-iteration step norms and schedule values."""

    records: list[MetricRecord] = field(default_factory=list)
    step_dx: list[float] = field(default_factory=list)
    step_dy: list[float] = field(default_factory=list)
    schedule_trace: dict[str, list[float]] = field(
        default_factory=lambda: {"theta": [], "tau": [], "sigma": []}
    )
    config: dict = field(default_factory=dict)
    version: str = field(default_factory=package_version)

    def to_csv_text(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(CSV_COLUMNS)
        for rec in self.records:
            writer.writerow([_cell(rec, col) for col in CSV_COLUMNS])
        return buffer.getvalue()

    def to_csv(self, path) -> None:
        """Write records under the fixed schema, empty cells for ``None``."""
        Path(path).write_text(self.to_csv_text())

    def to_json_text(self) -> str:
        head = json.dumps({"version": self.version, "config": self.config}, indent=2)
        records = ",\n    ".join(_flat(vars(r), 2) for r in self.records)
        records = "[\n    " + records + "\n  ]" if records else "[]"
        trace = ",".join(f"\n    {json.dumps(key)}: {_flat(values, 2)}"
                         for key, values in self.schedule_trace.items())
        trace = "{" + trace + "\n  }" if trace else "{}"
        return (f'{head[:-2]},\n  "records": {records},'
                f'\n  "step_dx": {_flat(self.step_dx, 1)},'
                f'\n  "step_dy": {_flat(self.step_dy, 1)},'
                f'\n  "schedule_trace": {trace}\n}}')

    def to_json(self, path) -> None:
        Path(path).write_text(self.to_json_text())

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        payload = json.loads(text)
        return cls(
            records=[MetricRecord(**r) for r in payload["records"]],
            step_dx=list(payload.get("step_dx", [])),
            step_dy=list(payload.get("step_dy", [])),
            schedule_trace=payload.get(
                "schedule_trace", {"theta": [], "tau": [], "sigma": []}
            ),
            config=payload.get("config", {}),
            version=payload.get("version", "0.0.0+unknown"),
        )
