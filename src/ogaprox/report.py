"""Per-iteration metric records and CSV/JSON export."""

import csv
import importlib.metadata
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["MetricRecord", "RunReport", "package_version", "CSV_COLUMNS"]

CSV_COLUMNS = ("k", "gap", "dist_x", "dist_y", "tsa", "theta", "tau", "sigma")


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

    def add(self, record: MetricRecord) -> None:
        self.records.append(record)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]

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
        payload = {
            "version": self.version,
            "config": self.config,
            "records": [asdict(r) for r in self.records],
            "step_dx": self.step_dx,
            "step_dy": self.step_dy,
            "schedule_trace": self.schedule_trace,
        }
        return json.dumps(payload, indent=2)

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
