"""Record the final-checkpoint values of every workload at the golden seed.

    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``, which every benchmark run checks its
golden-seed call against.  Rerun only when a change is meant to alter the
iterates, and say so where the change is described.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, bootstrap

if __name__ == "__main__":
    problem = bootstrap()
    if problem:
        sys.exit(f"error: {problem}")
    from ogaprox.cli import main as cli_main

    from perfbench import workloads
    from perfbench.measure import GOLDEN_SEED

    golden = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        for name, workload in workloads.WORKLOADS.items():
            config = workloads.prepare(workload, GOLDEN_SEED, Path(scratch) / name)
            out = Path(scratch) / name / "out"
            result = workloads.call_cli(cli_main, workload, config, GOLDEN_SEED, out)
            if result.code != 0:
                sys.exit(f"{name} failed:\n{result.output}")
            golden[name] = workloads.final_values(workload, out)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(json.dumps(golden, indent=2))
