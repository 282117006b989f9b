#!/usr/bin/env python3
"""Regenerate ci/golden_graphs/ from the current pipelines.

Each golden file pins the captured launch graph of one shipped pipeline —
its launch sequence, kernel labels, region table, per-launch access sets,
and the analyzer's dependence/hazard/dead-write/fusion report — at the
canonical analyze workload. Capture records logical dataflow, not
scheduling, so the graphs are bit-identical across pool widths (CI checks
widths 1 and 4 via `cargo run -p xtask -- analyze`); any drift is a real
change in pipeline structure and must be acknowledged by regenerating:

    cargo run --release -p emg-cli -- analyze --all --write-golden ci/golden_graphs
    (or: python3 ci/update_golden_graphs.py)
"""

import pathlib
import subprocess
import sys


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    out_dir = root / "ci" / "golden_graphs"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Start from an empty directory so a retired pipeline's golden file
    # does not outlive it.
    for stale in out_dir.glob("*.json"):
        stale.unlink()
    proc = subprocess.run(
        [
            "cargo",
            "run",
            "--release",
            "-p",
            "emg-cli",
            "--",
            "analyze",
            "--all",
            "--write-golden",
            str(out_dir),
        ],
        cwd=root,
    )
    if proc.returncode != 0:
        print("error: emg analyze --write-golden failed", file=sys.stderr)
        return proc.returncode
    count = len(list(out_dir.glob("*.json")))
    print(f"wrote {count} golden graphs to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
