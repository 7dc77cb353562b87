"""Check that the exact per-layer counts repeat across runs at one seed.

    python3 benchmark/repeat_check.py [--seed N] [--seconds S]

Runs every workload's traced mode twice, in separate processes, and
compares the counts a later change may cite as evidence: proofs.trace_steps,
oracle.pairs_checked, oracle.pairs_total, linalg.ops_computed and
linalg.result_bits_max.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import EXACT
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def counts(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in EXACT}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        first, second = (counts(workload, args.seed, args.seconds) for _ in range(2))
        same = first == second
        status |= not same
        print(f"{workload}: {'same' if same else 'DIFFERENT'} {json.dumps(first)}"
              + ("" if same else f" vs {json.dumps(second)}"))
    return status


if __name__ == "__main__":
    sys.exit(main())
