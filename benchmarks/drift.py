"""Steadiness check: does throughput drift over back-to-back sweeps?

    python3 benchmarks/drift.py --sweeps 10            # all in this process
    python3 benchmarks/drift.py --sweeps 10 --fresh    # one process each

Each repetition runs one ``run_benchmark`` sweep with the built-in mock
provider (2 models × 50 runs × 4 cases × 3 tracks) and, around it, a fixed
pure-Python reference loop that touches no toonbench code.  If the sweep
rate moves with the reference loop's speed, the drift comes from the
machine, not from state that builds up in the process; the rate times the
reference time then stays flat.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = {"provider": "mock", "models": ["mock-a", "mock-b"], "runs": 50}
CELLS = 2 * 50 * 4 * 3


def reference_ms() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return (time.perf_counter() - t0) * 1000


def repetition(workdir: Path, i: int) -> dict:
    from toonbench.harness import run_benchmark
    before = reference_ms()
    t0 = time.perf_counter()
    run_benchmark(CONFIG, workdir / f"results{i}.csv", workdir / f"attempts{i}.jsonl")
    cells_per_s = CELLS / (time.perf_counter() - t0)
    ref = (before + reference_ms()) / 2
    return {"cells_per_s": cells_per_s, "reference_ms": ref}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sweeps", type=int, default=10)
    parser.add_argument("--fresh", action="store_true",
                        help="run each sweep in a new process")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".benchrun").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".benchrun"))
    try:
        rows = []
        for i in range(args.sweeps):
            if args.fresh:
                out = subprocess.run([sys.executable, __file__, "--sweeps", "1"],
                                     check=True, capture_output=True, text=True)
                rows.append(json.loads(out.stdout.splitlines()[-1]))
            else:
                rows.append(repetition(workdir, i))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.sweeps == 1 and not args.fresh:
        print(json.dumps(rows[0]))
        return 0
    for i, r in enumerate(rows):
        print(f"sweep {i}: {r['cells_per_s']:7.0f} cells/s  reference loop "
              f"{r['reference_ms']:6.1f} ms  rate x reference "
              f"{r['cells_per_s'] * r['reference_ms'] / 1000:7.1f}")
    rates = [r["cells_per_s"] for r in rows]
    speeds = [1 / r["reference_ms"] for r in rows]
    normalized = [r["cells_per_s"] * r["reference_ms"] for r in rows]
    print(f"rate: min {min(rates):.0f} max {max(rates):.0f} cells/s; "
          f"correlation with reference speed {statistics.correlation(rates, speeds):.2f}; "
          f"spread of rate {_spread(rates):.3f}, of rate x reference {_spread(normalized):.3f}")
    return 0


def _spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


if __name__ == "__main__":
    sys.exit(main())
