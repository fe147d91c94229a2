"""Run the benchmark once per seed and summarize each metric's spread.

    python3 perfbench/seeds.py --workload fields-20k --seeds 1-10 [--trace 0] [--out FILE]

For every metric it prints the median over the runs, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median. Every run must finish with exit code 0 and correct outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary here as JSON")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    walls = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        walls.append(time.perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"] or result["failed"]:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    print(f"{args.workload} trace {args.trace} seeds {args.seeds} "
          f"run wall s {[round(w, 1) for w in walls]}")
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": vs}
        print(f"  {name:46s} {median:14.6f} {units[name]:6s} "
              f"q1 {q1:12.6f} q3 {q3:12.6f} spread {spread:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "trace": args.trace, "seeds": args.seeds,
            "run_wall_s": walls, "metrics": summary,
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
