"""Benchmark of the pct-impact command line, run from the repository root.

    python3 perfbench/run.py --workload fields-20k --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 1

A user runs one ``pct-impact <subcommand>`` on an institution CSV and waits
for the tables, so each subcommand is timed as a fresh
``python -m pct_impact.cli`` process, import and output writing included.
The loop is closed, with one client: the seven subcommands run round-robin,
each invocation after the previous one ends, until --seconds have passed.
Every invocation's outputs are hashed and checked (see oracle.py); an
invocation fails if it exits nonzero, prints a traceback, leaves out an
expected file, differs from an earlier repeat, or disagrees with the oracle.

--trace 0 prints the end-to-end metrics: the median of three set-ups,
rows per second (input rows x 7 / the sum of the seven subcommands' median
wall times) and the peak RSS of any child; each subcommand's median is
printed as well. --trace 1 alternates plain and traced invocations
(tracer.py) and prints the per-layer metrics: each subcommand's median wall
time, self times and counts per module function, and the tracing overhead.
The last line of standard output is one JSON object; the full result, with
all samples and output digests, goes to perfbench/_work/result-*.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUPS = 3
TOP_X = 10.0

EXPECTED = {
    "percentiles": ("percentiles.csv",),
    "summary": ("summary.tsv", "summary.json", "summary_ci.svg"),
    "compare": ("compare.tsv", "compare.json", "compare_ci.svg"),
    "topshare": ("topshare.tsv", "topshare.json", "topshare_ci.svg"),
    "topcompare": ("topcompare.tsv", "topcompare.json"),
    "robustness": ("robustness.json",),
    "bootstrap": ("bootstrap.json",),
}


def child_env() -> dict[str, str]:
    """The caller's environment, with the package on the path and no seed."""
    env = dict(os.environ)
    env.pop("PCT_IMPACT_SEED", None)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return env


def spawn(argv: list[str], log_stem: Path) -> tuple[float, float, int, str]:
    """Run one child to completion: wall seconds, peak RSS in MB, exit code,
    standard error text."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = Path(f"{log_stem}.err").read_text(encoding="utf-8", errors="replace")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


class WorkloadRun:
    """One workload on one seed: its input, invocations and checks."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.workload = workloads.WORKLOADS[name]
        self.rows = self.workload.rows
        self.flags = workloads.subcommands(name, seed)
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.input = self.dir / "input.csv"
        self.truth: oracle.Truth | None = None
        self.reference: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes: dict[str, int] = {}

    def setup(self, times: int) -> list[float]:
        """Generate the input and warm the .pyc and file caches, `times` over.

        Every generation must give the same bytes.
        """
        seconds, first = [], None
        for i in range(times):
            start = time.perf_counter()
            data = self.workload.build(self.seed, self.rows)
            self.input.write_bytes(data)
            _, _, code, stderr = spawn(
                [sys.executable, "-c", "import pct_impact.cli"], self.dir / f"warmup{i}"
            )
            seconds.append(time.perf_counter() - start)
            if code != 0:
                raise SystemExit(f"warm-up import failed ({code}):\n{stderr}")
            if first is None:
                first = data
            elif data != first:
                raise SystemExit(f"{self.name}: seed {self.seed} gave two different inputs")
        self.truth = oracle.Truth(first, x=TOP_X)
        return seconds

    def invoke(self, sub: str, tag: str, flags: list[str] | None = None,
               traced: bool = False) -> tuple[float, float, str]:
        """Run and check one invocation; returns wall s, peak RSS MB, stderr."""
        out_dir = self.dir / f"out-{tag}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        cli = [sub, "--input", str(self.input), "--out-dir", str(out_dir),
               *workloads.COMMON_FLAGS, *(self.flags[sub] if flags is None else flags)]
        if traced:
            argv = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"),
                    str(self.dir / f"spans-{tag}.json"), f"{self.name}:{self.seed}:{tag}",
                    "--", *cli]
        else:
            argv = [sys.executable, "-m", "pct_impact.cli", *cli]
        wall, rss, code, stderr = spawn(argv, self.dir / f"log-{tag}")
        self.attempted += 1
        problems = self._problems(sub, out_dir, code, stderr)
        if problems:
            self.failures.append(f"{tag}: " + "; ".join(problems))
        return wall, rss, stderr

    def _problems(self, sub: str, out_dir: Path, code: int, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        if "Traceback" in stderr:
            return ["traceback on stderr"]
        missing = [f for f in EXPECTED[sub] if not (out_dir / f).is_file()]
        if missing:
            return [f"missing {', '.join(missing)}"]
        got = digests(out_dir)
        want = self.reference.get(sub)
        if want is None:
            self.reference[sub] = got
            self.output_bytes[sub] = sum(p.stat().st_size for p in out_dir.iterdir())
            return self.truth.check(sub, out_dir)
        if got != want:
            return [f"outputs differ from an earlier {sub} run"]
        return []

    def check_worker_invariance(self) -> None:
        """Untimed: with one worker, bootstrap.json must be byte-identical to
        the timed runs' (the pinned bootstrap stream)."""
        flags = list(self.flags["bootstrap"])
        at = flags.index("--workers") + 1
        if flags[at] != "1":
            flags[at] = "1"
            self.invoke("bootstrap", "bootstrap-workers1", flags)

    def round_robin(self, seconds: float, step) -> None:
        """Call step(sub, k) over the subcommands in turn until `seconds`
        have passed and every subcommand ran at least once."""
        subs = list(self.flags)
        start = time.perf_counter()
        i = 0
        while i < len(subs) or time.perf_counter() - start < seconds:
            step(subs[i % len(subs)], i // len(subs))
            i += 1


def measure(run: WorkloadRun, seconds: float) -> tuple[dict, dict]:
    setup = run.setup(SETUPS)
    walls: dict[str, list[float]] = {sub: [] for sub in run.flags}
    rss: list[float] = []

    def step(sub: str, k: int) -> None:
        wall, peak, _ = run.invoke(sub, f"{sub}-{k}")
        walls[sub].append(wall)
        rss.append(peak)

    run.round_robin(seconds, step)
    run.check_worker_invariance()
    medians = {f"{sub}_s": (statistics.median(ws), len(ws)) for sub, ws in walls.items()}
    session = sum(v for v, _ in medians.values())
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        # every subcommand counts once, however many times it ran before the deadline
        "rows_per_s": (run.rows * len(medians) / session, len(rss)),
        "peak_rss_mb": (max(rss), len(rss)),
        **medians,
    }
    return metrics, {"setup_samples_s": setup, "wall_samples_s": walls}


def measure_traced(run: WorkloadRun, seconds: float) -> tuple[dict, dict]:
    run.setup(1)
    plain: dict[str, list[float]] = {sub: [] for sub in run.flags}
    traced: dict[str, list[float]] = {sub: [] for sub in run.flags}
    layers: dict[str, list[dict[str, float]]] = {sub: [] for sub in run.flags}

    def step(sub: str, k: int) -> None:
        plain[sub].append(run.invoke(sub, f"{sub}-{k}")[0])
        tag = f"{sub}-{k}-traced"
        wall, _, stderr = run.invoke(sub, tag, traced=True)
        traced[sub].append(wall)
        spans = run.dir / f"spans-{tag}.json"
        if spans.is_file():
            trace = json.loads(spans.read_text(encoding="utf-8"))
            layers[sub].append(tracer.invocation_metrics(trace, stderr))
        else:
            run.failures.append(f"{tag}: no spans written")

    run.round_robin(seconds, step)
    run.check_worker_invariance()
    if any(not samples for samples in layers.values()):
        raise SystemExit("a traced invocation wrote no spans: " + "; ".join(run.failures))
    values = tracer.combine(layers)
    values["cli.output_bytes"] = float(sum(run.output_bytes.values()))
    values["trace.overhead_s"] = sum(
        statistics.median(traced[s]) - statistics.median(plain[s]) for s in run.flags
    )
    samples = min(len(v) for v in layers.values())
    metrics = {k: (v, samples) for k, v in values.items()}
    metrics.update({f"{s}_s": (statistics.median(ws), len(ws)) for s, ws in plain.items()})
    return metrics, {"plain_samples_s": plain, "traced_samples_s": traced}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = WorkloadRun(name, seed)
    measured, samples = (measure_traced if trace else measure)(run, seconds)
    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(measured))
    if missing:
        raise SystemExit(f"metrics declared but not measured: {', '.join(missing)}")
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "input": run.truth.stats() | {"bytes": run.input.stat().st_size},
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures,
        "digests": run.reference,
        "metrics": {
            name: {"value": measured[name][0], "unit": unit, "samples": measured[name][1]}
            for name, unit in declared.items()
        },
        "also_measured": {
            name: {"value": value, "samples": n}
            for name, (value, n) in measured.items() if name not in declared
        },
        "samples": samples,
    }
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8"
    )
    return result


def report(result: dict) -> None:
    """Human-readable lines, printed before the final JSON line."""
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"{json.dumps(result['environment'])}")
    print(f"   input {json.dumps(result['input'])}")
    for name, m in result["metrics"].items():
        print(f"   {name:48s} {m['value']:14.6f} {m['unit']:6s} (n={m['samples']})")
    for name, m in result["also_measured"].items():
        print(f"   {name:48s} {m['value']:14.6f} {'':6s} (n={m['samples']}, not in the result line)")
    print(f"   {'failed_frac':48s} {result['failed_frac']:14.6f} ratio  "
          f"({result['failed']} of {result['attempted']} invocations)")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pct_impact" / "cli.py").is_file():
        print(f"error: no pct_impact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        report(r)
    single = len(results) == 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (k if single else f"{r['workload']}.{k}"): {"value": m["value"], "unit": m["unit"]}
            for r in results
            for k, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
