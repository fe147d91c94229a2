"""Traced run of one CLI invocation, instrumented from outside the package.

Run as ``python tracer.py SPANS_OUT RUN_ID -- <cli arguments>`` with the
package on PYTHONPATH. It imports pct_impact, replaces each traced public
function by a wrapper in every module that holds it (so names bound with
``from .x import y`` are caught too), runs ``pct_impact.cli.main`` and
writes the spans and counters to SPANS_OUT as JSON. Spans are kept in
memory until the run ends.

The benchmark turns those files into per-layer metrics with
``invocation_metrics`` and ``combine``; this module imports pct_impact only
when run as a script.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# Spanned functions, by module. Their self time is the span minus the spans
# of traced functions they call.
SPANNED = {
    "data": ("parse_records", "group_reference_sets", "select_institution_sample"),
    "percentiles": ("assign_best_percentiles", "percentile_rank", "fractional_top_share",
                    "outlier_sensitivity_report"),
    "cli": ("cmd_percentiles", "cmd_summary", "cmd_compare", "cmd_topshare",
            "cmd_topcompare", "cmd_robustness", "cmd_bootstrap"),
    "effects": ("summarize", "one_sample_t", "two_sample_pooled_t", "two_sample_welch_t",
                "one_sample_prop_z", "two_sample_prop_z"),
    "kernels": ("t_cdf", "t_quantile", "normal_cdf", "normal_quantile"),
    "resampling": ("mann_whitney", "bootstrap_statistic"),
    "tables": ("summary_table", "compare_table", "topshare_table", "topcompare_table"),
    "svgchart": ("render_ci_chart",),
}
RENDER_METHODS = ("to_tsv", "to_json_dict", "to_text")
# Called once per paper: counted, never spanned.
COUNTED = {"percentiles": ("classify_top_x",)}


class Recorder:
    """Spans as (name, start, end, parent index, run id), plus counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self.summarized: list = []  # distinct samples seen by summarize, kept alive

    def span(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            index = len(self.spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
            self.spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            self.counts[name + ".calls"] += 1
            if probe is not None:
                probe(self, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)


def _probe_parse(rec, args, result):
    dataset, rejects = result
    rec.counts["data.parse_records.rows"] += len(dataset.records)
    rec.counts["data.parse_records.rejects"] += len(rejects)


def _probe_group(rec, args, result):
    rec.counts["data.reference_sets"] = len(result)
    rec.counts["data.max_set_size"] = max(len(rs.members) for rs in result)


def _probe_select(rec, args, result):
    rec.counts["data.select_institution_sample.scanned"] += len(args[0].records)


def _probe_rank(rec, args, result):
    rec.counts["percentiles.percentile_rank.papers"] += len(args[0])


def _probe_summarize(rec, args, result):
    if all(v is not args[0] for v in rec.summarized):
        rec.summarized.append(args[0])
    rec.counts["effects.summarize.distinct"] = len(rec.summarized)


def _probe_mann_whitney(rec, args, result):
    rec.counts["resampling.mann_whitney.pooled_n"] += len(args[0]) + len(args[1])


def _probe_bootstrap(rec, args, result):
    rec.counts["resampling.bootstrap_statistic.replicates"] += args[2].replicates


PROBES = {
    "data.parse_records": _probe_parse,
    "data.group_reference_sets": _probe_group,
    "data.select_institution_sample": _probe_select,
    "percentiles.percentile_rank": _probe_rank,
    "effects.summarize": _probe_summarize,
    "resampling.mann_whitney": _probe_mann_whitney,
    "resampling.bootstrap_statistic": _probe_bootstrap,
}


def instrument(rec: Recorder) -> None:
    """Wrap every traced function wherever a pct_impact module binds it."""
    import importlib

    package = importlib.import_module("pct_impact")
    holders = [package] + [
        m for name, m in sys.modules.items() if name.startswith("pct_impact.")
    ]

    def rebind(original, wrapper):
        for module in holders:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper

    for short, names in SPANNED.items():
        module = sys.modules[f"pct_impact.{short}"]
        for fn_name in names:
            name = f"{short}.{fn_name}"
            original = getattr(module, fn_name)
            rebind(original, rec.span(name, original, PROBES.get(name)))
    for short, names in COUNTED.items():
        module = sys.modules[f"pct_impact.{short}"]
        for fn_name in names:
            original = getattr(module, fn_name)
            rebind(original, rec.counter(f"{short}.{fn_name}", original))
    table_cls = sys.modules["pct_impact.tables"].ReportTable
    for method in RENDER_METHODS:
        original = getattr(table_cls, method)
        setattr(table_cls, method, rec.span(f"tables.ReportTable.{method}", original))


def main(argv: list[str]) -> int:
    out_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT RUN_ID -- <cli arguments>")
    start = time.perf_counter()
    import pct_impact.cli as cli

    import_s = time.perf_counter() - start
    rec = Recorder(run_id)
    instrument(rec)
    try:
        code = cli.main(cli_args)
    finally:
        rec.dump(out_path, {"import_s": import_s})
    return code


# --- aggregation, in the parent process -----------------------------------

def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), covered in zip(spans, child):
        totals[name] += (end - start) - covered
    return totals


def invocation_metrics(trace: dict, importtime_stderr: str) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    selfs = self_times(trace["spans"])
    counts = dict(trace["counts"])
    m: dict[str, float] = {"import.wall_s": trace["import_s"],
                           "import.scipy_stats_s": _scipy_stats_import_s(importtime_stderr)}
    for short, names in SPANNED.items():
        for fn_name in names:
            name = f"{short}.{fn_name}"
            m[name + ".self_s"] = selfs.get(name, 0.0)
            m[name + ".calls"] = counts.get(name + ".calls", 0.0)
    for short, names in COUNTED.items():
        for fn_name in names:
            m[f"{short}.{fn_name}.calls"] = counts.get(f"{short}.{fn_name}.calls", 0.0)
    m["kernels.self_s"] = sum(selfs.get(f"kernels.{n}", 0.0) for n in SPANNED["kernels"])
    m["tables.render_s"] = sum(selfs.get(f"tables.ReportTable.{n}", 0.0)
                               for n in RENDER_METHODS)
    rows = counts.get("data.parse_records.rows", 0.0)
    scanned = counts.get("data.select_institution_sample.scanned", 0.0)
    m["data.select_institution_sample.scan_ratio"] = scanned / rows if rows else 0.0
    for key in ("data.parse_records.rows", "data.parse_records.rejects",
                "data.reference_sets", "data.max_set_size",
                "percentiles.percentile_rank.papers", "effects.summarize.distinct",
                "resampling.mann_whitney.pooled_n",
                "resampling.bootstrap_statistic.replicates"):
        m[key] = counts.get(key, 0.0)
    return m


def _scipy_stats_import_s(stderr: str) -> float:
    """Cumulative import time of scipy.stats from ``python -X importtime``."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "scipy.stats":
            return int(line.split("|")[1]) / 1e6
    return 0.0


# Per invocation these are shapes, not amounts: the pass reports the largest.
_MAX_KEYS = ("data.parse_records.rows", "data.reference_sets", "data.max_set_size",
             "data.select_institution_sample.scan_ratio")
_MEAN_KEYS = ("import.wall_s", "import.scipy_stats_s")


def combine(per_command: dict[str, list[dict[str, float]]]) -> dict[str, float]:
    """One traced pass: each metric's median over an invocation's samples,
    summed over the subcommands (shapes take the largest, import times the
    mean), with ratios formed from the summed parts."""
    total: dict[str, float] = defaultdict(float)
    for samples in per_command.values():
        for key in samples[0]:
            value = statistics.median(s[key] for s in samples)
            total[key] = max(total[key], value) if key in _MAX_KEYS else total[key] + value
    for key in _MEAN_KEYS:
        total[key] /= len(per_command)
    calls = total["effects.summarize.calls"]
    total["effects.summarize.useful_ratio"] = (
        total.pop("effects.summarize.distinct") / calls if calls else 0.0
    )
    return dict(total)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
