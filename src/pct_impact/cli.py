"""Command line front end.

Subcommands: percentiles, summary, compare, topshare, topcompare,
robustness, bootstrap. Configuration precedence is CLI flags, then a flat
key=value config file, then defaults; the PCT_IMPACT_SEED environment
variable replaces only the built-in seed default. Exit codes: 0 success,
1 data error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, IngestionConfig, filter_years, parse_records, write_rejects_report
from .effects import summarize
from .errors import CitationImpactError, ConfigurationError, UnknownInstitutionError
from .percentiles import (
    PercentileFormula,
    PercentileScheme,
    assign_best_percentiles,
    classify_top_x,
    outlier_sensitivity_report,
)
from .resampling import BootstrapSpec, BootstrapStatistic, CiMethod, bootstrap_samples
from .svgchart import CiChartSpec, CiSeries, render_ci_chart
from .tables import ReportTable, compare_table, summary_table, topcompare_table, topshare_table

SEED_ENV_VAR = "PCT_IMPACT_SEED"
FORMATS = ("tsv", "json", "svg")


@dataclass
class AnalysisConfig:
    input: Optional[str] = None
    scheme: str = "common"
    inverted: bool = False
    zero_adjust: bool = False
    mu0: float = 50.0
    top_x: float = 10.0
    p0: float = 0.10
    ci_level: float = 0.95
    pairs: Optional[str] = None
    counting: str = "binary"
    bootstrap_reps: int = 1000
    seed: int = 0
    ci: str = "normal"
    welch: bool = False
    mann_whitney: bool = False
    out_dir: str = "."
    format: str = "tsv,json"
    last_year: Optional[int] = None
    statistic: str = "mean"
    institution: Optional[str] = None
    workers: int = 1

    def validate(self) -> None:
        if not 0.0 <= self.mu0 <= 100.0:
            raise ConfigurationError(f"mu0 must be in [0, 100], got {self.mu0}")
        if not 0.0 < self.top_x < 100.0:
            raise ConfigurationError(f"top-x must be in (0, 100), got {self.top_x}")
        if not 0.0 < self.p0 < 1.0:
            raise ConfigurationError(f"p0 must be in (0, 1), got {self.p0}")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigurationError(f"ci_level must be in (0, 1), got {self.ci_level}")
        if self.scheme not in ("common", "incites"):
            raise ConfigurationError(f"scheme must be common or incites, got {self.scheme}")
        if self.counting not in ("binary", "fractional"):
            raise ConfigurationError(
                f"counting must be binary or fractional, got {self.counting}"
            )
        if self.ci not in ("normal", "percentile"):
            raise ConfigurationError(f"ci must be normal or percentile, got {self.ci}")
        if self.bootstrap_reps < 1:
            raise ConfigurationError("bootstrap-reps must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        bad = [f for f in self.formats if f not in FORMATS]
        if bad:
            raise ConfigurationError(f"unknown format(s): {', '.join(bad)}")

    @property
    def formats(self) -> list[str]:
        return [f.strip() for f in self.format.split(",") if f.strip()]

    @property
    def percentile_scheme(self) -> PercentileScheme:
        return PercentileScheme(
            formula=PercentileFormula(self.scheme),
            inverted=self.inverted,
            zero_rank_adjust=self.zero_adjust,
        )

    @property
    def pair_list(self) -> list[tuple[str, str]]:
        if not self.pairs:
            raise ConfigurationError("this command needs --pairs a:b[,c:d...]")
        out = []
        for chunk in self.pairs.split(","):
            parts = chunk.split(":")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise ConfigurationError(f"bad pair {chunk!r}; expected a:b")
            out.append((parts[0].strip(), parts[1].strip()))
        return out


_BOOL_KEYS = {"inverted", "zero_adjust", "welch", "mann_whitney"}
_INT_KEYS = {"bootstrap_reps", "seed", "last_year", "workers"}
_FLOAT_KEYS = {"mu0", "top_x", "p0", "ci_level"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"cannot parse boolean value {raw!r}")


def read_config_file(path: str) -> dict:
    """Flat key=value config; '#' starts a comment, blank lines ignored."""
    values: dict = {}
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{i}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        raw = raw.strip()
        if key not in AnalysisConfig.__dataclass_fields__:
            raise ConfigurationError(f"{path}:{i}: unknown config key {key!r}")
        if key in _BOOL_KEYS:
            values[key] = _parse_bool(raw)
        elif key in _INT_KEYS:
            values[key] = int(raw)
        elif key in _FLOAT_KEYS:
            values[key] = float(raw)
        else:
            values[key] = raw
    return values


def resolve_config(args: argparse.Namespace) -> AnalysisConfig:
    """Layer CLI > config file > environment seed > defaults."""
    cfg = AnalysisConfig()
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigurationError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            setattr(cfg, key, value)
    for key in AnalysisConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--scheme", choices=["common", "incites"], default=None)
    p.add_argument("--inverted", action="store_const", const=True, default=None,
                   help="rank by descending citations; 100 means worst")
    p.add_argument("--zero-adjust", dest="zero_adjust", action="store_const", const=True,
                   default=None, help="pin uncited papers to the worst percentile")
    p.add_argument("--mu0", type=float, default=None)
    p.add_argument("--top-x", dest="top_x", type=float, default=None)
    p.add_argument("--p0", type=float, default=None)
    p.add_argument("--pairs", default=None, help="a:b[,c:d...]")
    p.add_argument("--counting", choices=["binary", "fractional"], default=None)
    p.add_argument("--bootstrap-reps", dest="bootstrap_reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ci", choices=["normal", "percentile"], default=None,
                   help="bootstrap CI method")
    p.add_argument("--welch", action="store_const", const=True, default=None)
    p.add_argument("--mann-whitney", dest="mann_whitney", action="store_const",
                   const=True, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--format", default=None, help="comma list from tsv,json,svg")
    p.add_argument("--last-year", dest="last_year", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility (>= 1); changes nothing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pct-impact",
        description="Percentile-based citation impact analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("percentiles", "write per-paper percentile assignments"),
        ("summary", "mean percentile per institution vs mu0"),
        ("compare", "pairwise mean percentile differences"),
        ("topshare", "top-x% share per institution vs p0"),
        ("topcompare", "pairwise top-x% share differences"),
        ("robustness", "outlier sensitivity of MNCS vs top-x% share"),
        ("bootstrap", "bootstrap a statistic"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "bootstrap":
            p.add_argument(
                "--statistic",
                choices=["mean", "mean-diff", "proportion", "prop-diff"],
                default=None,
            )
            p.add_argument("--institution", default=None)
    return parser


def _load_dataset(cfg: AnalysisConfig) -> Dataset:
    if not cfg.input:
        raise ConfigurationError("no input file given (use --input or a config file)")
    path = Path(cfg.input)
    if not path.exists():
        raise ConfigurationError(f"input file not found: {path}")
    with open(path, "rb") as fh:
        dataset, rejects = parse_records(fh, IngestionConfig())
    if rejects:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "rejects.csv", "w", encoding="utf-8") as fh:
            write_rejects_report(rejects, fh)
        print(
            f"warning: {len(rejects)} row(s) rejected; see {out_dir / 'rejects.csv'}",
            file=sys.stderr,
        )
    if cfg.last_year is not None:
        dataset = filter_years(dataset, cfg.last_year)
    return dataset


def _analysis_percentiles(cfg: AnalysisConfig, dataset: Dataset) -> tuple[np.ndarray, bool]:
    """Percentile per dataset row, plus whether the values are inverted.

    Pre-supplied inverted percentiles win when every record has one;
    otherwise percentiles are computed from the dataset's reference sets
    with the configured scheme.
    """
    supplied = int(np.count_nonzero(~np.isnan(dataset.inv_percentiles)))
    if supplied == len(dataset):
        if cfg.scheme != "common" or cfg.zero_adjust:
            print(
                "warning: percentiles read from the inv_percentile column; "
                "--scheme and --zero-adjust do not apply",
                file=sys.stderr,
            )
        return dataset.inv_percentiles, True
    if supplied:
        print(
            f"warning: inv_percentile given for {supplied} of {len(dataset)} records; "
            "percentiles computed from citations",
            file=sys.stderr,
        )
    best = assign_best_percentiles(dataset, cfg.percentile_scheme, x=cfg.top_x)
    return best.percentile, cfg.inverted


def _require_inverted(inverted: bool) -> None:
    if not inverted:
        raise ConfigurationError(
            "top-x classification needs inverted percentiles; supply an "
            "inv_percentile column or pass --inverted"
        )


def _require_known(dataset: Dataset, labels: Sequence[str]) -> None:
    for label in labels:
        if label not in dataset.institution_rows:
            raise UnknownInstitutionError(label, list(dataset.institution_rows))


def _institution_values(dataset: Dataset, per_row: np.ndarray) -> dict[str, list[float]]:
    return {label: per_row[rows].tolist() for label, rows in dataset.institution_rows.items()}


def _top_weights(cfg: AnalysisConfig, dataset: Dataset) -> np.ndarray:
    """Top-x weight per dataset row under the configured counting mode.

    The one place where --counting becomes per-paper weights. Binary
    counting weighs each paper 0 or 1 by its analysis percentile;
    fractional counting uses the tie-split weight of the paper's best set.
    """
    if cfg.counting == "binary":
        pct, inverted = _analysis_percentiles(cfg, dataset)
        _require_inverted(inverted)
        return np.array([classify_top_x(v, cfg.top_x) for v in pct.tolist()], dtype=float)
    return assign_best_percentiles(dataset, cfg.percentile_scheme, x=cfg.top_x).top_x_weight


def _top_counts(cfg: AnalysisConfig, dataset: Dataset) -> dict[str, tuple[float, int]]:
    """(top count, n) per institution: the sum of its papers' top-x weights."""
    weights = _institution_values(dataset, _top_weights(cfg, dataset))
    return {label: (math.fsum(v), len(v)) for label, v in weights.items()}


def _write_text(cfg: AnalysisConfig, name: str, text: str) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def _emit_table(cfg: AnalysisConfig, stem: str, table: ReportTable) -> None:
    print(table.to_text())
    if "tsv" in cfg.formats:
        _write_text(cfg, f"{stem}.tsv", table.to_tsv())
    if "json" in cfg.formats:
        _write_text(cfg, f"{stem}.json", json.dumps(table.to_json_dict(), indent=2) + "\n")


def _table_series(table: ReportTable, rows: tuple[int, int, int]) -> tuple[CiSeries, ...]:
    """Chart series from table cells so figures match tables exactly."""
    point_row, lo_row, hi_row = rows
    series = []
    for j, label in enumerate(table.col_labels):
        point = table.cells[point_row][j].value
        lo = table.cells[lo_row][j].value
        hi = table.cells[hi_row][j].value
        if point is None or lo is None or hi is None:
            continue
        series.append(CiSeries(label=label, point=point, ci_low=lo, ci_high=hi))
    return tuple(series)


def _emit_chart(cfg: AnalysisConfig, stem: str, spec: CiChartSpec) -> None:
    if "svg" in cfg.formats and spec.series:
        _write_text(cfg, f"{stem}.svg", render_ci_chart(spec))


def cmd_percentiles(cfg: AnalysisConfig) -> int:
    dataset = _load_dataset(cfg)
    best = assign_best_percentiles(dataset, cfg.percentile_scheme, x=cfg.top_x)
    for label, size, ties in zip(
        best.set_labels, best.set_sizes.tolist(), best.set_tie_groups.tolist()
    ):
        print(f"reference set {label}: {size} papers, {ties} tie group(s)", file=sys.stderr)
    lines = ["paper_id,reference_set,rank,percentile,tie_group_size,top_x_weight\n"]
    labels = best.set_labels
    for pid, j, rank, pct, tied, weight in zip(
        dataset.ids, best.best_set.tolist(), best.rank.tolist(),
        best.percentile.tolist(), best.tied_with.tolist(), best.top_x_weight.tolist(),
    ):
        lines.append(f"{pid},{labels[j]},{rank},{pct:.6g},{tied},{weight:.6g}\n")
    path = _write_text(cfg, "percentiles.csv", "".join(lines))
    print(f"wrote {len(dataset)} percentile assignments to {path}")
    return 0


def cmd_summary(cfg: AnalysisConfig) -> int:
    dataset = _load_dataset(cfg)
    pct, _ = _analysis_percentiles(cfg, dataset)
    stats = {
        label: summarize(vals) for label, vals in _institution_values(dataset, pct).items()
    }
    table = summary_table(stats, cfg.mu0, ci_level=cfg.ci_level)
    _emit_table(cfg, "summary", table)
    _emit_chart(
        cfg,
        "summary_ci",
        CiChartSpec(
            series=_table_series(table, (0, 3, 4)),
            title=f"Average percentile score by institution, with {100 * cfg.ci_level:g}% CIs",
            y_label="Mean percentile",
            x_label="Institution",
            reference_line=cfg.mu0,
        ),
    )
    return 0


def cmd_compare(cfg: AnalysisConfig) -> int:
    dataset = _load_dataset(cfg)
    pairs = cfg.pair_list
    _require_known(dataset, [label for pair in pairs for label in pair])
    pct, _ = _analysis_percentiles(cfg, dataset)
    values = _institution_values(dataset, pct)
    table = compare_table(
        values,
        pairs,
        ci_level=cfg.ci_level,
        include_welch=cfg.welch,
        include_mann_whitney=cfg.mann_whitney,
    )
    _emit_table(cfg, "compare", table)
    _emit_chart(
        cfg,
        "compare_ci",
        CiChartSpec(
            series=_table_series(table, (0, 3, 4)),
            title=f"Differences in mean percentiles, with {100 * cfg.ci_level:g}% CIs",
            y_label="Difference in mean percentile",
            x_label="Institution pair",
            reference_line=0.0,
        ),
    )
    return 0


def cmd_topshare(cfg: AnalysisConfig) -> int:
    dataset = _load_dataset(cfg)
    counts = _top_counts(cfg, dataset)
    table = topshare_table(counts, cfg.p0, cfg.top_x, ci_level=cfg.ci_level)
    _emit_table(cfg, "topshare", table)
    series = _table_series(table, (0, 2, 3))
    _emit_chart(
        cfg,
        "topshare_ci",
        CiChartSpec(
            series=series,
            title=f"Top {cfg.top_x:g}% share by institution, with {100 * cfg.ci_level:g}% CIs",
            y_label=f"Share in top {cfg.top_x:g}% (x100)",
            x_label="Institution",
            reference_line=100 * cfg.p0,
        ),
    )
    return 0


def cmd_topcompare(cfg: AnalysisConfig) -> int:
    dataset = _load_dataset(cfg)
    pairs = cfg.pair_list
    _require_known(dataset, [label for pair in pairs for label in pair])
    counts = _top_counts(cfg, dataset)
    table = topcompare_table(counts, pairs, cfg.top_x, ci_level=cfg.ci_level)
    _emit_table(cfg, "topcompare", table)
    return 0


def _reference_means(dataset: Dataset) -> np.ndarray:
    """Per dataset row, the mean citations of its reference sets, averaged
    over the paper's sets (the MNCS field baseline)."""
    sets = dataset.set_membership
    cits = dataset.citations[sets.rows].tolist()
    bounds = sets.bounds.tolist()
    set_means = np.array([math.fsum(cits[a:b]) / (b - a) for a, b in zip(bounds, bounds[1:])])
    order = np.argsort(sets.rows, kind="stable")
    means = set_means[sets.set_ids[order]]  # grouped by row
    n_sets = np.bincount(sets.rows, minlength=len(dataset))
    first = np.cumsum(n_sets) - n_sets
    ref_means = means[first]
    for row in np.flatnonzero(n_sets > 1).tolist():
        a, k = int(first[row]), int(n_sets[row])
        ref_means[row] = math.fsum(means[a:a + k].tolist()) / k
    return ref_means


def cmd_robustness(cfg: AnalysisConfig) -> int:
    dataset = _load_dataset(cfg)
    ref_means = _reference_means(dataset)
    weight = assign_best_percentiles(dataset, cfg.percentile_scheme, x=cfg.top_x).top_x_weight

    reports = {}
    for label, rows in dataset.institution_rows.items():
        if len(rows) < 2:
            print(f"warning: institution {label!r} has n < 2; skipped", file=sys.stderr)
            continue
        report = outlier_sensitivity_report(
            dataset.citations[rows].tolist(), ref_means[rows].tolist(),
            weight[rows].tolist(), cfg.top_x,
        )
        reports[label] = report
        print(f"Institution {label} (n = {report.n}):")
        print(
            f"  MNCS {report.mncs_full:.4f} -> {report.mncs_without_max:.4f} "
            f"without the top-cited paper ({report.dropped_citations} citations); "
            f"relative change {100 * report.mncs_rel_delta:.1f}%"
        )
        print(
            f"  top {cfg.top_x:g}% share {100 * report.top_share_full:.2f} -> "
            f"{100 * report.top_share_without_max:.2f} (x100); "
            f"change {100 * report.top_share_abs_delta:.2f} points"
        )
    if "json" in cfg.formats:
        payload = {label: r.to_json_dict() for label, r in reports.items()}
        _write_text(cfg, "robustness.json", json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_bootstrap(cfg: AnalysisConfig) -> int:
    dataset = _load_dataset(cfg)
    statistic = BootstrapStatistic(cfg.statistic.replace("-", "_"))
    spec = BootstrapSpec(
        replicates=cfg.bootstrap_reps,
        seed=cfg.seed,
        ci_method=CiMethod(cfg.ci),
    )
    one_sample = statistic in (BootstrapStatistic.MEAN, BootstrapStatistic.PROPORTION)
    if one_sample:
        if not cfg.institution:
            raise ConfigurationError(f"{cfg.statistic} bootstrap needs --institution")
        labels = [cfg.institution]
    else:
        pairs = cfg.pair_list
        labels = [label for pair in pairs for label in pair]
    _require_known(dataset, labels)
    if statistic in (BootstrapStatistic.PROPORTION, BootstrapStatistic.PROP_DIFF):
        per_paper = _top_weights(cfg, dataset)
    else:
        per_paper, _ = _analysis_percentiles(cfg, dataset)
    values = _institution_values(dataset, per_paper)

    # significance is reported as interval exclusion of the natural null
    null_value = {
        BootstrapStatistic.MEAN: cfg.mu0,
        BootstrapStatistic.PROPORTION: cfg.p0,
        BootstrapStatistic.MEAN_DIFF: 0.0,
        BootstrapStatistic.PROP_DIFF: 0.0,
    }[statistic]

    if one_sample:
        data = [values[cfg.institution]]
    else:
        data = [(values[a], values[b]) for a, b in pairs]
    results = bootstrap_samples(data, statistic, spec)
    payload = []
    for r in results:
        entry = r.to_json_dict()
        entry["null_value"] = null_value
        entry["ci_excludes_null"] = not (r.ci_low <= null_value <= r.ci_high)
        payload.append(entry)
    text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2)
    print(text)
    if "json" in cfg.formats:
        _write_text(cfg, "bootstrap.json", text + "\n")
    return 0


_COMMANDS = {
    "percentiles": cmd_percentiles,
    "summary": cmd_summary,
    "compare": cmd_compare,
    "topshare": cmd_topshare,
    "topcompare": cmd_topcompare,
    "robustness": cmd_robustness,
    "bootstrap": cmd_bootstrap,
}


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            cfg = resolve_config(args)
            return _COMMANDS[args.command](cfg)
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except CitationImpactError as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return 1
        except (ValueError, OSError) as exc:  # a bad config number, an unreadable path
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2


def console_main() -> None:
    """The process entry point of ``pct-impact`` and ``python -m
    pct_impact.cli``: main(), then exit without the interpreter's final
    garbage collection, which would walk every object the run left behind.
    main() itself changes nothing process-wide."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
