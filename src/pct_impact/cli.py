"""Command line front end.

One parser takes a command word (percentiles, summary, compare, topshare,
topcompare, robustness, bootstrap), --config FILE and one flag per
AnalysisConfig field, in any order. Every value is read by one rule per
field, whether a flag, the flat key=value config file or, for the seed,
the PCT_IMPACT_SEED environment variable gave it, and checked by
AnalysisConfig.validate. Precedence is flags, then the config file, then
defaults; PCT_IMPACT_SEED replaces only the built-in seed default. Exit
codes: 0 success, 1 data error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, get_args, get_type_hints

import numpy as np

from .data import (
    Dataset,
    _csv_field,
    _needs_quotes,
    filter_years,
    parse_records,
    write_rejects_report,
)
from .effects import summarize
from .errors import ConfigurationError, DataError, SampleSizeError, UnknownInstitutionError
from .percentiles import (
    PercentileFormula,
    PercentileScheme,
    assign_best_percentiles,
    outlier_sensitivity_report,
)
from .resampling import BootstrapSpec, BootstrapStatistic, CiMethod, bootstrap_samples
from .svgchart import CiChartSpec, CiSeries, render_ci_chart
from .tables import ReportTable, compare_table, summary_table, topcompare_table, topshare_table

SEED_ENV_VAR = "PCT_IMPACT_SEED"


class AnalysisConfig(NamedTuple):
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
        for key, ok, words in _CHECKS:
            for value in self.formats if key == "format" else [getattr(self, key)]:
                if not ok(value):
                    raise ConfigurationError(f"{key} must be {words}, got {value}")

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
        """a:b[,c:d...]; a side in double quotes may hold , and :, with "" for "."""
        if not self.pairs:
            raise ConfigurationError("this command needs --pairs a:b[,c:d...]")
        bad = ConfigurationError(
            f"bad pair list {self.pairs!r}; expected a:b[,c:d...], "
            'with a side that holds "," or ":" in double quotes'
        )
        sides, separators, pos = [], "", 0
        while True:
            m = _PAIR_SIDE.match(self.pairs, pos)
            if m is None:
                raise bad
            sides.append(m[2].strip() if m[1] is None else m[1].replace('""', '"'))
            separators += m[3]
            if not m[3]:
                break
            pos = m.end()
        if not all(sides) or len(sides) % 2 or separators != ",".join(":" * (len(sides) // 2)):
            raise bad
        return list(zip(sides[::2], sides[1::2]))


# one side of --pairs and the separator after it: a quoted side, or plain text
# that does not start with a quote
_PAIR_SIDE = re.compile(r'\s*(?:"((?:[^"]|"")*)"|([^,:"][^,:]*|))\s*([,:]|\Z)')


# the type each option's value is read as: bool, int, float or str
_KINDS = {
    key: next(kind for kind in (bool, int, float, str) if kind in (hint, *get_args(hint)))
    for key, hint in get_type_hints(AnalysisConfig).items()
}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
# the allowed values of each option that names one of a few; format is a
# comma list of its values
_CHOICES = {
    "scheme": ("common", "incites"),
    "counting": ("binary", "fractional"),
    "ci": ("normal", "percentile"),
    "statistic": ("mean", "mean-diff", "proportion", "prop-diff"),
    "format": ("tsv", "json", "svg"),
}
# each key validate checks, in order: its test and the words of its message
_CHECKS = (
    ("mu0", lambda v: 0.0 <= v <= 100.0, "in [0, 100]"),
    ("top_x", lambda v: 0.0 < v < 100.0, "in (0, 100)"),
    ("p0", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    # as effects checks it: a level whose upper quantile rounds to 1 counts as 1
    ("ci_level", lambda v: 0.0 < v and 0.5 + v / 2.0 < 1.0, "in (0, 1)"),
    *((key, allowed.__contains__, ", ".join(allowed[:-1]) + " or " + allowed[-1])
      for key, allowed in _CHOICES.items()),
    ("bootstrap_reps", lambda v: v >= 1, ">= 1"),
    ("seed", lambda v: v >= 0, ">= 0"),
    ("workers", lambda v: v >= 1, ">= 1"),
)
_HELP = {
    "inverted": "rank by descending citations; 100 means worst",
    "zero_adjust": "pin uncited papers to the worst percentile",
    "pairs": 'a:b[,c:d...]; "quote" a side holding , or :',
    "ci": "bootstrap CI method",
    "format": "a comma list of these",
    "workers": "accepted for compatibility (>= 1); changes nothing",
}


def _read_value(key: str, raw: str) -> object:
    """The value of config key from its text, whether a flag, the config
    file or PCT_IMPACT_SEED gave it, trimmed of surrounding space."""
    raw = raw.strip()
    if "\0" in raw:  # only a config file can hold one; no path can
        raise ConfigurationError(f"{key} must not hold a NUL byte, got {raw!r}")
    kind = _KINDS[key]
    try:
        return _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        words = {bool: "a boolean", int: "an integer", float: "a number"}[kind]
        raise ConfigurationError(f"{key} must be {words}, got {raw!r}") from None


def read_config_file(path: str) -> dict:
    """Flat UTF-8 key=value config, BOM or not; '#' starts a comment, blank lines ignored."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    for i, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{i}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in AnalysisConfig._fields:
            raise ConfigurationError(f"{path}:{i}: unknown config key {key!r}")
        values[key] = _read_value(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> AnalysisConfig:
    """Layer CLI > config file > environment seed > defaults."""
    values = {}
    if SEED_ENV_VAR in os.environ:
        values["seed"] = _read_value("seed", os.environ[SEED_ENV_VAR])
    if args.config:
        values.update(read_config_file(args.config))
    for key in AnalysisConfig._fields:
        if getattr(args, key) is not None:
            values[key] = _read_value(key, getattr(args, key))
    cfg = AnalysisConfig(**values)
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    """The command word, --config and a flag per config key, each value
    kept as text for _read_value; a boolean flag is a switch."""
    commands = "".join(f"  {name:<12} {fn.__doc__}\n" for name, fn in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="pct-impact",
        description="Percentile-based citation impact analysis",
        epilog="commands:\n" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command")
    parser.add_argument("--config", help="flat key=value config file; every flag is a key")
    for key in AnalysisConfig._fields:
        flag = "--" + key.replace("_", "-")
        if _KINDS[key] is bool:
            parser.add_argument(flag, action="store_const", const="true", help=_HELP.get(key))
        else:
            allowed = _CHOICES.get(key)
            metavar = "{" + ",".join(allowed) + "}" if allowed else None
            parser.add_argument(flag, metavar=metavar, help=_HELP.get(key))
    return parser


def _load_dataset(cfg: AnalysisConfig) -> Dataset:
    if not cfg.input:
        raise ConfigurationError("no input file given (use --input or a config file)")
    path = Path(cfg.input)
    if not path.exists():
        raise ConfigurationError(f"input file not found: {path}")
    with open(path, "rb") as fh:
        dataset, rejects = parse_records(fh)
    if rejects:
        report = io.StringIO()
        write_rejects_report(rejects, report)
        path = _write_text(cfg, "rejects.csv", report.getvalue())
        print(f"warning: {len(rejects)} row(s) rejected; see {path}", file=sys.stderr)
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
    counting weighs each paper 0 or 1 by its analysis percentile, as
    classify_top_x would (the percentiles lie in [0, 100], top_x in
    (0, 100)); fractional counting uses the tie-split weight of the paper's
    best set.
    """
    if cfg.counting == "binary":
        pct, inverted = _analysis_percentiles(cfg, dataset)
        _require_inverted(inverted)
        return (pct <= cfg.top_x).astype(float)
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


def _emit_chart(
    cfg: AnalysisConfig, stem: str, table: ReportTable, rows: tuple[int, int, int], **labels
) -> None:
    """The SVG chart of table's columns, each point and interval read from
    the cells of rows (point, lower, upper) so that figures match tables
    exactly; a column with an undefined cell is left out. labels are the
    CiChartSpec fields after series."""
    columns = zip(*([cell.value for cell in table.cells[row]] for row in rows))
    series = tuple(
        CiSeries(label, *values)
        for label, values in zip(table.col_labels, columns)
        if None not in values
    )
    if "svg" in cfg.formats and series:
        _write_text(cfg, f"{stem}.svg", render_ci_chart(CiChartSpec(series, **labels)))


def cmd_percentiles(cfg: AnalysisConfig) -> int:
    """write per-paper percentile assignments"""
    dataset = _load_dataset(cfg)
    best = assign_best_percentiles(dataset, cfg.percentile_scheme, x=cfg.top_x)
    sizes = np.diff(dataset.set_membership.bounds).tolist()
    for label, size, ties in zip(best.set_labels, sizes, best.set_tie_groups.tolist()):
        print(f"reference set {label}: {size} papers, {ties} tie group(s)", file=sys.stderr)
    lines = ["paper_id,reference_set,rank,percentile,tie_group_size,top_x_weight\n"]
    labels = tuple(map(_csv_field, best.set_labels))
    ids = dataset.ids
    if _needs_quotes("".join(ids)):  # one scan of all ids costs less than one per id
        ids = map(_csv_field, ids)
    for pid, j, rank, pct, tied, weight in zip(
        ids, best.best_set.tolist(), best.rank.tolist(),
        best.percentile.tolist(), best.tied_with.tolist(), best.top_x_weight.tolist(),
    ):
        lines.append(f"{pid},{labels[j]},{rank},{pct:.6g},{tied},{weight:.6g}\n")
    path = _write_text(cfg, "percentiles.csv", "".join(lines))
    print(f"wrote {len(dataset)} percentile assignments to {path}")
    return 0


def cmd_summary(cfg: AnalysisConfig) -> int:
    """mean percentile per institution vs mu0"""
    dataset = _load_dataset(cfg)
    pct, _ = _analysis_percentiles(cfg, dataset)
    stats = {
        label: summarize(vals) for label, vals in _institution_values(dataset, pct).items()
    }
    table = summary_table(stats, cfg.mu0, ci_level=cfg.ci_level)
    _emit_table(cfg, "summary", table)
    _emit_chart(
        cfg, "summary_ci", table, (0, 3, 4),
        title=f"Average percentile score by institution, with {100 * cfg.ci_level:g}% CIs",
        y_label="Mean percentile",
        x_label="Institution",
        reference_line=cfg.mu0,
    )
    return 0


def cmd_compare(cfg: AnalysisConfig) -> int:
    """pairwise mean percentile differences"""
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
        cfg, "compare_ci", table, (0, 3, 4),
        title=f"Differences in mean percentiles, with {100 * cfg.ci_level:g}% CIs",
        y_label="Difference in mean percentile",
        x_label="Institution pair",
        reference_line=0.0,
    )
    return 0


def cmd_topshare(cfg: AnalysisConfig) -> int:
    """top-x% share per institution vs p0"""
    dataset = _load_dataset(cfg)
    counts = _top_counts(cfg, dataset)
    table = topshare_table(counts, cfg.p0, cfg.top_x, ci_level=cfg.ci_level)
    _emit_table(cfg, "topshare", table)
    _emit_chart(
        cfg, "topshare_ci", table, (0, 2, 3),
        title=f"Top {cfg.top_x:g}% share by institution, with {100 * cfg.ci_level:g}% CIs",
        y_label=f"Share in top {cfg.top_x:g}% (x100)",
        x_label="Institution",
        reference_line=100 * cfg.p0,
    )
    return 0


def cmd_topcompare(cfg: AnalysisConfig) -> int:
    """pairwise top-x% share differences"""
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
    """outlier sensitivity of MNCS vs top-x% share"""
    dataset = _load_dataset(cfg)
    ref_means = _reference_means(dataset)
    weight = assign_best_percentiles(dataset, cfg.percentile_scheme, x=cfg.top_x).top_x_weight

    reports = {}
    for label, rows in dataset.institution_rows.items():
        try:
            report = outlier_sensitivity_report(
                dataset.citations[rows].tolist(), ref_means[rows].tolist(),
                weight[rows].tolist(), cfg.top_x,
            )
        except SampleSizeError:
            print(f"warning: institution {label!r} has n < 2; skipped", file=sys.stderr)
            continue
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
    """bootstrap a statistic"""
    dataset = _load_dataset(cfg)
    statistic = BootstrapStatistic(cfg.statistic.replace("-", "_"))
    spec = BootstrapSpec(replicates=cfg.bootstrap_reps, seed=cfg.seed, ci_method=CiMethod(cfg.ci))
    if statistic in (BootstrapStatistic.MEAN, BootstrapStatistic.PROPORTION):
        if not cfg.institution:
            raise ConfigurationError(f"{cfg.statistic} bootstrap needs --institution")
        keys = labels = [cfg.institution]
    else:
        keys = cfg.pair_list
        labels = [label for pair in keys for label in pair]
    _require_known(dataset, labels)
    if statistic in (BootstrapStatistic.PROPORTION, BootstrapStatistic.PROP_DIFF):
        per_paper = _top_weights(cfg, dataset)
    else:
        per_paper, _ = _analysis_percentiles(cfg, dataset)
    # each sample sorted, so that the draws do not depend on the input's row order
    values = {k: sorted(v) for k, v in _institution_values(dataset, per_paper).items()}

    # significance is reported as interval exclusion of the natural null
    null_value = {
        BootstrapStatistic.MEAN: cfg.mu0,
        BootstrapStatistic.PROPORTION: cfg.p0,
        BootstrapStatistic.MEAN_DIFF: 0.0,
        BootstrapStatistic.PROP_DIFF: 0.0,
    }[statistic]

    payload = []
    for r in bootstrap_samples(values, keys, statistic, spec):
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
        except DataError as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return 1
        except (ConfigurationError, OSError) as exc:  # OSError: an unreadable path
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2


def console_main() -> None:
    """The process entry point of ``pct-impact`` and ``python -m
    pct_impact.cli``: main(), then exit without the interpreter's final
    garbage collection, which would walk every object the run left behind.
    stdout writes a path's undecodable bytes (an argument decoded with
    surrogateescape) back as they were, even when its encoding is strict.
    main() itself changes nothing process-wide."""
    sys.stdout.reconfigure(errors="surrogateescape")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
