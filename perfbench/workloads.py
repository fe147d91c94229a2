"""Seeded synthetic inputs and the subcommand settings of each workload.

The generators scale up the recipe of demos/00_build_dataset.py:
negative-binomial citations, 40 institutions, and subject categories by
publication year. The same seed always gives a byte-identical CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

INSTITUTIONS = 40
CATEGORIES = 20
YEARS = tuple(range(2010, 2015))
COMMON_FLAGS = ("--scheme", "incites", "--inverted", "--zero-adjust", "--format", "tsv,json,svg")
FEW_PAIRS = "1:2,1:3,3:2"


def _labels() -> list[str]:
    return [str(i) for i in range(1, INSTITUTIONS + 1)]


def _institutions(rng: np.random.Generator, n: int) -> np.ndarray:
    """Institution index per paper; sizes vary about +-22% around n/40."""
    share = rng.dirichlet(np.full(INSTITUTIONS, 20.0))
    return rng.choice(INSTITUTIONS, size=n, p=share)


def _usable(data: bytes) -> bool:
    """Every institution has a paper in the top 10% and one outside it.

    Otherwise the top-10% share of a pair of institutions can pool to 0,
    which the z test rightly rejects as a data error; the workloads are
    meant to run every invocation to completion.
    """
    papers = oracle.read_input(data)
    top = oracle.best_assignment(papers, x=10.0).percentile <= 10.0
    inst = np.array(papers.institutions)
    return len(set(inst[top])) == len(set(inst[~top])) == INSTITUTIONS


def _first_usable(make, rng: np.random.Generator) -> bytes:
    """Draw inputs from rng until one is usable; the same seed always
    settles on the same input."""
    while True:
        data = make(rng)
        if _usable(data):
            return data


def _fields_columns(rng: np.random.Generator, n: int):
    """Papers in 20 categories x 5 years; 20% carry a second category.

    Citations are negative binomial with dispersion 0.8, so low counts
    (zero above all) form large tie groups.
    """
    inst = _institutions(rng, n)
    year = rng.choice(YEARS, size=n)
    cat1 = rng.integers(0, CATEGORIES, n)
    two = rng.random(n) < 0.20
    cat2 = (cat1 + rng.integers(1, CATEGORIES, n)) % CATEGORIES
    field_mean = rng.uniform(2.0, 20.0, CATEGORIES)
    quality = rng.lognormal(0.0, 0.3, INSTITUTIONS)
    age = 1.0 + 0.3 * (YEARS[-1] - year)
    mu = field_mean[cat1] * age * quality[inst]
    r = 0.8
    citations = rng.negative_binomial(r, r / (r + mu))
    return inst, year, cat1, np.where(two, cat2, -1), citations


def _category_cells(cat1: np.ndarray, cat2: np.ndarray) -> list[str]:
    names = [f"CAT{c:02d}" for c in range(CATEGORIES)]
    return [
        names[a] if b < 0 else f"{names[a]}|{names[b]}"
        for a, b in zip(cat1.tolist(), cat2.tolist())
    ]


def _csv(inst, year, cats, citations, inv_pct=None) -> bytes:
    labels = _labels()
    header = "id,institution,pub_year,category,citations"
    rows = zip(range(len(cats)), inst.tolist(), year.tolist(), cats, citations.tolist())
    if inv_pct is None:
        lines = [f"p{k},{labels[i]},{y},{c},{x}" for k, i, y, c, x in rows]
    else:
        header += ",inv_percentile"
        lines = [
            f"p{k},{labels[i]},{y},{c},{x},{p!r}"
            for (k, i, y, c, x), p in zip(rows, inv_pct.tolist())
        ]
    return (header + "\n" + "\n".join(lines) + "\n").encode("utf-8")


def build_fields(seed: int, n: int) -> bytes:
    def make(rng):
        inst, year, cat1, cat2, citations = _fields_columns(rng, n)
        return _csv(inst, year, _category_cells(cat1, cat2), citations)

    return _first_usable(make, np.random.default_rng(seed))


def build_distinct(seed: int, n: int) -> bytes:
    """One reference set in which every citation count is distinct.

    Better institutions draw higher scores; the scores' order maps onto n
    distinct counts, so there are no ties at all.
    """
    def make(rng):
        inst = _institutions(rng, n)
        quality = rng.normal(0.0, 0.3, INSTITUTIONS)
        score = quality[inst] + rng.normal(0.0, 1.0, n)
        counts = np.sort(rng.choice(5 * n, size=n, replace=False))
        citations = np.empty(n, dtype=np.int64)
        citations[np.argsort(score, kind="stable")] = counts
        return _csv(inst, np.full(n, YEARS[2]), ["CAT00"] * n, citations)

    return _first_usable(make, np.random.default_rng(seed))


def build_allpairs(seed: int, n: int) -> bytes:
    """The fields-20k papers plus the full inv_percentile column an InCites
    export carries, set to the best-set InCites percentile."""
    papers = oracle.read_input(build_fields(seed, n))
    inv_pct = oracle.best_assignment(papers, x=10.0).percentile
    labels = {label: i for i, label in enumerate(_labels())}
    inst = np.array([labels[i] for i in papers.institutions])
    cats = ["|".join(c) for c in papers.categories]
    return _csv(inst, papers.years, cats, papers.citations, inv_pct)


def _all_pairs() -> str:
    labels = _labels()
    return ",".join(
        f"{a}:{b}" for i, a in enumerate(labels) for b in labels[i + 1:]
    )


def subcommands(name: str, seed: int) -> dict[str, list[str]]:
    """Flags per subcommand, beyond --input, --out-dir and COMMON_FLAGS."""
    w = WORKLOADS[name]
    if w.all_pairs:
        pairs = _all_pairs()
        boot = ["--statistic", "mean-diff",
                "--pairs", ",".join(f"1:{k}" for k in range(2, INSTITUTIONS + 1))]
    else:
        pairs = FEW_PAIRS
        boot = ["--statistic", "mean", "--institution", "1"]
    return {
        "percentiles": [],
        "summary": [],
        "compare": ["--pairs", pairs, "--welch", "--mann-whitney"],
        "topshare": ["--counting", "fractional"],
        "topcompare": ["--pairs", pairs],
        "robustness": [],
        "bootstrap": boot + ["--bootstrap-reps", str(w.bootstrap_reps),
                             "--seed", str(seed), "--workers", str(w.workers)],
    }


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, int], bytes]
    rows: int
    all_pairs: bool  # compare/topcompare over all 780 pairs, bootstrap over 1:k
    bootstrap_reps: int
    workers: int
    why: str


# Sizes are set so that the seven subcommands run about twice in 32 s on a
# 2-core machine; each run of the benchmark then stays near 40 s.
WORKLOADS = {
    "fields-20k": Workload(
        build_fields, 20_000, False, 2000, 1,
        "100 small tied reference sets, no supplied percentiles: parse, grouping, "
        "percentile assignment and the per-institution scan do most of the work"),
    "distinct-15k": Workload(
        build_distinct, 15_000, False, 2000, 1,
        "one large reference set with every count distinct: the percentile layer "
        "without ties, and the quadratic tie summary of the percentiles command"),
    "allpairs-20k": Workload(
        build_allpairs, 20_000, True, 500, 2,
        "supplied percentiles skip assignment: inference over all 780 pairs, "
        "Mann-Whitney and the two-thread bootstrap do most of the work"),
}
