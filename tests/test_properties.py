"""Property-based invariants for the statistical core and CSV ingestion."""

import csv
import io
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pct_impact import cli
from pct_impact.data import (
    Dataset,
    PublicationRecord,
    _plain_fields,
    group_reference_sets,
    parse_records,
)

from pct_impact.effects import (
    SummaryStats,
    cohens_h_one,
    one_sample_t,
    summarize,
    two_sample_pooled_t,
    two_sample_prop_z,
)
from pct_impact.errors import CitationImpactError
from pct_impact.percentiles import (
    FractionalTopShare,
    PercentileAssignment,
    PercentileFormula,
    PercentileScheme,
    assign_best_percentiles,
    fractional_top_share,
    percentile_rank,
)
from pct_impact.resampling import mann_whitney
from row_reference import _parse_rows

citation_lists = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60)
schemes = st.builds(
    PercentileScheme,
    formula=st.sampled_from(list(PercentileFormula)),
    inverted=st.booleans(),
    zero_rank_adjust=st.booleans(),
)
sample_values = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=2, max_size=40
)


@given(citation_lists, schemes)
def test_percentiles_in_range_and_tied_equal(cits, scheme):
    out = percentile_rank(cits, scheme)
    by_value = {}
    for c, a in zip(cits, out):
        assert 0.0 <= a.percentile <= 100.0
        assert 1 <= a.rank <= len(cits)
        by_value.setdefault(c, set()).add((a.percentile, a.top_x_weight))
    for combos in by_value.values():
        assert len(combos) == 1


@given(citation_lists, schemes)
def test_more_citations_never_worse(cits, scheme):
    out = percentile_rank(cits, scheme)
    pairs = sorted(zip(cits, [a.percentile for a in out]))
    for (c1, p1), (c2, p2) in zip(pairs, pairs[1:]):
        if c1 < c2:
            if scheme.inverted:
                assert p2 <= p1
            else:
                assert p2 >= p1


@given(citation_lists, st.floats(min_value=0.5, max_value=99.5))
def test_fractional_weights_sum_to_slots(cits, x):
    fts = fractional_top_share(cits, x)
    n = len(cits)
    assert sum(fts.weights, Fraction(0)) == Fraction(n) * Fraction(x) / 100
    assert all(0 <= w <= 1 for w in fts.weights)


@given(sample_values, st.floats(min_value=0.0, max_value=100.0))
def test_one_sample_identity_and_duality(values, mu0):
    s = summarize(values)
    assume(s.sd and s.sd > 1e-9)
    r = one_sample_t(s, mu0)
    # d == t / sqrt(n)
    assert math.isclose(r.effect_d, r.statistic_t / math.sqrt(s.n), rel_tol=1e-10)
    # mu0 inside the 95% CI exactly when p >= .05
    inside = r.ci_low <= mu0 <= r.ci_high
    assert inside == (r.p_two_tailed >= 0.05) or math.isclose(r.p_two_tailed, 0.05, abs_tol=1e-12)
    assert 0.0 <= r.p_two_tailed <= 1.0
    assert math.isfinite(r.ci_low) and math.isfinite(r.ci_high)


@given(sample_values, st.floats(min_value=0.1, max_value=90.0),
       st.floats(min_value=0.01, max_value=50.0))
def test_scale_equivariance(values, mu0, c):
    s = summarize(values)
    assume(s.sd and s.sd > 1e-6)
    base = one_sample_t(s, mu0)
    scaled = one_sample_t(summarize([v * c for v in values]), mu0 * c)
    assert math.isclose(base.statistic_t, scaled.statistic_t, rel_tol=1e-7, abs_tol=1e-9)
    assert math.isclose(base.effect_d, scaled.effect_d, rel_tol=1e-7, abs_tol=1e-9)
    assert math.isclose(base.p_two_tailed, scaled.p_two_tailed, rel_tol=1e-6, abs_tol=1e-12)


@given(sample_values, sample_values)
def test_two_sample_sign_symmetry(a, b):
    sa, sb = summarize(a), summarize(b)
    assume((sa.sd or 0) > 1e-9 or (sb.sd or 0) > 1e-9)
    fwd = two_sample_pooled_t(sa, sb)
    rev = two_sample_pooled_t(sb, sa)
    assert math.isclose(fwd.statistic_t, -rev.statistic_t, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(fwd.effect_d, -rev.effect_d, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(fwd.ci_low, -rev.ci_high, rel_tol=1e-9, abs_tol=1e-9)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_h_antisymmetry(p, q):
    assert math.isclose(cohens_h_one(p, q), -cohens_h_one(q, p), rel_tol=1e-12, abs_tol=1e-12)


@given(st.integers(0, 50), st.integers(0, 50), st.integers(1, 50), st.integers(1, 50))
def test_two_sample_prop_sign_symmetry(c1, c2, extra1, extra2):
    n1, n2 = c1 + extra1, c2 + extra2
    assume(0 < c1 + c2 < n1 + n2)
    fwd = two_sample_prop_z(c1, n1, c2, n2)
    rev = two_sample_prop_z(c2, n2, c1, n1)
    assert math.isclose(fwd.statistic_z, -rev.statistic_z, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(fwd.effect_h, -rev.effect_h, rel_tol=1e-9, abs_tol=1e-12)


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                min_size=2, max_size=25),
       st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                min_size=2, max_size=25))
@settings(max_examples=50)
def test_mann_whitney_swap_flips_z(a, b):
    assume(len(set(a) | set(b)) > 1)
    fwd = mann_whitney(a, b)
    rev = mann_whitney(b, a)
    assert math.isclose(fwd.z_approx, -rev.z_approx, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(fwd.p_two_tailed, rev.p_two_tailed, rel_tol=1e-9, abs_tol=1e-12)


papers = st.lists(
    st.tuples(
        st.sampled_from(["I", "J"]),
        st.sampled_from([2001, 2002, 2003]),
        st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=3, unique=True),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=1,
    max_size=40,
)


def _brute_force_best(records, scheme, x):
    """Per paper id: (set label, rank, percentile, tie size, Fraction weight),
    ranking by counting and keeping the first set on equal percentiles."""
    sets = {}
    for r in records:
        for cat in r.categories:
            sets.setdefault((cat, r.pub_year), []).append(r)
    best = {}
    for cat, year in sorted(sets):
        cits = [m.citations for m in sets[cat, year]]
        n = len(cits)
        slots = Fraction(n) * Fraction(x) / 100
        threshold = sorted(cits, reverse=True)[math.ceil(slots) - 1]
        above = sum(1 for c in cits if c > threshold)
        w_tie = min(max((slots - above) / cits.count(threshold), Fraction(0)), Fraction(1))
        for m in sets[cat, year]:
            c = m.citations
            if scheme.inverted:
                rank = sum(1 for v in cits if v >= c)
            else:
                rank = sum(1 for v in cits if v <= c)
            if scheme.formula is PercentileFormula.COMMON:
                pct = 100.0 * (rank - 1) / n
            else:
                pct = 100.0 * rank / n
            if scheme.zero_rank_adjust and c == 0:
                pct = scheme.worst_value()
            weight = Fraction(1) if c > threshold else w_tie if c == threshold else Fraction(0)
            prev = best.get(m.id)
            if prev is None or (pct < prev[2] if scheme.inverted else pct > prev[2]):
                best[m.id] = (f"{cat}:{year}", rank, pct, cits.count(c), weight)
    return best


@given(papers, schemes, st.sampled_from([1.0, 10.0, 33.3, 50.0, 99.0]))
@settings(max_examples=200)
def test_best_percentiles_match_brute_force(rows, scheme, x):
    records = [
        PublicationRecord(f"p{k}", inst, year, tuple(cats), cits)
        for k, (inst, year, cats, cits) in enumerate(rows)
    ]
    dataset = Dataset(
        ids=tuple(r.id for r in records),
        institution_labels=tuple(r.institution for r in records),
        years=tuple(r.pub_year for r in records),
        categories=tuple(r.categories for r in records),
        citations=np.array([r.citations for r in records], dtype=np.int64),
        inv_percentiles=np.full(len(records), np.nan),
    )
    got = assign_best_percentiles(dataset, scheme, x)
    want = _brute_force_best(records, scheme, x)
    for k, r in enumerate(records):
        label, rank, pct, tied, weight = want[r.id]
        assert got.set_labels[got.best_set[k]] == label
        assert (int(got.rank[k]), float(got.percentile[k]), int(got.tied_with[k])) == (
            rank, pct, tied
        )
        assert float(got.top_x_weight[k]) == float(weight)
    for members in group_reference_sets(dataset).values():
        n = len(members)
        weights = [a.top_x_weight for a in percentile_rank(
            dataset.citations[members].tolist(), scheme, x=x)]
        assert abs(math.fsum(weights) - n * x / 100) <= 1e-9


@pytest.fixture
def constructed(monkeypatch):
    """Counts the objects of the per-record API built while the test runs."""
    counts = Counter()
    for cls in (PublicationRecord, PercentileAssignment, FractionalTopShare):
        def counting_new(new_cls, *args, _new=cls.__new__, **kwargs):
            counts[new_cls.__name__] += 1
            return _new(new_cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counting_new)
    return counts


def test_cli_builds_no_per_record_objects(tmp_path, constructed):
    lines = ["id,institution,pub_year,category,citations\n"]
    for k in range(60):
        cats = "A|B" if k % 5 == 0 else "AB"[k % 2]
        lines.append(f"p{k},{'XYZ'[k % 3]},{2001 + k % 2},{cats},{(k * 7) % 11}\n")
    path = tmp_path / "in.csv"
    path.write_text("".join(lines), encoding="utf-8")
    common = ["--input", str(path), "--out-dir", str(tmp_path / "out"),
              "--scheme", "incites", "--inverted", "--zero-adjust"]
    for argv in (
        ["percentiles"], ["summary"], ["compare", "--pairs", "X:Y", "--mann-whitney"],
        ["topshare", "--counting", "fractional"], ["topcompare", "--pairs", "X:Z"],
        ["robustness"],
        ["bootstrap", "--statistic", "prop-diff", "--pairs", "X:Y", "--bootstrap-reps", "20"],
    ):
        assert cli.main(argv + common) == 0
    assert constructed == Counter()


# Cells a valid row may hold, per column ("id" cells of an ignored duplicate
# id column only), and the faults one cell may carry instead.
VALID_CELLS = {
    "id": ["q", "p0", ""],
    "institution": ["A", "B", " A ", "\u00e9cole"],
    "pub_year": ["2001", "2002", " 2002", "2_001"],
    "category": ["C", "D", "C|D", " C |D", "A|A"],
    "citations": ["0", "3", " 7", str(2**63 - 1)],
    "inv_percentile": ["10", "", "50.5", "-0", "100", " 12 ", "1e1"],
    "note": ["", "x", "a b", "\u2028", "\x85", "\x0c"],
}
FAULT_CELLS = {
    "id": ["", " ", "p0", '"p1"', " p0"],
    "institution": ["", '"A"', '"A,B"', "\x00", "A\tB", '"A\nB"'],
    "pub_year": ["x", "", "1.5", "\u0662\u0660"],
    "category": ["", " | ", "|", '"C\nD"', '"C""D"'],
    "citations": ["-1", "x", "", str(2**63), "1.0", "9" * 5000],
    "inv_percentile": ["nan", "NaN", " nan ", "inf", "-inf", "100.01", "-1", "abc", '"5"'],
    "note": ['"', "a\rb", "a\r", '"a\r\nb"'],
}
TEXT_FAULTS = [
    "cell", "cell", "cell", "quoted", "lone_cr", "merge", "conflict",  # within cells
    "short_row", "long_row", "moved_field", "split_row",  # row shape
    "blank_line", "cr_line_end", "crlf", "no_final_newline", "extra_newline",  # lines
    "bom", "padded_header", "duplicate_header", "field_at_limit", "field_over_limit",
]
# the faults that can leave a text plain: what the column pass reads
PLAIN_FAULTS = [
    "cell", "cell", "cell", "merge", "conflict", "crlf", "no_final_newline",
    "bom", "padded_header", "duplicate_header", "field_at_limit", "field_over_limit",
]
LIMIT = csv.field_size_limit()


@st.composite
def csv_texts(draw, plain=None):
    """CSV text in the input contract: a plain, valid file, or one with
    up to three faults of TEXT_FAULTS (a fault may leave it plain and valid);
    or, when plain is true, up to four faults of PLAIN_FAULTS, with no cell
    fault that makes the text not plain."""
    plain = draw(st.booleans()) if plain is None else plain
    faults = draw(st.lists(st.sampled_from(PLAIN_FAULTS if plain else TEXT_FAULTS),
                           max_size=4 if plain else 3))
    names = ["id", "institution", "pub_year", "category", "citations"]
    if draw(st.booleans()):
        names.append("inv_percentile")
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), "note")
    if "duplicate_header" in faults:
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    read = {name: i for i, name in enumerate(names)}  # the last column of a name
    rows = []
    for k in range(draw(st.integers(1 if plain else 0, 8 if plain else 5))):
        row = [draw(st.sampled_from(VALID_CELLS[name])) for name in names]
        row[read["id"]] = f"p{k}"
        rows.append(row)
    if rows:
        pick_row = st.integers(0, len(rows) - 1)
        for fault in faults:  # faults within cells, then faults of row shape
            r, c = draw(pick_row), draw(st.integers(0, len(names) - 1))
            if fault == "cell":
                cells = FAULT_CELLS[names[c]]
                if plain:
                    cells = [cell for cell in cells if not set('"\r\n\0') & set(cell)]
                rows[r][c] = draw(st.sampled_from(cells or VALID_CELLS[names[c]]))
            elif fault == "quoted":
                rows[r][c] = f'"{rows[r][c]}"'
            elif fault == "lone_cr":
                rows[r][c] += draw(st.sampled_from(["\r", "\rx"]))
            elif fault in ("merge", "conflict"):
                copy = list(rows[r])
                changed = "category" if fault == "merge" else draw(st.sampled_from(
                    [name for name in names if name not in ("id", "category", "note")]))
                copy[read[changed]] = draw(st.sampled_from(VALID_CELLS[changed]))
                rows.insert(draw(st.integers(r + 1, len(rows))), copy)
        for fault in faults:
            r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(names) - 1))
            if fault == "short_row":
                rows[r] = rows[r][:c]
            elif fault == "long_row":
                rows[r] = rows[r] + ["extra"]
            elif fault == "moved_field" and r + 1 < len(rows):
                rows[r + 1] = rows[r][-1:] + rows[r + 1]
                rows[r] = rows[r][:-1]
            elif fault == "split_row":  # a line break in place of one field
                rows[r:r + 1] = [rows[r][:c], rows[r][c + 1:]]
    for fault in faults:
        if fault in ("field_at_limit", "field_over_limit"):
            line = draw(st.sampled_from([names, *rows]))  # the header too
            k = draw(st.integers(0, len(line) - 1))
            line[k] = "x" * (LIMIT if fault == "field_at_limit" else LIMIT + 1)
    if "padded_header" in faults:
        k = draw(st.integers(0, len(names) - 1))
        names[k] = f" {names[k]}  "
    lines = [",".join(names)] + [",".join(row) for row in rows]
    if "blank_line" in faults:
        lines.insert(draw(st.integers(0, len(lines))), "")
    ends = ["\r\n" if "crlf" in faults else "\n"] * len(lines)
    if "cr_line_end" in faults:
        ends[draw(st.integers(0, len(ends) - 1))] = "\r"
    if "no_final_newline" in faults:
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    if "extra_newline" in faults:
        text += "\n"
    return ("\ufeff" if "bom" in faults else "") + text


def _parsed(parse, source, reject_threshold):
    try:
        dataset, rejects = parse(source, reject_threshold)
    except CitationImpactError as exc:
        return type(exc), str(exc)
    return (
        dataset.ids, dataset.institution_labels, dataset.years, dataset.categories,
        dataset.citations.dtype, dataset.citations.tolist(),
        dataset.inv_percentiles.dtype, dataset.inv_percentiles.tobytes(), rejects,
    )


# plain texts whose faults a column pass could miss: a literal nan
# percentile, a field over the csv limit in a row or in the header, a field
# moved to the next line, a line break in place of a field, an empty id, and
# repeated ids merged and in conflict before rows that break a rule
_NAN_PERCENTILE = (
    "id,institution,pub_year,category,citations,inv_percentile\n"
    "p0,A,2001,C,3,nan\np1,A,2001,C,0,10\n"
)
_LONG_FIELD = (
    "id,institution,pub_year,category,citations\n"
    "p0," + "x" * (LIMIT + 1) + ",2001,C,3\n"
)
_LONG_HEADER = (
    "id,institution,pub_year,category,citations," + "x" * (LIMIT + 1) + "\n"
    "p0,A,2001,C,3,y\n"
)
_MOVED_FIELD = (
    "id,institution,pub_year,category,citations,note\n"
    "p0,A,2001,C,3\nx,p1,A,2001,C,3,y\n"
)
_SPLIT_ROW = (
    "id,note,institution,pub_year,category,citations\n"
    "p0,x,A,2001,C,3\np1\nA,2001,C,3\n"
)
_EMPTY_ID = (
    "id,institution,pub_year,category,citations\n"
    "p0,A,2001,C,3\n ,A,2001,C,3\n"
)
_REPEATED_IDS = (
    "id,institution,pub_year,category,citations,inv_percentile\n"
    "p0,A,2001,C,3,10\np1,A,2001,C,3,\np0,A,2001,D,3,10\np0,A,2001,C,3,11\n"
    "p1,,2001,C,3,\np2,A,2001,C,-1,\np3,A,2001,C,3,-1\n"
)


@given(csv_texts(), st.sampled_from([0.1, 1.0]))
@example(_NAN_PERCENTILE, 0.1)
@example(_NAN_PERCENTILE, 1.0)
@example(_LONG_FIELD, 1.0)
@example(_LONG_HEADER, 1.0)
@example(_MOVED_FIELD, 1.0)
@example(_SPLIT_ROW, 1.0)
@example(_EMPTY_ID, 1.0)
@example(_REPEATED_IDS, 1.0)
@settings(max_examples=400, deadline=None)
def test_parse_matches_row_loop(text, threshold):
    """The column pass and the row loop give the same dataset, NaN positions
    and rejects included, or the same error."""
    want = _parsed(_parse_rows, text.removeprefix("\ufeff"), threshold)
    assert _parsed(parse_records, text, threshold) == want
    assert _parsed(parse_records, text.encode("utf-8"), threshold) == want
    plain = _plain_fields(text.removeprefix("\ufeff")) is not None
    outcome = want[0].__name__ if len(want) == 2 else f"rejects: {bool(want[-1])}"
    event(f"plain: {plain}, {outcome}")


def _quote_all(text):
    """Plain CSV text with every field quoted by csv.writer; each line keeps
    its line end, and the text its byte-order mark."""
    bom = "\ufeff" if text.startswith("\ufeff") else ""
    parts = re.split(r"(\r?\n)", text.removeprefix(bom))  # lines and line ends
    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="")
    for line, end in zip(parts[::2], parts[1::2] + [""]):
        if line:
            writer.writerow(line.split(","))
        out.write(end)
    return bom + out.getvalue()


@given(csv_texts(plain=True), st.sampled_from([0.1, 1.0]))
@example(_NAN_PERCENTILE, 1.0)
@example(_LONG_FIELD, 1.0)
@example(_EMPTY_ID, 1.0)
@example(_REPEATED_IDS, 1.0)
@settings(max_examples=200, deadline=None)
def test_plain_and_quoted_spellings_parse_alike(text, threshold):
    """A plain text and its fully quoted spelling give the same dataset and
    the same rejects on the same lines, or the same error: quoting adds no
    lines."""
    assume(_plain_fields(text.removeprefix("\ufeff")) is not None)
    quoted = _quote_all(text)
    assert _plain_fields(quoted.removeprefix("\ufeff")) is None
    want = _parsed(parse_records, text, threshold)
    assert _parsed(parse_records, quoted, threshold) == want
    event(want[0].__name__ if len(want) == 2 else f"rejects: {bool(want[-1])}")
