"""CSV ingestion, reference-set grouping and institution selection."""

import io
import math
import random
from pathlib import Path

import pytest

from pct_impact.data import (
    Dataset,
    PublicationRecord,
    ReferenceSetKey,
    RejectedRow,
    _parse_columns,
    _plain_fields,
    filter_years,
    group_reference_sets,
    parse_records,
    select_institution_sample,
)
from pct_impact.errors import (
    ConfigurationError,
    EmptyDatasetError,
    RejectThresholdError,
    UnknownInstitutionError,
)
from row_reference import _parse_rows

HEADER = "id,institution,pub_year,category,citations,inv_percentile\n"


def _dataset(rows):
    ds, rejects = parse_records(HEADER + "".join(rows))
    assert not rejects
    return ds


class TestParse:
    def test_minimal_row(self):
        ds, rejects = parse_records("id,institution,pub_year,category,citations\n"
                                    "p1,inst1,2001,PHYS_CM,12\n")
        assert not rejects
        [r] = ds.records
        assert r.citations == 12 and r.inv_percentile is None
        assert r.categories == ("PHYS_CM",)

    def test_optional_percentile_parsed(self):
        ds = _dataset(["p1,inst1,2001,PHYS_CM,12,34.5\n"])
        assert ds.records[0].inv_percentile == 34.5

    def test_negative_citations_rejected(self):
        ds, rejects = parse_records(
            HEADER + "p1,i,2001,A,-3,\n" + "p2,i,2001,A,4,\n",
            reject_threshold=0.6,
        )
        assert len(rejects) == 1
        assert rejects[0].row == 2 and "citations" in rejects[0].reason
        assert len(ds.records) == 1

    def test_out_of_range_percentile_rejected(self):
        _, rejects = parse_records(
            HEADER + "p1,i,2001,A,1,140\n" + "p2,i,2001,A,1,10\n",
            reject_threshold=0.6,
        )
        assert len(rejects) == 1

    def test_missing_required_column_is_fatal(self):
        with pytest.raises(ConfigurationError):
            parse_records("id,institution,pub_year,citations\np1,i,2001,3\n")

    def test_empty_file_is_fatal(self):
        with pytest.raises(ConfigurationError):
            parse_records("")
        with pytest.raises(EmptyDatasetError):
            parse_records(HEADER)

    def test_reject_threshold_aborts(self):
        rows = "".join(f"p{i},i,2001,A,-1,\n" for i in range(5))
        with pytest.raises(RejectThresholdError):
            parse_records(HEADER + rows + "ok,i,2001,A,1,\n")

    def test_multi_category_pipe_syntax(self):
        ds = _dataset(["p1,i,2001,A|B,5,\n"])
        assert ds.records[0].categories == ("A", "B")

    def test_multi_category_repeated_rows(self):
        ds = _dataset(["p1,i,2001,A,5,\n", "p1,i,2001,B,5,\n"])
        [r] = ds.records
        assert r.categories == ("A", "B")

    def test_conflicting_duplicate_rejected(self):
        ds, rejects = parse_records(
            HEADER + "p1,i,2001,A,5,\n" + "p1,i,2001,B,6,\n" + "p2,i,2001,A,1,\n",
            reject_threshold=0.5,
        )
        assert len(rejects) == 1 and "conflicts" in rejects[0].reason
        assert ds.records[0].categories == ("A",)

    def test_repeated_category_counted_once(self):
        for rows in (["p1,i,2001,A|A,5,\n"], ["p1,i,2001,A,5,\n", "p1,i,2001,A,5,\n"]):
            ds = _dataset(rows + ["p2,i,2001,A,3,\n"])
            [members] = group_reference_sets(ds).values()
            assert [ds.ids[i] for i in members] == ["p1", "p2"]
        ds = _dataset(["p1,i,2001,A,5,\n", "p1,i,2001,B|B,5,\n"])
        assert ds.categories[0] == ("A", "B")

    @pytest.mark.parametrize(
        "row, reason",
        [
            (",i,2001,A,1,", "empty id"),
            ("q,,2001,A,1,", "empty institution"),
            ("q,i,x,A,1,", "invalid literal for int() with base 10: 'x'"),
            ("q,i,2001, | ,1,", "empty category"),
            ("q,i,2001,A,y,", "invalid literal for int() with base 10: 'y'"),
            ("q,i,2001,A,-3,", "citations must be >= 0, got -3"),
            ("q,i,2001,A,9223372036854775808,",
             "citations must be < 2**63, got 9223372036854775808"),
            ("q,i,2001,A,1,abc", "could not convert string to float: 'abc'"),
            ("q,i,2001,A,1,140", "inv_percentile must be in [0, 100], got 140.0"),
            ("p1,i,2001,B,6,", "conflicts with earlier row for id 'p1'"),
            ("q,i,2001", "invalid literal for int() with base 10: ''"),  # short row
            ("q,i, x ,A,1,", "invalid literal for int() with base 10: 'x'"),  # padded
            # faults in several fields: the first rule broken is reported
            (",A\tB,2001,X,1,", "empty id"),
            ("q,A\tB,2001,X,1,140", "inv_percentile must be in [0, 100], got 140.0"),
            ("q,A\tB,2001,X,-1,", "citations must be >= 0, got -1"),
            ("q,A\tB,2001,,1,", "empty category"),
            ("q,,2001,A,-1,", "empty institution"),
            ("q,A,2001, | ,-3,", "empty category"),
        ],
    )
    def test_reject_reasons(self, row, reason):
        ds, rejects = parse_records(
            HEADER + "p1,i,2001,A,5,\n" + row + "\n", reject_threshold=0.6
        )
        assert rejects == [RejectedRow(row=3, reason=reason)]
        assert [r.id for r in ds.records] == ["p1"]

    def test_extra_trailing_fields_ignored(self):
        ds = _dataset(["p1,i,2001,A,5,,extra,more\n"])
        assert ds.records == (PublicationRecord("p1", "i", 2001, ("A",), 5),)

    def test_blank_lines_are_not_rows(self):
        text = HEADER + "p1,i,2001,A,5,\n\n\n\n" + "q,i,2001,A,-3,\n"
        ds, rejects = parse_records(text, reject_threshold=0.6)
        assert rejects == [RejectedRow(row=6, reason="citations must be >= 0, got -3")]
        assert [r.id for r in ds.records] == ["p1"]
        # 1 of 2 rows rejected: the three blank lines do not dilute the share
        with pytest.raises(RejectThresholdError, match="1 of 2 rows"):
            parse_records(text, reject_threshold=0.4)

    def test_quoted_newline_reports_physical_line(self):
        _, rejects = parse_records(
            HEADER + "p1,i,2001,A,5,\n" + 'q,"i\nj",2001,A,-3,\n',
            reject_threshold=0.6,
        )
        assert rejects == [RejectedRow(row=4, reason="citations must be >= 0, got -3")]

    def test_duplicated_header_column_last_wins(self):
        ds, rejects = parse_records(
            "id,institution,pub_year,category,citations,citations\np1,i,2001,A,5,7\n"
        )
        assert not rejects and ds.records[0].citations == 7

    def test_repeated_id_merges_pipe_categories(self):
        ds = _dataset(["p1,i,2001,A|B,5,\n", "p1,i,2001,B|C,5,\n"])
        assert ds.records == (PublicationRecord("p1", "i", 2001, ("A", "B", "C"), 5),)

    def test_several_faults_report_first_conversion(self):
        _, rejects = parse_records(
            HEADER + "p1,i,2001,A,5,\n" + ",i,x,A,1,\n", reject_threshold=0.6
        )
        assert [r.reason for r in rejects] == ["invalid literal for int() with base 10: 'x'"]

    def test_bytes_and_stream_inputs(self):
        text = HEADER + "p1,i,2001,A,2,\n"
        for source in (text.encode("utf-8"), io.BytesIO(text.encode("utf-8")),
                       io.StringIO(text)):
            ds, _ = parse_records(source)
            assert len(ds.records) == 1

    def test_bom_and_padded_header(self):
        text = "\ufeffid, institution ,pub_year,category,citations\np1,i,2001,A,2\n"
        ds, rejects = parse_records(text.encode("utf-8"))
        assert not rejects and ds.records[0].institution == "i"

    def test_supplied_and_absent_percentiles(self):
        text = HEADER + "p1,i,2001,A,2,12.5\np2,i,2001,A,3,\n"
        for parse in (parse_records, _parse_rows):  # column pass, row loop
            ds, _ = parse(text)
            assert ds.inv_percentiles.tolist()[0] == 12.5
            assert math.isnan(ds.inv_percentiles[1])

    def test_leading_marks_read_alike_from_text_and_bytes(self):
        text = "\ufeff\ufeffid,institution,pub_year,category,citations\np1,i,2001,A,2\n"
        assert parse_records(text.encode("utf-8"))[0] == parse_records(text)[0]

    def test_plain_text_takes_the_column_pass(self):
        demo = Path(__file__).parents[1] / "demos" / "data" / "institutions.csv"
        text = demo.read_text(encoding="utf-8")
        merged, conflict, empty = "p0,1,2002,X,0,97.2984\n", "p0,1,2002,X,1,\n", "q,,2002,X,0,\n"
        for plain in (text, text.replace("\n", "\r\n"), text.rstrip("\n"),
                      text + merged, text + conflict, text + empty):
            parsed = _parse_columns(*_plain_fields(plain), None, 0.10)
            assert parsed == _parse_rows(plain)
        for not_plain in (text + "\n", text.replace(",", '",', 1), text + "q,1,2002,X,0,,\n"):
            assert _plain_fields(not_plain) is None

    def test_paper_sized_file(self):
        sizes = {"1": 268, "2": 549, "3": 488}
        rows = []
        k = 0
        for inst, n in sizes.items():
            for _ in range(n):
                rows.append(f"p{k},{inst},2001,A,{k % 7},\n")
                k += 1
        ds = _dataset(rows)
        assert len(ds) == 1305
        assert set(ds.institution_labels) == set(sizes)
        for inst, n in sizes.items():
            assert len(select_institution_sample(ds, inst)) == n

    def test_dataset_invariants(self):
        ds = _dataset(["p1,x,2001,A,1,\n", "p2,y,2003,A,1,\n"])
        assert ds.institution_labels == ("x", "y")
        assert (min(ds.years), max(ds.years)) == (2001, 2003)


class TestSerializeRoundTrip:
    """A messy spelling and the canonical one (fixed column order, one row
    per paper, categories joined with '|') parse to equal datasets."""

    def test_parse_serialize_idempotent(self):
        messy = (
            "institution,id,citations,pub_year,category,inv_percentile\n"
            "i1,p1,5,2001,B,\n"
            "i1,p2,0,2002,A|C,99.5\n"
        )
        canonical = HEADER + "p1,i1,2001,B,5,\n" + "p2,i1,2002,A|C,0,99.5\n"
        assert parse_records(messy) == parse_records(canonical)

    def test_random_round_trips(self):
        rng = random.Random(7)
        messy, canonical = [], []
        for i in range(50):
            cats = rng.sample(["A", "B", "C", "D"], rng.randint(1, 3))
            inst, year = f"inst{rng.randint(1, 3)}", 2000 + rng.randint(0, 3)
            cits = rng.randint(0, 400)
            pct = "" if rng.random() < 0.5 else f"{rng.uniform(0, 100):.4f}"
            canonical.append(f"p{i},{inst},{year},{'|'.join(cats)},{cits},{pct}\n")
            # one row per category, quoted and padded cells, columns reordered
            messy += [f'"{cits}", {cat} ,{pct},"p{i}",{year},{inst}\n' for cat in cats]
        messy_header = "citations,category,inv_percentile,id,pub_year,institution\n"
        assert parse_records(messy_header + "".join(messy)) == parse_records(
            HEADER + "".join(canonical)
        )


class TestFilterYears:
    def test_removes_later_years(self):
        ds = _dataset(["a,i,2001,A,1,\n", "b,i,2002,A,1,\n", "c,i,2003,A,1,\n"])
        kept = filter_years(ds, 2002)
        assert [r.pub_year for r in kept.records] == [2001, 2002]

    def test_empty_result_raises(self):
        ds = _dataset(["a,i,2001,A,1,\n"])
        with pytest.raises(EmptyDatasetError):
            filter_years(ds, 1999)

    def test_identity_when_cutoff_above_all(self):
        ds = _dataset(["a,i,2001,A,1,\n", "b,i,2002,A,1,\n"])
        assert filter_years(ds, 2050) == ds


class TestGroupReferenceSets:
    def test_same_category_year(self):
        ds = _dataset(["a,i,2001,A,1,\n", "b,i,2001,A,2,\n", "c,i,2001,A,3,\n"])
        [(key, rows)] = group_reference_sets(ds).items()
        assert rows.tolist() == [0, 1, 2]
        assert key == ReferenceSetKey("A", 2001)

    def test_two_category_record_in_both_sets(self):
        ds = _dataset(["a,i,2001,A|B,1,\n"])
        sets = group_reference_sets(ds)
        assert list(sets) == [ReferenceSetKey("A", 2001), ReferenceSetKey("B", 2001)]
        assert all(rows.tolist() == [0] for rows in sets.values()) and ds.ids == ("a",)

    def test_partition_matches_brute_force(self):
        rng = random.Random(99)
        rows = [
            f"p{i},i,{2000 + rng.randint(0, 1)},{rng.choice('AB')},{rng.randint(0, 9)},\n"
            for i in range(200)
        ]
        ds = _dataset(rows)
        sets = group_reference_sets(ds)
        assert list(sets) == sorted(sets, key=lambda k: (k.category, k.pub_year))
        # brute-force oracle: group by scanning each paper independently
        expected = {}
        for pid, year, cats in zip(ds.ids, ds.years, ds.categories):
            expected.setdefault((cats[0], year), []).append(pid)
        got = {(k.category, k.pub_year): [ds.ids[i] for i in rows] for k, rows in sets.items()}
        assert got == expected
        # single-category papers: each appears in exactly one set
        counts = {}
        for ids in got.values():
            for rid in ids:
                counts[rid] = counts.get(rid, 0) + 1
        assert all(c == 1 for c in counts.values())
        # the same grouping as the membership arrays
        membership = ds.set_membership
        assert tuple(sets) == membership.keys
        for j, rows in enumerate(sets.values()):
            assert rows.tolist() == membership.rows[membership.set_ids == j].tolist()


class TestSelectInstitution:
    def test_unknown_label_lists_known(self):
        ds = _dataset(["a,x,2001,A,1,\n", "b,y,2001,A,1,\n"])
        with pytest.raises(UnknownInstitutionError) as exc:
            select_institution_sample(ds, "z")
        assert "x" in str(exc.value) and "y" in str(exc.value)

    def test_labels_case_sensitive(self):
        ds = _dataset(["a,X,2001,A,1,\n"])
        with pytest.raises(UnknownInstitutionError):
            select_institution_sample(ds, "x")
        assert len(select_institution_sample(ds, "X")) == 1

    def test_one_pass_grouping_matches_scan(self):
        rng = random.Random(3)
        ds = _dataset([f"p{k},{rng.choice('cab')},2001,A,{k},\n" for k in range(60)])
        samples = ds.institution_rows
        assert list(samples) == ["a", "b", "c"]
        for label, rows in samples.items():
            assert select_institution_sample(ds, label) is rows
            assert rows.tolist() == [
                i for i, inst in enumerate(ds.institution_labels) if inst == label
            ]


class TestRecordInvariants:
    def test_validation(self):
        with pytest.raises(ValueError):
            PublicationRecord("p", "i", 2001, (), 1)
        with pytest.raises(ValueError):
            PublicationRecord("p", "i", 2001, ("A",), -1)
        with pytest.raises(ValueError):
            PublicationRecord("p", "i", 2001, ("A",), 1, inv_percentile=101.0)

    @pytest.mark.parametrize(
        "categories, message",
        [(("A", ""), "empty category"), (("A", "A"), "repeated category")],
    )
    def test_category_names_empty_or_repeated(self, categories, message):
        with pytest.raises(ValueError, match=message):
            PublicationRecord("p", "i", 2001, categories, 1)

    def test_records_hashable_and_immutable(self):
        r = PublicationRecord("p", "i", 2001, ("A",), 1)
        assert hash(r)
        with pytest.raises(AttributeError):
            r.citations = 5
