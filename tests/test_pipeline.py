from __future__ import annotations

import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikilinks.cli import _sort_into
from wikilinks.dump import filter_namespace, read_pages
from wikilinks.pipeline import (
    RAW_LINK_FIELDS,
    RAW_LINK_ID_COLUMNS,
    REDIRECT_FIELDS,
    REDIRECT_ID_COLUMNS,
    extract_all,
    raw_rows_text,
    raw_sort_key,
    read_raw_records,
    read_redirect_events,
    redirect_sort_key,
)
from wikilinks.storage import DatasetWriter, iter_rows, sha256_of
from wikilinks.wikitext import get_profile

from test_dump import BASIC_REV, dump_bytes, page_xml

EN = get_profile("en")


def pages_from(*page_xmls):
    return list(read_pages(io.BytesIO(dump_bytes(*page_xmls))))


def run_extract(tmp_path, pages, strip=False):
    tmp_path.mkdir(parents=True, exist_ok=True)
    raw = tmp_path / "raw.csv.gz"
    redirects = tmp_path / "redirects.csv.gz"
    with DatasetWriter(raw, RAW_LINK_FIELDS) as sink, \
            DatasetWriter(redirects, REDIRECT_FIELDS) as redirect_sink:
        summary = extract_all(
            iter(pages), EN, sink, redirect_sink=redirect_sink, strip_inert_spans=strip,
        )
    return summary, raw, redirects


def redirect_rows(tmp_path, pages):
    _, _, redirects = run_extract(tmp_path, pages)
    return list(iter_rows(redirects, REDIRECT_FIELDS))


class TestExtractAll:
    def test_two_links_two_records(self, tmp_path):
        pages = pages_from(page_xml("P", 1, [dict(BASIC_REV, text="[[A]] [[B]]")]))
        summary, raw, _ = run_extract(tmp_path, pages)
        rows = list(iter_rows(raw, RAW_LINK_FIELDS))
        assert summary.pages == 1
        assert summary.revisions == 1
        assert summary.links == 2
        assert [r[9] for r in rows] == ["A", "B"]

    def test_history_is_cumulative_not_diffed(self, tmp_path):
        revs = [
            {"id": 1, "timestamp": "2016-01-01T00:00:00Z", "text": "[[A]]"},
            {"id": 2, "timestamp": "2016-02-01T00:00:00Z", "text": "[[A]] [[B]]"},
        ]
        pages = pages_from(page_xml("P", 1, revs))
        summary, raw, _ = run_extract(tmp_path, pages)
        # oracle: manual count, 1 + 2 records
        assert summary.links == 3
        assert len(list(iter_rows(raw, RAW_LINK_FIELDS))) == 3

    def test_empty_dump(self, tmp_path):
        summary, raw, redirects = run_extract(tmp_path, [])
        assert (summary.pages, summary.revisions, summary.links, summary.errors) == (0, 0, 0, 0)
        assert list(iter_rows(raw, RAW_LINK_FIELDS)) == []
        assert list(iter_rows(redirects, REDIRECT_FIELDS)) == []

    def test_conservation_links_equal_sum_of_extractions(self, tmp_path, minidump_path):
        from wikilinks.wikitext import extract_links

        with open(minidump_path, "rb") as f:
            pages = list(filter_namespace(read_pages(f), 0))
        expected = sum(len(extract_links(r.wikitext)) for p in pages for r in p.revisions)
        summary, raw, _ = run_extract(tmp_path, pages)
        assert summary.links == expected
        assert len(list(iter_rows(raw, RAW_LINK_FIELDS))) == expected

    def test_record_field_order_and_serialization(self, tmp_path):
        revs = [dict(BASIC_REV, text="pre\n== Sec ==\n[[A#frag|anchor text]]", minor=True)]
        pages = pages_from(page_xml("P", 7, revs))
        _, raw, _ = run_extract(tmp_path, pages)
        (row,) = iter_rows(raw, RAW_LINK_FIELDS)
        assert row == [
            "7", "P", "11", "", "2016-01-01T00:00:00Z", "registered", "U", "9",
            "1", "A", "frag", "anchor text", "Sec", "2", "1",
        ]

    def test_sink_failure_aborts_with_partial_marker(self, tmp_path):
        class FailingWriter(DatasetWriter):
            # Raw rows are written a page at a time; the second page fails.
            def write_text(self, text, rows):
                if self.rows_written >= 1:
                    raise OSError("disk full")
                super().write_text(text, rows)

        pages = pages_from(page_xml("P", 1, [dict(BASIC_REV, text="[[A]] [[B]]")]),
                           page_xml("Q", 2, [dict(BASIC_REV, text="[[C]]")]))
        raw = tmp_path / "raw.csv.gz"
        sink = FailingWriter(raw, RAW_LINK_FIELDS)
        redirect_sink = DatasetWriter(tmp_path / "redirects.csv.gz", REDIRECT_FIELDS)
        with pytest.raises(OSError):
            extract_all(iter(pages), EN, sink, redirect_sink=redirect_sink)
        assert (tmp_path / "raw.csv.gz.partial").exists()

    def test_strip_inert_spans_flag(self, tmp_path):
        text = "[[A]] <!-- [[B]] -->"
        pages = pages_from(page_xml("P", 1, [dict(BASIC_REV, text=text)]))
        summary, _, _ = run_extract(tmp_path, pages, strip=True)
        assert summary.links == 1


# Fields with commas, quotes, carriage returns, line feeds, leading and
# trailing spaces, empty strings and characters of 1 to 4 UTF-8 bytes.
RAW_FIELD = st.text(st.sampled_from(',"\r\n a\xe9\u20ac\U0001d11e') | st.characters(codec="utf-8"),
                    max_size=6)
REVISION_COLUMNS = st.lists(RAW_FIELD, min_size=9, max_size=9)
LINK_COLUMNS = st.lists(st.tuples(*[RAW_FIELD] * 6), max_size=4)


class TestRawRowsText:
    """A revision's raw rows, formatted as one string, are the bytes of a
    row-by-row write of the 15-column rows."""

    @settings(deadline=None, derandomize=True, database=None)
    @given(REVISION_COLUMNS, LINK_COLUMNS)
    def test_equals_row_by_row_csv(self, revision, links):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([*revision, *link] for link in links)
        assert raw_rows_text(revision, links) == expected.getvalue()

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(REVISION_COLUMNS, LINK_COLUMNS), max_size=4))
    def test_page_text_writes_the_bytes_of_row_writes(self, page):
        rows = [(*revision, *link) for revision, links in page for link in links]
        with tempfile.TemporaryDirectory() as directory:
            by_text, by_rows = Path(directory, "text.csv.gz"), Path(directory, "rows.csv.gz")
            with DatasetWriter(by_text, RAW_LINK_FIELDS) as writer:
                writer.write_text("".join(raw_rows_text(*revision) for revision in page),
                                  len(rows))
            with DatasetWriter(by_rows, RAW_LINK_FIELDS) as writer:
                writer.write_rows(rows)
            assert by_text.read_bytes() == by_rows.read_bytes()


class TestRedirectHistory:
    def test_single_redirect_revision(self, tmp_path):
        pages = pages_from(page_xml("P", 1, [dict(BASIC_REV, text="#REDIRECT [[X]]")]))
        (row,) = redirect_rows(tmp_path, pages)
        assert row[4] == "X"
        assert row[1] == "P"

    def test_page_becoming_redirect(self, tmp_path):
        revs = [
            {"id": 1, "timestamp": "2016-01-01T00:00:00Z", "text": "article text"},
            {"id": 2, "timestamp": "2016-02-01T00:00:00Z", "text": "#REDIRECT [[X]]"},
        ]
        rows = redirect_rows(tmp_path, pages_from(page_xml("P", 1, revs)))
        assert [r[4] for r in rows] == ["", "X"]

    def test_never_redirect_page(self, tmp_path):
        revs = [
            {"id": 1, "timestamp": "2016-01-01T00:00:00Z", "text": "a"},
            {"id": 2, "timestamp": "2016-02-01T00:00:00Z", "text": "b"},
        ]
        rows = redirect_rows(tmp_path, pages_from(page_xml("P", 1, revs)))
        assert [r[4] for r in rows] == ["", ""]

    def test_events_ordered_by_timestamp(self, tmp_path):
        revs = [
            {"id": 2, "timestamp": "2016-02-01T00:00:00Z", "text": "b"},
            {"id": 1, "timestamp": "2016-01-01T00:00:00Z", "text": "a"},
            {"id": 4, "timestamp": "2016-03-01T00:00:00Z", "text": "d"},
            {"id": 3, "timestamp": "2016-03-01T00:00:00Z", "text": "c"},
        ]
        rows = redirect_rows(tmp_path, pages_from(page_xml("P", 1, revs)))
        assert [r[2] for r in rows] == ["1", "2", "3", "4"]
        assert rows == sorted(rows, key=redirect_sort_key)

    def test_row_roundtrip(self, tmp_path):
        pages = pages_from(page_xml("P", 1, [dict(BASIC_REV, text="#REDIRECT [[X#Top]]")]))
        (row,) = redirect_rows(tmp_path, pages)
        assert row == ["1", "P", "11", "2016-01-01T00:00:00Z", "X", "Top"]
        assert list(read_redirect_events([tmp_path / "redirects.csv.gz"])) == [row]


class TestSortAndMerge:
    def test_sort_into_orders_by_key(self, tmp_path):
        unsorted = tmp_path / "unsorted.csv.gz"
        path = tmp_path / "raw.csv.gz"
        records = [
            ("2", "B", "20", "", "2016-01-01T00:00:00Z", "registered", "U", "1", "0",
             "L1", "", "", "", "0", "0"),
            ("1", "A", "11", "", "2016-02-01T00:00:00Z", "registered", "U", "1", "0",
             "L2", "", "", "", "0", "0"),
            ("1", "A", "10", "", "2016-01-01T00:00:00Z", "registered", "U", "1", "0",
             "L3", "", "", "", "0", "0"),
        ]
        with DatasetWriter(unsorted, RAW_LINK_FIELDS) as writer:
            writer.write_rows(records)
        _sort_into(unsorted, path, RAW_LINK_FIELDS, RAW_LINK_ID_COLUMNS, raw_sort_key)
        rows = list(iter_rows(path, RAW_LINK_FIELDS))
        assert [r[9] for r in rows] == ["L3", "L2", "L1"]

    def test_merged_read_across_shards(self, tmp_path):
        shard_a = tmp_path / "a.csv.gz"
        shard_b = tmp_path / "b.csv.gz"
        row = lambda pid, rid, ts, link: (
            str(pid), f"T{pid}", str(rid), "", ts, "registered", "U", "1", "0",
            link, "", "", "", "0", "0",
        )
        with DatasetWriter(shard_a, RAW_LINK_FIELDS) as w:
            w.write_rows([row(1, 10, "2016-01-01T00:00:00Z", "a1"),
                          row(3, 30, "2016-01-01T00:00:00Z", "a2")])
        with DatasetWriter(shard_b, RAW_LINK_FIELDS) as w:
            w.write_rows([row(2, 20, "2016-01-01T00:00:00Z", "b1")])
        keys = {(1, 10), (2, 20), (3, 30)}
        merged = [r[9] for r in read_raw_records([shard_b, shard_a], keys)]
        assert merged == ["a1", "b1", "a2"]

    def test_redirect_events_merge(self, tmp_path):
        path = tmp_path / "r.csv.gz"
        with DatasetWriter(path, REDIRECT_FIELDS) as w:
            w.write_rows([
                ("1", "A", "10", "2016-01-01T00:00:00Z", "", ""),
                ("1", "A", "11", "2016-02-01T00:00:00Z", "X", "Top"),
            ])
        events = list(read_redirect_events([path]))
        assert [e[4] for e in events] == ["", "X"]
        assert events[1][5] == "Top"

    def test_deterministic_rerun_checksums(self, tmp_path, minidump_path):
        with open(minidump_path, "rb") as f:
            pages = list(filter_namespace(read_pages(f), 0))
        digests = []
        for name in ("one", "two"):
            summary, raw, redirects = run_extract(tmp_path / name, pages)
            assert summary.ascending
            digests.append((sha256_of(raw), sha256_of(redirects)))
            # Pages in ascending id order come out sorted: sorting is a no-op.
            for path, fields, id_columns, key in (
                (raw, RAW_LINK_FIELDS, RAW_LINK_ID_COLUMNS, raw_sort_key),
                (redirects, REDIRECT_FIELDS, REDIRECT_ID_COLUMNS, redirect_sort_key),
            ):
                resorted = path.with_name("sorted." + path.name)
                _sort_into(path, resorted, fields, id_columns, key)
                assert sha256_of(resorted) == sha256_of(path)
        assert digests[0] == digests[1]
