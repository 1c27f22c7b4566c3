from __future__ import annotations

import bz2
import gzip
import io
import re
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import pytest

from wikilinks.dump import (
    PageIssue,
    filter_namespace,
    open_dump,
    parse_timestamp,
    read_pages,
)
from wikilinks.errors import ConfigurationError, DumpFormatError

HEADER = '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" version="0.10" xml:lang="en">'


def page_xml(title, page_id, revisions, ns=0):
    parts = [f"<page><title>{title}</title><ns>{ns}</ns><id>{page_id}</id>"]
    for rev in revisions:
        parts.append("<revision>")
        for tag in ("id", "parentid", "timestamp"):
            if tag in rev:
                parts.append(f"<{tag}>{rev[tag]}</{tag}>")
        if "ip" in rev:
            parts.append(f"<contributor><ip>{rev['ip']}</ip></contributor>")
        elif "deleted_user" in rev:
            parts.append('<contributor deleted="deleted" />')
        else:
            parts.append(
                f"<contributor><username>{rev.get('user', 'U')}</username>"
                f"<id>{rev.get('user_id', 9)}</id></contributor>"
            )
        if rev.get("minor"):
            parts.append("<minor />")
        if "text" in rev:
            parts.append(f"<text xml:space=\"preserve\">{rev['text']}</text>")
        parts.append("</revision>")
    parts.append("</page>")
    return "".join(parts)


def dump_bytes(*pages) -> bytes:
    return (HEADER + "".join(pages) + "</mediawiki>").encode()


def read_all(xml: bytes, **kwargs):
    return list(read_pages(io.BytesIO(xml), **kwargs))


BASIC_REV = {"id": 11, "timestamp": "2016-01-01T00:00:00Z", "text": "hello [[World]]"}


class TestReadPages:
    def test_single_page_single_revision(self):
        (page,) = read_all(dump_bytes(page_xml("A", 1, [BASIC_REV])))
        assert page.page_id == 1
        assert page.title == "A"
        assert page.namespace == 0
        (rev,) = page.revisions
        assert rev.revision_id == 11
        assert rev.parent_id is None
        assert rev.timestamp == "2016-01-01T00:00:00Z"
        assert rev.wikitext == "hello [[World]]"
        assert rev.user_type == "registered"
        assert rev.user_id == 9
        assert not rev.minor

    def test_out_of_document_order_revisions_are_sorted(self):
        revs = [
            {"id": 12, "timestamp": "2016-02-01T00:00:00Z", "text": "b"},
            {"id": 11, "timestamp": "2016-01-01T00:00:00Z", "text": "a"},
        ]
        (page,) = read_all(dump_bytes(page_xml("A", 1, revs)))
        # oracle: sorted by hand
        assert [r.revision_id for r in page.revisions] == [11, 12]
        assert [r.wikitext for r in page.revisions] == ["a", "b"]

    def test_equal_timestamps_ordered_by_revision_id(self):
        revs = [
            {"id": 12, "timestamp": "2016-01-01T00:00:00Z", "text": "later"},
            {"id": 11, "timestamp": "2016-01-01T00:00:00Z", "text": "earlier"},
        ]
        (page,) = read_all(dump_bytes(page_xml("A", 1, revs)))
        assert [r.revision_id for r in page.revisions] == [11, 12]

    def test_offset_timestamps_become_fixed_width_utc(self):
        revs = [
            {"id": 12, "timestamp": "2016-01-01T01:00:00+01:00", "text": "later"},
            {"id": 11, "timestamp": "2016-01-01T00:00:00Z", "text": "earlier"},
        ]
        (page,) = read_all(dump_bytes(page_xml("A", 1, revs)))
        assert [(r.revision_id, r.timestamp) for r in page.revisions] == [
            (11, "2016-01-01T00:00:00Z"),
            (12, "2016-01-01T00:00:00Z"),
        ]

    @pytest.mark.parametrize("stamp", ["2016-13-01T00:00:00Z", "garbage"])
    def test_unparsable_timestamp_skips_page(self, stamp):
        issues: list[PageIssue] = []
        bad = page_xml("A", 1, [dict(BASIC_REV, timestamp=stamp)])
        pages = read_all(dump_bytes(bad, page_xml("B", 2, [BASIC_REV])), on_issue=issues.append)
        assert [p.title for p in pages] == ["B"]
        assert [i.kind for i in issues] == ["page-skipped"]
        assert "unparsable timestamp" in issues[0].detail

    def test_non_article_namespace_passes_through(self):
        (page,) = read_all(dump_bytes(page_xml("Talk:A", 2, [BASIC_REV], ns=1)))
        assert page.namespace == 1  # filtering is the caller's job

    def test_anonymous_contributor(self):
        rev = dict(BASIC_REV, ip="192.0.2.1")
        del rev["text"]
        rev["text"] = "x"
        (page,) = read_all(dump_bytes(page_xml("A", 1, [rev])))
        assert page.revisions[0].user_type == "anonymous"
        assert page.revisions[0].user_username == "192.0.2.1"
        assert page.revisions[0].user_id is None

    def test_deleted_contributor_treated_as_anonymous(self):
        rev = {"id": 1, "timestamp": "2016-01-01T00:00:00Z", "text": "x", "deleted_user": True}
        (page,) = read_all(dump_bytes(page_xml("A", 1, [rev])))
        assert page.revisions[0].user_type == "anonymous"
        assert page.revisions[0].user_id is None

    def test_minor_flag(self):
        rev = dict(BASIC_REV, minor=True)
        (page,) = read_all(dump_bytes(page_xml("A", 1, [rev])))
        assert page.revisions[0].minor

    def test_missing_text_becomes_empty_with_warning(self):
        rev = {"id": 5, "timestamp": "2016-01-01T00:00:00Z"}
        issues: list[PageIssue] = []
        (page,) = read_all(dump_bytes(page_xml("A", 1, [rev])), on_issue=issues.append)
        assert page.revisions[0].wikitext == ""
        assert [i.kind for i in issues] == ["missing-text"]

    def test_first_child_of_a_repeated_tag_wins(self):
        rev = (
            "<revision><id>5</id><id>6</id>"
            "<timestamp>2016-01-01T00:00:00Z</timestamp><timestamp>2017-01-01T00:00:00Z</timestamp>"
            "<contributor><ip>1.2.3.4</ip></contributor>"
            "<contributor><username>U</username><id>9</id></contributor>"
            "<text>first</text><text>second</text></revision>"
        )
        xml = page_xml("A", 1, []).replace("</page>", rev + "</page>")
        (page,) = read_all(dump_bytes(xml))
        (revision,) = page.revisions
        assert revision.revision_id == 5
        assert revision.timestamp == "2016-01-01T00:00:00Z"
        assert (revision.user_type, revision.user_username) == ("anonymous", "1.2.3.4")
        assert revision.wikitext == "first"

    def test_page_without_title_is_skipped(self):
        bad = "<page><ns>0</ns><id>7</id><revision><id>1</id><timestamp>2016-01-01T00:00:00Z</timestamp><text>x</text></revision></page>"
        issues: list[PageIssue] = []
        pages = read_all(dump_bytes(bad, page_xml("B", 2, [BASIC_REV])), on_issue=issues.append)
        assert [p.title for p in pages] == ["B"]
        assert [i.kind for i in issues] == ["page-skipped"]

    def test_revision_without_timestamp_skips_page(self):
        bad = page_xml("A", 1, [{"id": 5, "text": "x"}])
        issues: list[PageIssue] = []
        pages = read_all(dump_bytes(bad), on_issue=issues.append)
        assert pages == []
        assert issues[0].kind == "page-skipped"
        assert issues[0].page_id == 1

    def test_round_trip_count(self):
        # page elements == yielded pages + skipped-page issues
        good = [page_xml(f"P{i}", 10 + i, [dict(BASIC_REV, id=100 + i)]) for i in range(5)]
        bad = ["<page><ns>0</ns><id>99</id></page>"]
        issues: list[PageIssue] = []
        pages = read_all(dump_bytes(*(good + bad)), on_issue=issues.append)
        skipped = [i for i in issues if i.kind == "page-skipped"]
        assert len(good) + len(bad) == len(pages) + len(skipped)

    def test_malformed_xml_names_byte_offset(self):
        xml = (HEADER + "<page><title>A</title").encode()
        with pytest.raises(DumpFormatError, match="byte"):
            read_all(xml)

    @pytest.mark.parametrize("xml, element, text", [
        (page_xml("A", "7x", [BASIC_REV]), "page id", "7x"),
        (page_xml("A", 1, [BASIC_REV], ns="main"), "namespace", "main"),
        (page_xml("A", 1, [dict(BASIC_REV, id="r5")]), "revision id", "r5"),
        (page_xml("A", 1, [dict(BASIC_REV, parentid="p4")]), "parent id", "p4"),
        (page_xml("A", 1, [dict(BASIC_REV, user_id="u9")]), "contributor id", "u9"),
        # A page without a title is skipped, and its id is still read.
        ("<page><ns>0</ns><id>7x</id></page>", "page id", "7x"),
    ])
    def test_non_integer_id_names_source_and_byte_offset(self, xml, element, text):
        with pytest.raises(DumpFormatError) as caught:
            read_all(dump_bytes(xml), source="d.xml", on_issue=lambda issue: None)
        message = str(caught.value)
        assert message.startswith(f"d.xml: {element} is not an integer near byte ")
        assert message.endswith(f": {text!r}")

    @pytest.mark.parametrize("value", ["9223372036854775808", "-1"])
    @pytest.mark.parametrize("xml, element", [
        (page_xml("A", "{}", [BASIC_REV]), "page id"),
        (page_xml("A", 1, [dict(BASIC_REV, id="{}")]), "revision id"),
        (page_xml("A", 1, [dict(BASIC_REV, parentid="{}")]), "parent id"),
        (page_xml("A", 1, [dict(BASIC_REV, user_id="{}")]), "contributor id"),
    ])
    def test_id_outside_int64_names_source_and_byte_offset(self, xml, element, value):
        # Every later stage holds ids as int64, and writes them as digits.
        with pytest.raises(DumpFormatError) as caught:
            read_all(dump_bytes(xml.format(value)), source="d.xml")
        message = str(caught.value)
        assert message.startswith(f"d.xml: {element} is not in 0 to 2**63 - 1 near byte ")
        assert message.endswith(f": {value!r}")

    def test_int64_max_ids_are_read(self):
        big = 2**63 - 1
        rev = dict(BASIC_REV, id=big, parentid=big, user_id=big)
        (page,) = read_all(dump_bytes(page_xml("A", big, [rev])))
        (revision,) = page.revisions
        assert (page.page_id, revision.revision_id, revision.parent_id, revision.user_id) == (
            big,) * 4

    # XML 1.0 holds no other control character below U+0020.
    @pytest.mark.parametrize("title", ["A&#13;B", "A&#10;B", "A&#9;B", "A&#127;B"])
    def test_a_title_with_a_control_character_is_skipped(self, title):
        issues: list[PageIssue] = []
        pages = read_all(dump_bytes(page_xml(title, 1, [BASIC_REV]),
                                    page_xml(" B&#10;", 2, [dict(BASIC_REV, id=21)])),
                         on_issue=issues.append)
        # Surrounding whitespace is stripped first, as ever.
        assert [p.title for p in pages] == ["B"]
        (issue,) = issues
        assert (issue.kind, issue.page_id) == ("page-skipped", 1)
        assert issue.detail.endswith("holds a control character")

    def test_a_title_past_255_bytes_is_skipped(self):
        # 255 UTF-8 bytes is MediaWiki's limit, its namespace prefix left out.
        issues: list[PageIssue] = []
        pages = read_all(dump_bytes(page_xml("é" * 128, 1, [BASIC_REV]),
                                    page_xml("é" * 127 + "a", 2, [dict(BASIC_REV, id=21)]),
                                    page_xml("Talk:" + "a" * 255, 3, [dict(BASIC_REV, id=31)],
                                             ns=1)),
                         on_issue=issues.append)
        assert [p.page_id for p in pages] == [2, 3]
        (issue,) = issues
        assert (issue.kind, issue.page_id, issue.detail) == (
            "page-skipped", 1, "title of 256 UTF-8 bytes, past 255")

    def test_line_endings_become_line_feeds(self):
        # XML parsing makes a literal "\r\n" or "\r" a "\n"; a "&#13;" is
        # made one here, as MediaWiki does on save.
        rev = dict(BASIC_REV, text="a&#13;&#10;b&#13;c\r\nd\re", user="U&#13;&#10;V")
        anonymous = dict(BASIC_REV, id=12, text="x&#13;", ip="1.2.3.4&#13;5")
        (page,) = read_all(dump_bytes(page_xml("A", 1, [rev, anonymous])))
        assert [(r.wikitext, r.user_username) for r in page.revisions] == [
            ("a\nb\nc\nd\ne", "U\nV"), ("x\n", "1.2.3.4\n5")]

    def test_no_namespace_prefix_tolerated(self):
        plain = "<mediawiki>" + page_xml("A", 1, [BASIC_REV]) + "</mediawiki>"
        (page,) = read_all(plain.encode())
        assert page.title == "A"


SEVENZIP_MAGIC = b"7z\xbc\xaf\x27\x1c"
# Prints a file from its 7th byte on: what 7z prints for a "7z" file whose
# magic is followed by plain XML.
SKIP_MAGIC = ("tail", "-c", "+7")


class TestOpenDump:
    @pytest.fixture()
    def xml(self) -> bytes:
        return dump_bytes(
            page_xml("A", 1, [BASIC_REV]),
            page_xml("B", 2, [dict(BASIC_REV, id=21)]),
        )

    @pytest.fixture()
    def sevenzip_path(self, xml, tmp_path) -> Path:
        path = tmp_path / "dump.xml"
        path.write_bytes(SEVENZIP_MAGIC + xml)
        return path

    @pytest.mark.parametrize("codec, name", [
        ("plain", "dump.xml"),
        ("plain", "dump.xml.gz"),
        ("gzip", "dump.xml.gz"),
        ("gzip", "dump.bin"),
        ("bzip2", "dump.xml.bz2"),
        ("bzip2", "dump.xml"),
    ])
    def test_codec_is_read_from_the_first_bytes(self, xml, tmp_path, codec, name):
        compress = {"plain": bytes, "gzip": gzip.compress, "bzip2": bz2.compress}[codec]
        path = tmp_path / name
        path.write_bytes(compress(xml))
        pages = list(open_dump(path))
        assert pages == read_all(xml)
        assert [p.title for p in pages] == ["A", "B"]

    @pytest.mark.parametrize("data, fault", [
        (b"", "malformed XML"),
        (b"\x1f", "malformed XML"),
        (b"\x1f\x8b", "cannot decompress"),
        (b"BZh", "cannot decompress"),
        (SEVENZIP_MAGIC[:5], "malformed XML"),
    ])
    def test_dump_cut_short_is_a_dump_format_error(self, tmp_path, data, fault):
        path = tmp_path / "dump.xml"
        path.write_bytes(data)
        with pytest.raises(DumpFormatError, match=f"^{re.escape(str(path))}: {fault}"):
            list(open_dump(path))

    def test_7z_external_via_tail(self, sevenzip_path):
        pages = open_dump(sevenzip_path, sevenzip_command=SKIP_MAGIC)
        assert [p.title for p in pages] == ["A", "B"]

    def test_7z_external_failure_raises(self, sevenzip_path):
        with pytest.raises(DumpFormatError, match="exited"):
            list(open_dump(sevenzip_path, sevenzip_command=("false",)))

    def test_missing_7z_binary_is_configuration_error(self, sevenzip_path):
        with pytest.raises(ConfigurationError, match="decompressor"):
            list(open_dump(sevenzip_path, sevenzip_command=("/no/such/bin",)))


class TestStreaming:
    def test_memory_bounded_by_page_not_file(self, tmp_path):
        # 40 pages x 3 revisions x 256 KiB of text: ~30 MiB of XML, parsed
        # with peak traced allocations under 8 MiB.
        path = tmp_path / "big.xml"
        filler = "lorem ipsum [[dolor]] " * 12000  # ~256 KiB
        with open(path, "w", encoding="utf-8") as f:
            f.write(HEADER)
            for i in range(40):
                revs = [
                    {"id": i * 10 + j, "timestamp": f"2016-01-0{j + 1}T00:00:00Z", "text": filler}
                    for j in range(3)
                ]
                f.write(page_xml(f"P{i}", i + 1, revs))
            f.write("</mediawiki>")
        assert path.stat().st_size > 25 * (1 << 20)

        ceiling = 8 * (1 << 20)
        tracemalloc.start()
        count = 0
        for page in open_dump(path):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 40
        assert peak < ceiling, f"peak {peak} exceeded ceiling {ceiling}"


class TestFilterNamespace:
    def test_filters(self):
        pages = read_all(dump_bytes(
            page_xml("A", 1, [BASIC_REV]),
            page_xml("B", 2, [dict(BASIC_REV, id=21)]),
            page_xml("Talk:A", 3, [dict(BASIC_REV, id=31)], ns=1),
            page_xml("Category:C", 4, [dict(BASIC_REV, id=41)], ns=14),
        ))
        assert [p.title for p in filter_namespace(pages, 0)] == ["A", "B"]

    def test_empty_stream(self):
        assert list(filter_namespace([], 0)) == []

    def test_all_matching_unchanged(self):
        pages = read_all(dump_bytes(page_xml("A", 1, [BASIC_REV])))
        assert list(filter_namespace(pages, 0)) == pages


class TestParseTimestamp:
    def test_dump_format(self):
        assert parse_timestamp("2001-01-15T19:27:13Z") == datetime(
            2001, 1, 15, 19, 27, 13, tzinfo=timezone.utc
        )

    def test_offset_format_normalized_to_utc(self):
        assert parse_timestamp("2001-01-15T20:27:13+01:00") == datetime(
            2001, 1, 15, 19, 27, 13, tzinfo=timezone.utc
        )
