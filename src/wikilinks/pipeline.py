"""Drive link extraction over every revision of every article.

Produces the two per-revision datasets the later stages build on:

* raw link records: one row per wikilink occurrence per revision, carrying
  the full revision metadata (15 columns);
* redirect history: one row per revision stating whether that revision's
  wikitext is a redirect and to where, which doubles as the complete
  revision index needed for snapshot selection.

One call handles one dump shard in one process; ``extract --jobs N``
parallelises across dump files, not within one. Each page's rows come out
in sort-key order, so when pages arrive in ascending id order the output is
already sorted; otherwise the caller sorts it (see ``RunSummary.ascending``).

Raw link rows cost Python work per revision, not per link, both ways.
Extract formats a revision's nine shared columns once and joins that
prefix to each link's six, formatted by one ``csv.writer`` call per
revision, and writes a page's rows as one string; csv quotes each field on
its own, so the bytes are those of a row-by-row write. Snapshot reads the
raw shards in blocks that :func:`storage.read_batches` checks, splits each
block into runs of rows that share page id, title and revision id with one
regular expression match per run, and hands csv only the runs of the
revisions it selected (see :func:`read_raw_records`).
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from heapq import merge as heap_merge
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

from .dump import PageHistory
from .storage import CsvLines, DatasetWriter, iter_rows, read_batches
from .wikitext import LanguageProfile, blank_inert_spans, detect_redirect, extract_links

RAW_LINK_FIELDS = (
    "page_id",
    "page_title",
    "revision_id",
    "revision_parent_id",
    "revision_timestamp",
    "user_type",
    "user_username",
    "user_id",
    "revision_minor",
    "link",
    "tosection",
    "anchor",
    "section_name",
    "section_level",
    "section_number",
)
RAW_LINK_ID_COLUMNS = (0, 2)  # parsed with int(); storage.iter_rows checks them

REDIRECT_FIELDS = (
    "page_id",
    "page_title",
    "revision_id",
    "revision_timestamp",
    "target",
    "tosection",
)
REDIRECT_ID_COLUMNS = (0, 2)

# Raw shards are read in blocks of about this many bytes.
_BLOCK_BYTES = 1 << 18
# One revision's run of rows, in a block that storage.rows_pattern accepted:
# the rows that start with the same page id, title and revision id bytes.
# Groups 2 and 3 are the ids. A validated block has no "\n" inside a field,
# so the rest of each row is all up to its "\n".
_RUN = re.compile(rb'(([0-9]+),(?:"(?:[^"]|"")*"|[^,"]*),([0-9]+),)[^\n]*\n(?:\1[^\n]*\n)*')


class RunSummary:
    """What extract read and wrote, for one dump or summed over several."""

    __slots__ = ("pages", "revisions", "links", "errors", "diagnostics", "ascending")

    def __init__(self) -> None:
        self.pages = self.revisions = self.links = self.errors = 0
        self.diagnostics: Counter = Counter()
        # Every page id was greater than the one before, so the rows were
        # written in (page_id, timestamp, revision_id) order.
        self.ascending = True

    def merge(self, other: "RunSummary") -> None:
        self.pages += other.pages
        self.revisions += other.revisions
        self.links += other.links
        self.errors += other.errors
        self.diagnostics.update(other.diagnostics)
        self.ascending = self.ascending and other.ascending


def raw_rows_text(revision: Sequence[str], links: Sequence[Sequence[str]]) -> str:
    """The raw link rows of one revision, as one string: each of ``links``
    (six columns) after the revision's nine columns, in the bytes
    :meth:`DatasetWriter.write_row` writes for the whole 15-column row.

    The nine columns are formatted once, in the writers' dialect, and their
    final "\\n" swapped for ","; csv quotes each field on its own, so that
    prefix starts every row of the revision.
    """
    if not links:
        return ""
    lines = CsvLines()
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerow(revision)
    prefix = lines.pop()[:-1] + ","
    writer.writerows(links)
    return prefix + prefix.join(lines)


def _page_rows(
    page: PageHistory, profile: LanguageProfile, strip_inert_spans: bool,
    diagnostics: Counter,
) -> tuple[str, int, list[tuple[str, ...]]]:
    """The raw link rows of one page as one string, their number, and the
    page's redirect rows, in sort-key order.

    The dump reader already orders revisions by (timestamp, revision id),
    the key :func:`raw_sort_key` and :func:`redirect_sort_key` use; each
    revision's links stay in document order.
    """
    raw_text: list[str] = []
    links = 0
    redirect_rows: list[tuple[str, ...]] = []
    page_id = str(page.page_id)
    title = page.title
    for rev in page.revisions:
        # Blank once so link extraction and redirect detection see the same text.
        text = blank_inert_spans(rev.wikitext) if strip_inert_spans else rev.wikitext
        revision_id = str(rev.revision_id)
        revision_links = extract_links(text)
        # The nine revision columns of RAW_LINK_FIELDS, shared by every link.
        raw_text.append(raw_rows_text((
            page_id,
            title,
            revision_id,
            "" if rev.parent_id is None else str(rev.parent_id),
            rev.timestamp,
            rev.user_type,
            rev.user_username,
            "" if rev.user_id is None else str(rev.user_id),
            "1" if rev.minor else "0",
        ), revision_links))
        links += len(revision_links)
        redirect = detect_redirect(text, profile, diagnostics) or ("", "")
        redirect_rows.append((page_id, title, revision_id, rev.timestamp, *redirect))
    return "".join(raw_text), links, redirect_rows


def extract_all(
    pages: Iterable[PageHistory],
    profile: LanguageProfile,
    sink: DatasetWriter,
    *,
    redirect_sink: DatasetWriter,
    strip_inert_spans: bool = False,
) -> RunSummary:
    """Write one raw link row per link per revision of every page in ``pages``.

    ``pages`` must already be filtered to the namespace of interest. The
    per-revision redirect history goes to ``redirect_sink`` in the same
    pass. Pages are written in input order, each page's rows in
    sort-key order; ``summary.ascending`` tells whether that made the whole
    output sorted. If a sink write fails, both writers are aborted, their
    rows left in ``.partial`` files, and the error propagates.
    """
    summary = RunSummary()
    last_page_id = None
    for page in pages:
        raw_text, links, redirect_rows = _page_rows(
            page, profile, strip_inert_spans, summary.diagnostics
        )
        page_id = page.page_id
        if last_page_id is not None and page_id <= last_page_id:
            summary.ascending = False
        last_page_id = page_id
        try:
            sink.write_text(raw_text, links)
            redirect_sink.write_rows(redirect_rows)
        except Exception:
            sink.abort()
            redirect_sink.abort()
            raise
        summary.pages += 1
        summary.revisions += len(page.revisions)
        summary.links += links
    return summary


def raw_sort_key(row: Sequence[str]) -> tuple[int, str, int]:
    # Timestamps share one fixed-width UTC format, so the string compares
    # chronologically; within a revision the stable sort keeps document order.
    return int(row[0]), row[4], int(row[2])


def redirect_sort_key(row: Sequence[str]) -> tuple[int, str, int]:
    return int(row[0]), row[3], int(row[2])


def read_raw_records(
    paths: Sequence[str | Path], keys: Collection[tuple[int, int]]
) -> Iterator[list[str]]:
    """Stream the raw link rows of the revisions in ``keys``, merged from
    sorted shard files.

    ``keys`` holds ``(page_id, revision_id)`` pairs, such as
    ``Selection.revisions``. Rows come in (page_id, revision_timestamp,
    revision_id) order, each revision's links in document order, as plain
    string lists in :data:`RAW_LINK_FIELDS` order.

    Each shard is read through :func:`storage.read_batches`, so every row of
    every revision, kept or not, is checked, and a fault stops the read
    with the error :func:`storage.iter_rows` gives. A block whose every row
    :func:`storage.rows_pattern` accepts is split into runs of rows that
    share page id, title and revision id, one match of a regular expression
    each; a run's ids are parsed with ``int()``, so leading zeros and a
    quoted title make at most a shorter run, and only the runs of
    revisions in ``keys`` are parsed by csv. From the first row refused
    (a row whose anchor holds a line feed is one) the rest of the shard is
    read by csv and filtered row by row. Each shard's kept rows stay in
    file order, and ``heapq.merge`` is stable, so the rows come in the
    order a merge of every row, filtered afterwards, gives.
    """
    def parse_block(block: bytes) -> tuple[int, Iterator[list[str]]] | None:
        kept = []
        position, end = 0, len(block)
        while position < end:
            run = _RUN.match(block, position)
            if run is None:
                return None  # csv reads the block
            if (int(run[2]), int(run[3])) in keys:
                kept.append(run[0])
            position = run.end()
        rows = b"".join(kept).decode().split("\n")
        rows.pop()  # what follows the last "\n"
        return block.count(b"\n"), csv.reader(rows)

    def parse_rows(rows: Iterator[list[str]]) -> tuple[int, list[list[str]]]:
        count = 0
        kept = []
        for row in rows:
            count += 1
            if (int(row[0]), int(row[2])) in keys:
                kept.append(row)
        return count, kept

    def selected(path: str) -> Iterator[list[str]]:
        for _, rows in read_batches(path, RAW_LINK_FIELDS, RAW_LINK_ID_COLUMNS, _BLOCK_BYTES,
                                    parse_block, parse_rows):
            yield from rows

    streams = [selected(p) for p in sorted(map(str, paths))]
    return heap_merge(*streams, key=raw_sort_key)


def read_redirect_events(paths: Sequence[str | Path]) -> Iterator[list[str]]:
    """Stream redirect-history rows merged from sorted shard files.

    Rows come in (page_id, revision_timestamp, revision_id) order, as plain
    string lists in :data:`REDIRECT_FIELDS` order.
    """
    streams = [iter_rows(p, REDIRECT_FIELDS, REDIRECT_ID_COLUMNS) for p in sorted(map(str, paths))]
    return heap_merge(*streams, key=redirect_sort_key)
