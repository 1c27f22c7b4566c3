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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import merge as heap_merge
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .dump import PageHistory
from .storage import DatasetWriter, iter_rows
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


@dataclass
class RunSummary:
    pages: int = 0
    revisions: int = 0
    links: int = 0
    errors: int = 0
    diagnostics: Counter = field(default_factory=Counter)
    # Every page id was greater than the one before, so the rows were
    # written in (page_id, timestamp, revision_id) order.
    ascending: bool = True

    def merge(self, other: "RunSummary") -> None:
        self.pages += other.pages
        self.revisions += other.revisions
        self.links += other.links
        self.errors += other.errors
        self.diagnostics.update(other.diagnostics)
        self.ascending = self.ascending and other.ascending


def _page_rows(
    page: PageHistory, profile: LanguageProfile, strip_inert_spans: bool,
    diagnostics: Counter,
) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """Raw link rows and redirect rows of one page, in sort-key order.

    The dump reader already orders revisions by (timestamp, revision id),
    the key :func:`raw_sort_key` and :func:`redirect_sort_key` use; each
    revision's links stay in document order.
    """
    raw_rows: list[tuple[str, ...]] = []
    redirect_rows: list[tuple[str, ...]] = []
    page_id = str(page.page_id)
    title = page.title
    for rev in page.revisions:
        # Blank once so link extraction and redirect detection see the same text.
        text = blank_inert_spans(rev.wikitext) if strip_inert_spans else rev.wikitext
        revision_id = str(rev.revision_id)
        # The nine revision columns of RAW_LINK_FIELDS, shared by every link.
        prefix = (
            page_id,
            title,
            revision_id,
            "" if rev.parent_id is None else str(rev.parent_id),
            rev.timestamp,
            rev.user_type,
            rev.user_username,
            "" if rev.user_id is None else str(rev.user_id),
            "1" if rev.minor else "0",
        )
        # Each link's six columns complete its row.
        raw_rows.extend(prefix + link for link in extract_links(text))
        redirect = detect_redirect(text, profile, diagnostics) or ("", "")
        redirect_rows.append((page_id, title, revision_id, rev.timestamp, *redirect))
    return raw_rows, redirect_rows


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
        raw_rows, redirect_rows = _page_rows(
            page, profile, strip_inert_spans, summary.diagnostics
        )
        page_id = page.page_id
        if last_page_id is not None and page_id <= last_page_id:
            summary.ascending = False
        last_page_id = page_id
        try:
            sink.write_rows(raw_rows)
            redirect_sink.write_rows(redirect_rows)
        except Exception:
            sink.abort()
            redirect_sink.abort()
            raise
        summary.pages += 1
        summary.revisions += len(page.revisions)
        summary.links += len(raw_rows)
    return summary


def raw_sort_key(row: Sequence[str]) -> tuple[int, str, int]:
    # Timestamps share one fixed-width UTC format, so the string compares
    # chronologically; within a revision the stable sort keeps document order.
    return int(row[0]), row[4], int(row[2])


def redirect_sort_key(row: Sequence[str]) -> tuple[int, str, int]:
    return int(row[0]), row[3], int(row[2])


def read_raw_records(paths: Sequence[str | Path]) -> Iterator[list[str]]:
    """Stream raw link rows merged from sorted shard files.

    Rows come in (page_id, revision_timestamp, revision_id) order, each
    revision's links in document order, as plain string lists in
    :data:`RAW_LINK_FIELDS` order.
    """
    streams = [iter_rows(p, RAW_LINK_FIELDS, RAW_LINK_ID_COLUMNS) for p in sorted(map(str, paths))]
    return heap_merge(*streams, key=raw_sort_key)


def read_redirect_events(paths: Sequence[str | Path]) -> Iterator[list[str]]:
    """Stream redirect-history rows merged from sorted shard files.

    Rows come in (page_id, revision_timestamp, revision_id) order, as plain
    string lists in :data:`REDIRECT_FIELDS` order.
    """
    streams = [iter_rows(p, REDIRECT_FIELDS, REDIRECT_ID_COLUMNS) for p in sorted(map(str, paths))]
    return heap_merge(*streams, key=redirect_sort_key)
