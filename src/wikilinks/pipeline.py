"""Drive link extraction over every revision of every article.

Produces the two per-revision datasets the later stages build on:

* raw link records: one row per wikilink occurrence per revision, carrying
  the full revision metadata (15 columns);
* redirect history: one row per revision stating whether that revision's
  wikitext is a redirect and to where, which doubles as the complete
  revision index needed for snapshot selection.

Workers process whole pages independently; output files are made
deterministic by an external sort, not by processing order.
"""

from __future__ import annotations

from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime
from heapq import merge as heap_merge
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .dump import PageHistory, format_timestamp, parse_timestamp
from .extsort import external_sort
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

REDIRECT_FIELDS = (
    "page_id",
    "page_title",
    "revision_id",
    "revision_timestamp",
    "target",
    "tosection",
)


@dataclass(frozen=True, slots=True)
class RawLinkRecord:
    """One wikilink occurrence joined to its revision's metadata."""

    page_id: int
    page_title: str
    revision_id: int
    revision_parent_id: int | None
    revision_timestamp: datetime
    user_type: str
    user_username: str
    user_id: int | None
    revision_minor: bool
    link: str
    tosection: str | None
    anchor: str | None
    section_name: str
    section_level: int
    section_number: int

    def to_row(self) -> tuple[str, ...]:
        return (
            str(self.page_id),
            self.page_title,
            str(self.revision_id),
            "" if self.revision_parent_id is None else str(self.revision_parent_id),
            format_timestamp(self.revision_timestamp),
            self.user_type,
            self.user_username,
            "" if self.user_id is None else str(self.user_id),
            "1" if self.revision_minor else "0",
            self.link,
            self.tosection or "",
            self.anchor or "",
            self.section_name,
            str(self.section_level),
            str(self.section_number),
        )

    @classmethod
    def from_row(cls, row: Sequence[str]) -> "RawLinkRecord":
        return cls(
            page_id=int(row[0]),
            page_title=row[1],
            revision_id=int(row[2]),
            revision_parent_id=int(row[3]) if row[3] else None,
            revision_timestamp=parse_timestamp(row[4]),
            user_type=row[5],
            user_username=row[6],
            user_id=int(row[7]) if row[7] else None,
            revision_minor=row[8] == "1",
            link=row[9],
            tosection=row[10] or None,
            anchor=row[11] or None,
            section_name=row[12],
            section_level=int(row[13]),
            section_number=int(row[14]),
        )


@dataclass(frozen=True, slots=True)
class RedirectEvent:
    """Redirect status of one revision of one page (target None = article)."""

    page_id: int
    page_title: str
    revision_id: int
    timestamp: datetime
    target: str | None
    tosection: str | None

    def to_row(self) -> tuple[str, ...]:
        return (
            str(self.page_id),
            self.page_title,
            str(self.revision_id),
            format_timestamp(self.timestamp),
            self.target or "",
            self.tosection or "",
        )

    @classmethod
    def from_row(cls, row: Sequence[str]) -> "RedirectEvent":
        return cls(
            page_id=int(row[0]),
            page_title=row[1],
            revision_id=int(row[2]),
            timestamp=parse_timestamp(row[3]),
            target=row[4] or None,
            tosection=row[5] or None,
        )


@dataclass
class RunSummary:
    pages: int = 0
    revisions: int = 0
    links: int = 0
    errors: int = 0
    diagnostics: Counter = field(default_factory=Counter)

    def merge(self, other: "RunSummary") -> None:
        self.pages += other.pages
        self.revisions += other.revisions
        self.links += other.links
        self.errors += other.errors
        self.diagnostics.update(other.diagnostics)


def _page_rows(
    page: PageHistory, profile: LanguageProfile, strip_inert_spans: bool
) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]], int, Counter]:
    """Raw link rows and redirect rows for one page, in document order."""
    raw_rows: list[tuple[str, ...]] = []
    redirect_rows: list[tuple[str, ...]] = []
    diagnostics: Counter = Counter()
    meta = page.meta
    for rev in page.revisions:
        # Blank once so link extraction and redirect detection see the same text.
        text = blank_inert_spans(rev.wikitext) if strip_inert_spans else rev.wikitext
        links = extract_links(text)
        for link in links:
            record = RawLinkRecord(
                page_id=meta.page_id,
                page_title=meta.title,
                revision_id=rev.revision_id,
                revision_parent_id=rev.parent_id,
                revision_timestamp=rev.timestamp,
                user_type=rev.user_type,
                user_username=rev.user_username,
                user_id=rev.user_id,
                revision_minor=rev.minor,
                link=link.link,
                tosection=link.tosection,
                anchor=link.anchor,
                section_name=link.section_name,
                section_level=link.section_level,
                section_number=link.section_number,
            )
            raw_rows.append(record.to_row())
        decl = detect_redirect(text, profile, diagnostics)
        event = RedirectEvent(
            page_id=meta.page_id,
            page_title=meta.title,
            revision_id=rev.revision_id,
            timestamp=rev.timestamp,
            target=decl.target if decl else None,
            tosection=decl.tosection if decl else None,
        )
        redirect_rows.append(event.to_row())
    return raw_rows, redirect_rows, len(page.revisions), diagnostics


def _batch_rows(args):
    batch, profile, strip = args
    return [_page_rows(page, profile, strip) for page in batch]


def _batched(pages: Iterable[PageHistory], size: int):
    batch = []
    for page in pages:
        batch.append(page)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def _bounded_map(executor, fn, items, window: int):
    """map() preserving order while keeping at most ``window`` tasks in flight."""
    pending = deque()
    for item in items:
        pending.append(executor.submit(fn, item))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def extract_all(
    pages: Iterable[PageHistory],
    profile: LanguageProfile,
    sink: DatasetWriter,
    *,
    redirect_sink: DatasetWriter | None = None,
    jobs: int = 1,
    strip_inert_spans: bool = False,
    batch_size: int = 16,
) -> RunSummary:
    """Write one raw link row per link per revision of every page in ``pages``.

    ``pages`` must already be filtered to the namespace of interest. When
    ``redirect_sink`` is given, the per-revision redirect history is written
    in the same pass. If a sink write fails, the writer's .partial marker is
    left in place and the error propagates.
    """
    summary = RunSummary()

    def consume(result) -> None:
        raw_rows, redirect_rows, revisions, diagnostics = result
        try:
            sink.write_rows(raw_rows)
            if redirect_sink is not None:
                redirect_sink.write_rows(redirect_rows)
        except Exception:
            sink.abort()
            if redirect_sink is not None:
                redirect_sink.abort()
            raise
        summary.pages += 1
        summary.revisions += revisions
        summary.links += len(raw_rows)
        summary.diagnostics.update(diagnostics)

    if jobs <= 1:
        for page in pages:
            consume(_page_rows(page, profile, strip_inert_spans))
        return summary

    batches = ((batch, profile, strip_inert_spans) for batch in _batched(pages, batch_size))
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        for results in _bounded_map(executor, _batch_rows, batches, window=jobs * 2):
            for result in results:
                consume(result)
    return summary


def extract_redirect_history(
    pages: Iterable[PageHistory], profile: LanguageProfile
) -> Iterator[RedirectEvent]:
    """One event per revision, in (timestamp, revision_id) order per page."""
    for page in pages:
        for rev in page.revisions:
            decl = detect_redirect(rev.wikitext, profile)
            yield RedirectEvent(
                page_id=page.meta.page_id,
                page_title=page.meta.title,
                revision_id=rev.revision_id,
                timestamp=rev.timestamp,
                target=decl.target if decl else None,
                tosection=decl.tosection if decl else None,
            )


def raw_sort_key(row: Sequence[str]) -> tuple[int, str, int]:
    # Timestamps share one fixed-width UTC format, so the string compares
    # chronologically; within a revision the stable sort keeps document order.
    return int(row[0]), row[4], int(row[2])


def redirect_sort_key(row: Sequence[str]) -> tuple[int, str, int]:
    return int(row[0]), row[3], int(row[2])


def sort_dataset(
    path: str | Path,
    fields: Sequence[str],
    key,
    *,
    chunk_rows: int = 200_000,
    tmpdir: str | None = None,
) -> None:
    """Rewrite a dataset file with its rows sorted by ``key``."""
    path = Path(path)
    # Prefix, not suffix: the temp name must keep .gz so readers decompress.
    tmp_path = path.with_name("sorting." + path.name)
    path.rename(tmp_path)
    try:
        with DatasetWriter(path, fields) as writer:
            writer.write_rows(
                external_sort(
                    iter_rows(tmp_path, fields), key, chunk_rows=chunk_rows, tmpdir=tmpdir
                )
            )
    finally:
        tmp_path.unlink(missing_ok=True)


def read_raw_records(paths: Sequence[str | Path]) -> Iterator[list[str]]:
    """Stream raw link rows merged from sorted shard files.

    Rows come in (page_id, revision_timestamp, revision_id) order, each
    revision's links in document order, as plain string lists in
    :data:`RAW_LINK_FIELDS` order.
    """
    streams = [iter_rows(path, RAW_LINK_FIELDS) for path in sorted(map(str, paths))]
    return heap_merge(*streams, key=raw_sort_key)


def read_redirect_events(paths: Sequence[str | Path]) -> Iterator[list[str]]:
    """Stream redirect-history rows merged from sorted shard files.

    Rows come in (page_id, revision_timestamp, revision_id) order, as plain
    string lists in :data:`REDIRECT_FIELDS` order.
    """
    streams = [iter_rows(path, REDIRECT_FIELDS) for path in sorted(map(str, paths))]
    return heap_merge(*streams, key=redirect_sort_key)
