"""Materialize the state of the wiki at fixed instants.

A page belongs to a snapshot iff it has at least one revision strictly
before the snapshot instant; its state is its latest such revision (ties on
timestamp go to the higher revision id). From the selected revisions we
resolve the redirect chains of that instant to their final targets, and
filter the raw link records down to the links that existed at that moment,
flagging each as active (target page exists) or not.

All dates are built in one pass over each input. The redirect history and
the raw links are both sorted by (page_id, timestamp, revision_id), and
timestamps compare as fixed-width strings. So one scan of the redirect
history finds the revision every date selects for each page
(:func:`select_snapshot_revisions`), and one scan of the raw links sends each
link of a selected revision to every date that selected it
(:func:`build_link_snapshot`). That scan parses only the selected
revisions' rows: :func:`pipeline.read_raw_records` checks every raw row in
blocks, splits each block into runs of one revision's rows, and hands csv
only the runs of selected revisions; a block it refuses, such as one with a
line feed in an anchor, sends the rest of its shard to csv, row by row.
Memory holds, per selected revision, its range of dates and its page state
in the bucket of its first date, and per title the first date it exists at: a
page that exists once exists at every later date. Each date's state is the
date before's with that date's bucket applied. Links travel as
``wikilinksnapshot`` CSV rows from the raw links to the graph stage, and
resolved pages as ``resolvedredirects`` rows from the date's state to it.
"""

from __future__ import annotations

from bisect import bisect_right
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DataFormatError
from .storage import DatasetWriter, iter_rows

# Every stage process loads this module for SnapshotDate, so the functions
# that need the dump reader or the title normalizer import them: graph, stats,
# pagerank and verify then load neither.

RESOLUTION_ARTICLE = "article"
RESOLUTION_RESOLVED = "resolved"
RESOLUTION_DANGLING = "dangling-target"
RESOLUTION_CYCLE = "cycle"

MAX_CHAIN_DEPTH = 32

RESOLVED_FIELDS = (
    "page_id",
    "title",
    "is_redirect",
    "immediate_target",
    "final_target",
    "resolution",
)
RESOLVED_ID_COLUMNS = (0,)  # parsed with int(); storage.iter_rows checks them

SNAPSHOT_LINK_FIELDS = (
    "page_id",
    "page_title",
    "link",
    "tosection",
    "anchor",
    "section_name",
    "section_level",
    "section_number",
    "is_active",
)
SNAPSHOT_LINK_ID_COLUMNS = (0,)


class SnapshotDate(NamedTuple):
    """A snapshot instant, in UTC; revisions strictly before it belong to the snapshot."""

    instant: datetime

    @classmethod
    def of(cls, value: str) -> "SnapshotDate":
        """Accept YYYY-MM-DD (midnight UTC) or a full ISO instant."""
        if len(value) == 10:
            return cls(datetime.strptime(value, "%Y-%m-%d").replace(tzinfo=timezone.utc))
        from .dump import parse_timestamp

        return cls(parse_timestamp(value))

    @classmethod
    def march_first(cls, year: int) -> "SnapshotDate":
        return cls(datetime(year, 3, 1, tzinfo=timezone.utc))

    @property
    def label(self) -> str:
        return self.instant.strftime("%Y-%m-%d")

    @property
    def cutoff(self) -> str:
        """The instant in the dump's timestamp format, for string comparison.

        A revision belongs to the snapshot iff its timestamp string sorts
        before this one. Timestamps have whole seconds, so an instant with a
        fractional second rounds up: a revision stamped in that same second
        is still strictly before the instant.
        """
        instant = self.instant
        if instant.microsecond:
            instant = instant.replace(microsecond=0) + timedelta(seconds=1)
        from .dump import format_timestamp

        return format_timestamp(instant)


def yearly_snapshot_dates(first: int = 2001, last: int = 2018) -> list[SnapshotDate]:
    return [SnapshotDate.march_first(year) for year in range(first, last + 1)]


# One page at one date: (page_id, normalized redirect target or None for an
# article, redirect target fragment or None), keyed by title.
PageState = tuple[int, str | None, str | None]


class Selection(NamedTuple):
    """The revisions a run's dates select, from one pass over the redirect history.

    ``revisions`` maps the (page_id, revision_id) of every selected revision
    to the ``range`` of date indexes at which it is its page's state.
    ``first`` maps every title to the first date index at which a page with
    that title exists; the page then exists at every later date, since
    dumps hold no deleted pages. ``starting`` holds, for each date index,
    the ``(title, page state)`` of every revision whose range starts there.
    """

    revisions: dict[tuple[int, int], range]
    first: dict[str, int]
    starting: list[list[tuple[str, PageState]]]

    def states(self) -> Iterator[dict[str, PageState]]:
        """The state of every page at each date in turn, keyed by title.

        A page's selected revisions serve consecutive dates through the
        last one, so each date only replaces the pages whose selected
        revision starts there. A title names one page id (selection refuses
        anything else), so keying by title loses nothing.

        Every date gets the same live dict, updated in place: it holds a
        date's state only until the next date is drawn, so a caller that
        keeps a state copies it. Each date's bucket in ``starting`` is
        emptied once applied, so the states can be drawn only once.
        """
        state: dict[str, PageState] = {}
        for pages in self.starting:
            state.update(pages)
            pages.clear()
            yield state


def select_snapshot_revisions(
    events: Iterable[Sequence[str]], dates: Sequence[SnapshotDate]
) -> Selection:
    """Latest revision strictly before each of ``dates``, for every page.

    ``events`` are redirect-history rows in (page_id, timestamp, revision_id)
    order, as :func:`pipeline.read_redirect_events` yields them. ``dates``
    ascend. A revision is selected from the first date after its timestamp
    up to, not including, the first date after its page's next revision.

    Raises :class:`DataFormatError` when the rows of one page id carry two
    titles, or when two page ids that both exist before the last date share
    a title: either would give a date two pages for one title, or none. It
    raises it too when a page lists one revision id twice, at one timestamp
    or at two, as when one dump is extracted twice, since the raw links
    would then list its links twice.
    """
    from .wikitext import normalize_title

    cutoffs = [date.cutoff for date in dates]
    if cutoffs != sorted(cutoffs):
        raise ValueError("snapshot dates must ascend")
    count = len(cutoffs)
    selection = Selection({}, {}, [[] for _ in cutoffs])
    revisions, first, starting = selection
    spans: dict[tuple[int, int], range] = {}  # one range object per span of dates

    def keep(page: tuple[int, str], order: tuple[int, str, int], row: Sequence[str],
             start: int, stop: int) -> None:
        if start < stop:
            revisions[page[0], order[2]] = spans.setdefault((start, stop), range(start, stop))
            target = normalize_title(row[4]) if row[4] else None
            starting[start].append((page[1], (page[0], target, row[5] or None)))

    page = None  # (page_id, title) of the last row's page, shared by its revisions
    pending = None  # (page, (page_id, timestamp, revision_id), row, first date index)
    seen: set[int] = set()  # the revision ids of the last row's page
    for row in events:
        page_id, timestamp, revision_id = int(row[0]), row[3], int(row[2])
        order = (page_id, timestamp, revision_id)
        same_page = page is not None and page[0] == page_id
        if same_page and page[1] != row[1]:
            raise DataFormatError(
                f"page {page_id} carries two titles, {page[1]!r} and {row[1]!r}; "
                "inputs are inconsistent"
            )
        if same_page and revision_id in seen:
            raise DataFormatError(
                f"page {page_id} lists revision {revision_id} twice; inputs are inconsistent"
            )
        if pending is not None and order <= pending[1]:
            raise DataFormatError(
                f"redirect history out of (page_id, timestamp, revision_id) order at {order}"
            )
        start = bisect_right(cutoffs, timestamp)
        if not same_page:
            page = (page_id, row[1])
            seen.clear()
            # A page exists from the first date after its first revision on.
            # Rows come in page-id order, so a title already present belongs
            # to an earlier page id.
            if start < count:
                if row[1] in first:
                    raise DataFormatError(
                        f"title {row[1]!r} is held by more than one page id, "
                        f"page {page_id} among them; inputs are inconsistent"
                    )
                first[row[1]] = start
        seen.add(revision_id)
        if pending is not None:
            keep(*pending, start if same_page else count)
        pending = (page, order, row, start)
    if pending is not None:
        keep(*pending, count)
    return selection


def resolve_snapshot(state: Mapping[str, PageState]) -> list[tuple[str, ...]]:
    """The ``resolvedredirects`` rows of one date's state (see :meth:`Selection.states`).

    Rows come in :data:`RESOLVED_FIELDS` order, sorted by page id; the
    ``immediate_target`` column keeps the redirect's ``#fragment``.
    ``resolution`` is one of: article (not a redirect), resolved (the chain
    ends at an existing non-redirect page), dangling-target (the chain leaves
    the date's page set), cycle (the chain revisits a title or runs past
    :data:`MAX_CHAIN_DEPTH` hops; final_target falls back to the immediate
    target so the page keeps exactly one outgoing edge).
    """
    rows = []
    for title, (page_id, immediate, fragment) in sorted(
        state.items(), key=lambda item: item[1][0]
    ):
        if immediate is None:
            rows.append((str(page_id), title, "0", "", "", RESOLUTION_ARTICLE))
            continue
        # A cycle, or a chain past the depth cap, keeps these.
        final, resolution = immediate, RESOLUTION_CYCLE
        seen = {title}
        current = immediate
        for _ in range(MAX_CHAIN_DEPTH):
            page = state.get(current)
            if page is None or page[1] is None:
                final = current
                resolution = RESOLUTION_DANGLING if page is None else RESOLUTION_RESOLVED
                break
            if current in seen:
                break
            seen.add(current)
            current = page[1]
        target = f"{immediate}#{fragment}" if fragment else immediate
        rows.append((str(page_id), title, "1", target, final, resolution))
    return rows


def build_link_snapshot(
    records: Iterable[Sequence[str]], selection: Selection
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """``(date index, wikilinksnapshot row)`` for every link of a selected revision.

    ``records`` are raw link rows, as :func:`pipeline.read_raw_records`
    yields them for ``selection.revisions``; rows of other revisions are
    skipped. Each date's rows come out in that order. Targets are
    normalized once per row; links whose target normalizes to nothing (pure
    fragment links like ``[[#top]]``) are dropped. ``is_active`` records
    whether the target title existed at the date; redirect pages count as
    existing.
    """
    from .wikitext import normalize_title

    revisions, first, starting = selection
    count = len(starting)
    for row in records:
        selected = revisions.get((int(row[0]), int(row[2])))
        if selected is None:
            continue
        target = normalize_title(row[9])
        if target is None:
            continue
        link = (row[0], row[1], target, row[10], row[11], row[12], row[13], row[14])
        exists_from = first.get(target, count)
        for index in selected:
            yield index, (*link, "1" if index >= exists_from else "0")


def write_resolved_redirects(path: str | Path, rows: Iterable[Sequence[str]]) -> int:
    """Write the rows of :func:`resolve_snapshot`; returns row count."""
    with DatasetWriter(path, RESOLVED_FIELDS) as writer:
        writer.write_rows(rows)
        return writer.rows_written


def read_resolved_redirects(path: str | Path) -> dict[str, list[str]]:
    """The rows of one date's ``resolvedredirects`` file, keyed by title, in
    file order.

    The file lists pages in strictly ascending page id, as
    :func:`resolve_snapshot` sorts them; a page id at or below the one
    before it raises :class:`DataFormatError`.
    """
    pages = {}
    last = None
    for row in iter_rows(path, RESOLVED_FIELDS, RESOLVED_ID_COLUMNS):
        page_id = int(row[0])
        if last is not None and page_id <= last:
            raise DataFormatError(
                f"{path}: page id {row[0]} comes after page id {last}; pages must "
                "be in strictly ascending page-id order"
            )
        pages[row[1]] = row
        last = page_id
    return pages


def write_snapshot_links(
    writers: Sequence[DatasetWriter], indexed_rows: Iterable[tuple[int, Sequence[str]]]
) -> int:
    """Write each ``(date index, row)`` to that date's ``wikilinksnapshot`` writer.

    ``indexed_rows`` come from :func:`build_link_snapshot`. Returns the
    writers' row count summed over all dates.
    """
    write = [writer.write_row for writer in writers]
    for index, row in indexed_rows:
        write[index](row)
    return sum(writer.rows_written for writer in writers)


def read_snapshot_links(path: str | Path) -> Iterator[list[str]]:
    """The rows of one date's ``wikilinksnapshot`` file, in SNAPSHOT_LINK_FIELDS order."""
    return iter_rows(path, SNAPSHOT_LINK_FIELDS, SNAPSHOT_LINK_ID_COLUMNS)
