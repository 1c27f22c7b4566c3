"""Build the deduplicated article-to-article edge list of one snapshot.

Rules applied to the snapshot's active links:

* links whose target is a resolved redirect point at the chain's final
  target instead; links into a redirect cycle use that redirect's fallback
  target; links to dangling redirects are dropped;
* body links of redirect pages are ignored entirely: a redirect contributes
  exactly one edge, to its final target, so acyclic redirects are orphan
  nodes with out-degree 1 and in-degree 0;
* repeated page pairs collapse to one edge;
* a page linking itself directly contributes nothing; self-loops that arise
  from redirect resolution are kept unless ``drop_self_loops`` is set.

The node list is every page of the snapshot, redirects included, so pages
without a single active link still appear in the graph. Pages come in as
``resolvedredirects`` rows keyed by title, links as ``wikilinksnapshot`` rows,
both in the ascending page-id order ``snapshot`` writes and no other. So edges
are sorted and deduplicated one source page at a time, with no temporary files.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataFormatError
from .extsort import unique_justseen
from .snapshot import RESOLUTION_DANGLING
from .storage import DatasetWriter

EDGE_FIELDS = ("page_id_from", "page_title_from", "page_id_to", "page_title_to")
NODE_FIELDS = ("page_id", "page_title")
EDGE_ID_COLUMNS = (0, 2)  # parsed with int(); storage.iter_rows checks them
NODE_ID_COLUMNS = (0,)

# One edge as its CSV row, in EDGE_FIELDS order.
EdgeRow = tuple[str, str, str, str]

# ``resolvedredirects`` rows keyed by title, in ``snapshot.RESOLVED_FIELDS``
# order: page_id, title, is_redirect, immediate_target, final_target, resolution.
Resolved = Mapping[str, Sequence[str]]


def _final_page(redirect: Sequence[str], resolved: Resolved) -> Sequence[str]:
    """The row of the page a redirect's edge points at.

    Resolved chains and cycle fallbacks both name an existing page.
    """
    final = resolved.get(redirect[4])
    if final is None:
        raise DataFormatError(
            f"redirect {redirect[1]!r} resolves to {redirect[4]!r} which is "
            "missing from the resolved pages dataset; inputs are inconsistent"
        )
    return final


def _edge_target(link_target: str, resolved: Resolved) -> Sequence[str] | None:
    """The row of the page that receives the edge of an active link."""
    page = resolved.get(link_target)
    if page is None:
        raise DataFormatError(
            f"snapshot link targets {link_target!r} which is missing from the "
            "resolved pages dataset; inputs are inconsistent"
        )
    if page[2] != "1":
        return page
    if page[5] == RESOLUTION_DANGLING:
        return None
    return _final_page(page, resolved)


def _redirect_edges(resolved: Resolved, drop_self_loops: bool) -> Iterator[tuple[int, EdgeRow]]:
    """``(source page id, edge)`` of each redirect with a target, in ``resolved`` order."""
    for page in resolved.values():
        if page[2] != "1" or page[5] == RESOLUTION_DANGLING:
            continue
        final = _final_page(page, resolved)
        if drop_self_loops and final[0] == page[0]:
            continue
        yield int(page[0]), (page[0], page[1], final[0], final[1])


def iter_candidate_edges(
    links: Iterable[Sequence[str]],
    resolved: Resolved,
    *,
    drop_self_loops: bool = False,
) -> Iterator[EdgeRow]:
    """Pre-dedup edge rows: resolved article links plus redirect edges, by source page id.

    ``links`` are ``wikilinksnapshot`` rows (``snapshot.SNAPSHOT_LINK_FIELDS``).
    Both inputs are in ascending page id; a link row below the one before it
    is refused, and so is an active one whose title is another page's in
    ``resolved``. No page has edges of both kinds, so the two merge by page id.
    """
    redirects = _redirect_edges(resolved, drop_self_loops)
    redirect = next(redirects, None)
    last_id, last_number = None, 0
    for row in links:
        page_id, title, link = row[0], row[1], row[2]
        if page_id != last_id:
            number = int(page_id)
            if last_id is not None and number <= last_number:
                raise DataFormatError("snapshot link rows are out of page-id order: "
                                      f"page id {page_id} comes after page id {last_id}")
            while redirect is not None and redirect[0] < number:
                yield redirect[1]
                redirect = next(redirects, None)
            last_id, last_number = page_id, number
        if row[8] != "1":
            continue  # not active: the target did not exist at the date
        source = resolved.get(title)
        if source is None:
            raise DataFormatError(
                f"snapshot link source {title!r} is missing from the "
                "resolved pages dataset; inputs are inconsistent"
            )
        if source[0] != page_id:
            raise DataFormatError(
                f"snapshot link row of page id {page_id} has the title {title!r} of page id "
                f"{source[0]} in the resolved pages dataset; inputs are inconsistent"
            )
        if source[2] == "1":
            continue  # a redirect's body contributes nothing beyond its target
        target = _edge_target(link, resolved)
        if target is None:
            continue
        target_id = target[0]
        if target_id == page_id:
            direct_self_link = link == title
            if direct_self_link or drop_self_loops:
                continue
        yield page_id, title, target_id, target[1]
    if redirect is not None:
        yield redirect[1]
    yield from (edge for _, edge in redirects)


def build_graph(
    links: Iterable[Sequence[str]],
    resolved: Resolved,
    *,
    drop_self_loops: bool = False,
) -> tuple[Iterator[EdgeRow], list[tuple[int, str]]]:
    """Return (deduplicated edge rows sorted by id pair, node list) for one snapshot.

    The inputs are in page-id order, so each source's edges are sorted alone.
    """
    nodes = [(int(page[0]), page[1]) for page in resolved.values()]
    candidates = iter_candidate_edges(links, resolved, drop_self_loops=drop_self_loops)
    by_source = groupby(candidates, itemgetter(0))
    ordered = chain.from_iterable(
        sorted(edges, key=lambda edge: int(edge[2])) for _, edges in by_source)
    return unique_justseen(ordered, itemgetter(0, 2)), nodes


def emit_edges(edges: Iterable[EdgeRow], path: str | Path) -> int:
    """Write the edge dataset (sorted, deduplicated) with its checksum."""
    with DatasetWriter(path, EDGE_FIELDS) as writer:
        writer.write_rows(edges)
        return writer.rows_written


def emit_nodes(nodes: Iterable[tuple[int, str]], path: str | Path) -> int:
    with DatasetWriter(path, NODE_FIELDS) as writer:
        for page_id, title in nodes:
            writer.write_row((str(page_id), title))
        return writer.rows_written
