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
without a single active link still appear in the graph.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataFormatError
from .extsort import external_sort, unique_justseen
from .snapshot import RESOLUTION_DANGLING, ResolvedPage
from .storage import DatasetWriter

EDGE_FIELDS = ("page_id_from", "page_title_from", "page_id_to", "page_title_to")
NODE_FIELDS = ("page_id", "page_title")

# One edge as its CSV row, in EDGE_FIELDS order.
EdgeRow = tuple[str, str, str, str]


def _edge_target(
    link_target: str, resolved: Mapping[str, ResolvedPage]
) -> ResolvedPage | None:
    """Map an active link target to the page that receives the edge."""
    page = resolved.get(link_target)
    if page is None:
        raise DataFormatError(
            f"snapshot link targets {link_target!r} which is missing from the "
            "resolved pages dataset; inputs are inconsistent"
        )
    if not page.is_redirect:
        return page
    if page.resolution == RESOLUTION_DANGLING:
        return None
    # resolved chains and cycle fallbacks both name an existing page
    final = resolved.get(page.final_target)
    if final is None:
        raise DataFormatError(
            f"redirect {page.title!r} resolves to {page.final_target!r} which is "
            "missing from the resolved pages dataset; inputs are inconsistent"
        )
    return final


def iter_candidate_edges(
    links: Iterable[Sequence[str]],
    resolved: Mapping[str, ResolvedPage],
    *,
    drop_self_loops: bool = False,
) -> Iterator[EdgeRow]:
    """Pre-dedup edge rows: resolved article links plus redirect edges.

    ``links`` are ``wikilinksnapshot`` rows (``snapshot.SNAPSHOT_LINK_FIELDS``).
    """
    for row in links:
        if row[8] != "1":
            continue  # not active: the target did not exist at the date
        page_id, title, link = row[0], row[1], row[2]
        source = resolved.get(title)
        if source is None:
            raise DataFormatError(
                f"snapshot link source {title!r} is missing from the "
                "resolved pages dataset; inputs are inconsistent"
            )
        if source.is_redirect:
            continue  # a redirect's body contributes nothing beyond its target
        target = _edge_target(link, resolved)
        if target is None:
            continue
        target_id = str(target.page_id)
        if target_id == page_id:
            direct_self_link = link == title
            if direct_self_link or drop_self_loops:
                continue
        yield page_id, title, target_id, target.title
    for page in resolved.values():
        if not page.is_redirect or page.resolution == RESOLUTION_DANGLING:
            continue
        final = resolved.get(page.final_target)
        if final is None:
            raise DataFormatError(
                f"redirect {page.title!r} resolves to {page.final_target!r} which is "
                "missing from the resolved pages dataset; inputs are inconsistent"
            )
        if drop_self_loops and final.page_id == page.page_id:
            continue
        yield str(page.page_id), page.title, str(final.page_id), final.title


def build_graph(
    links: Iterable[Sequence[str]],
    resolved: Mapping[str, ResolvedPage],
    *,
    drop_self_loops: bool = False,
) -> tuple[Iterator[EdgeRow], list[tuple[int, str]]]:
    """Return (deduplicated edge rows sorted by id pair, node list) for one snapshot."""
    nodes = sorted((p.page_id, p.title) for p in resolved.values())

    def pair_key(row):
        return int(row[0]), int(row[2])

    candidates = iter_candidate_edges(links, resolved, drop_self_loops=drop_self_loops)
    edges = unique_justseen(external_sort(candidates, pair_key), pair_key)
    return edges, nodes


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
