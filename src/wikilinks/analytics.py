"""Measurements over emitted graphs: counts, growth series, PageRank.

Counting (:func:`compute_stats`, :func:`write_growth_series`) needs only the
standard library; numpy is imported inside the functions that rank, so
``stats`` never loads it.

:func:`load_graph_file` reads the node file into int64 ids plus a list of
titles, both in file order, and then streams the edge file into a
:class:`LinkKey`, one int64 per edge. Titles come only from the node file,
which must list every edge endpoint exactly once.

PageRank is a matrix-free power iteration over the directed graph: each
step spreads a node's mass uniformly over its out-links, redistributes the
mass held by dangling nodes (out-degree 0) uniformly over all nodes, and
mixes in a uniform teleport with weight ``1 - damping``. Scores therefore
sum to 1 at every iteration. Node ids are mapped to rows with a binary
search over the sorted ids, and each edge is packed into the key as
``source_row * n + target_row``. Sorted in place, the key gives the
out-degrees, and then turns into the target rows of the distinct pairs.
Those rows and one flow array per step are the only arrays as long as the
edge list that the iteration holds. Each step repeats every source's share of its score once per distinct pair and
sums the shares into the targets with ``np.bincount``. Ties in the ranking
depend on the last bit of each score, so the order of the sums and the
update expression stay fixed: each target's sum starts from 0.0 and adds
its sources in ascending order, as a CSR matrix-vector product does.

Articles are ranked by descending score, and articles with exactly equal
scores by title.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import ConfigurationError, DataFormatError
from .graph import EDGE_FIELDS, NODE_FIELDS
from .storage import DatasetWriter, iter_rows

if TYPE_CHECKING:
    import numpy as np

RANKING_FIELDS = ("rank", "title", "score")
GROWTH_FIELDS = ("language", "date", "nodes", "edges")
_CHECK_ROWS = 1 << 16
_MAX_NODES = 3_037_000_499  # the largest n with n * n - 1 <= 2**63 - 1, for the pair key


@dataclass(frozen=True, slots=True)
class GraphStats:
    language: str
    date: str
    node_count: int
    edge_count: int


@dataclass(frozen=True, slots=True)
class RankedArticle:
    title: str
    score: float


@dataclass(frozen=True, slots=True)
class PageRankResult:
    node_ids: np.ndarray  # sorted int64 ids
    scores: np.ndarray
    converged: bool
    iterations: int

    def as_mapping(self) -> dict[int, float]:
        return dict(zip(self.node_ids.tolist(), self.scores.tolist()))


class GraphNodes(NamedTuple):
    """The nodes of a graph: int64 ids and their titles, in the same order."""

    ids: np.ndarray
    titles: list[str]


def _checked_rows(
    path: str | Path, fields: Sequence[str], int_columns: Sequence[int]
) -> Iterator[list[str]]:
    """Rows of a graph file, each with every column and ASCII-digit ids.

    A short or long row, a bad id or a file that cannot be read to its end
    raises :class:`DataFormatError` naming the row.
    """
    count = 0
    try:
        for row in iter_rows(path, fields):
            for col in int_columns:
                if not (row[col].isascii() and row[col].isdigit()):
                    raise DataFormatError(
                        f"{path}: row {count + 2} column {fields[col]} is not an id: {row[col]!r}"
                    )
            count += 1
            yield row
    except DataFormatError:
        raise
    except Exception as err:
        raise DataFormatError(f"{path}: unreadable row after {count} data rows: {err}")


def compute_stats(
    edge_path: str | Path,
    node_path: str | Path,
    *,
    language: str = "",
    date: str = "",
) -> GraphStats:
    """Exact node and edge counts of one emitted snapshot graph."""
    edges = sum(1 for _ in _checked_rows(edge_path, EDGE_FIELDS, (0, 2)))
    nodes = sum(1 for _ in _checked_rows(node_path, NODE_FIELDS, (0,)))
    return GraphStats(language, date, nodes, edges)


def write_growth_series(stats: Iterable[GraphStats], path: str | Path) -> int:
    """One row per (language, date): the growth of the graph over time."""
    with DatasetWriter(path, GROWTH_FIELDS) as writer:
        for item in sorted(stats, key=lambda s: (s.language, s.date)):
            writer.write_row(
                (item.language, item.date, str(item.node_count), str(item.edge_count))
            )
        return writer.rows_written


@dataclass(slots=True)
class LinkKey:
    """A graph's links packed one int64 per link, in the order given.

    Each entry is ``source_row * n + target_row``, where a row indexes
    ``ids``, the graph's ``n`` node ids in ascending order. ``len()`` is the
    number of links, repeated pairs included. :func:`pagerank` takes the key
    out and indexes it in place, so a ``LinkKey`` can be ranked once.
    """

    key: np.ndarray | None
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.key)


def _check_node_count(n: int) -> None:
    if n > _MAX_NODES:
        raise ConfigurationError(f"pagerank handles at most {_MAX_NODES:,} nodes, got {n:,}")


def _rows_of(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``values`` in the sorted ``ids``, and whether each is listed there."""
    import numpy as np

    rows = np.searchsorted(ids, values)
    listed = rows < len(ids)
    listed[listed] = ids[rows[listed]] == values[listed]
    return rows, listed


def _pack(ids: np.ndarray, sources: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys of (source, target) id pairs against the sorted ``ids``, and
    whether both ends of each pair are listed there."""
    packed, listed = _rows_of(ids, sources)
    rows, found = _rows_of(ids, targets)
    packed *= len(ids)
    packed += rows
    return packed, listed & found


def _edge_batches(edge_path: str | Path) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The rows of an edge file, up to ``_CHECK_ROWS`` at a time, in file
    order: the row number of each batch's first row, and its source and
    target id columns.

    Rows are checked as :func:`compute_stats` checks them, and an id past
    ``2**63 - 1`` raises :class:`DataFormatError`.
    """
    import numpy as np

    rows = _checked_rows(edge_path, EDGE_FIELDS, (0, 2))
    first = 2
    while True:
        sources, targets = array("q"), array("q")
        try:
            for row in islice(rows, _CHECK_ROWS):
                sources.append(int(row[0]))
                targets.append(int(row[2]))
        except OverflowError:
            raise DataFormatError(f"{edge_path}: row {first + len(targets)} has an id past 2**63 - 1")
        if not targets:
            return
        yield first, np.frombuffer(sources, dtype=np.int64), np.frombuffer(targets, dtype=np.int64)
        first += len(targets)


def _read_nodes(node_path: str | Path) -> GraphNodes:
    """The node file's ids and titles."""
    import numpy as np

    ids = array("q")
    titles: list[str] = []
    try:
        for row in _checked_rows(node_path, NODE_FIELDS, (0,)):
            ids.append(int(row[0]))
            titles.append(row[1])
    except OverflowError:
        raise DataFormatError(f"{node_path}: row {len(ids) + 2} has an id past 2**63 - 1")
    return GraphNodes(np.frombuffer(ids, dtype=np.int64), titles)


def load_graph_file(edge_path: str | Path, node_path: str | Path) -> tuple[LinkKey, GraphNodes]:
    """The edges as a :class:`LinkKey` in file order, and the nodes in file
    order.

    Rows are checked as :func:`compute_stats` checks them. An id past
    ``2**63 - 1``, a node id listed twice or an edge endpoint missing from
    the node file raises :class:`DataFormatError`. A fault in the edge
    file's rows is reported before any fault of the node file, and a fault
    of the node file before an unlisted endpoint.
    """
    import numpy as np

    try:
        nodes = _read_nodes(node_path)
        ids = np.sort(nodes.ids)
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if len(repeated):
            raise DataFormatError(f"{node_path}: page id {repeated[0]} is listed twice")
        _check_node_count(len(ids))
    except (DataFormatError, ConfigurationError):
        for _ in _edge_batches(edge_path):  # a fault in the edge rows comes first
            pass
        raise
    key = array("q")
    unlisted = None
    for first, sources, targets in _edge_batches(edge_path):
        if unlisted is None:  # past it, the rows are only checked
            packed, listed = _pack(ids, sources, targets)
            if listed.all():
                key.frombytes(memoryview(packed).cast("B"))
            else:
                unlisted = first + int(listed.argmin())
    if unlisted is not None:
        raise DataFormatError(
            f"{edge_path}: row {unlisted} links a page that {node_path} does not list"
        )
    return LinkKey(np.frombuffer(key, dtype=np.int64), ids), nodes


def check_pagerank_options(damping: float, tolerance: float, max_iter: int) -> None:
    """Raise :class:`ConfigurationError` unless PageRank can run with these."""
    if not 0.0 < damping < 1.0:
        raise ConfigurationError(f"damping must be in (0, 1), got {damping}")
    if not tolerance >= 0.0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")


def _pack_pairs(edges, nodes) -> LinkKey:
    """The :class:`LinkKey` of (source, target) id pairs; the node ids are
    the pairs' endpoints and ``nodes``."""
    import numpy as np

    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # One column at a time: the sort copies of np.unique stay one column long.
    universe = [np.unique(pairs[:, 0]), np.unique(pairs[:, 1])]
    if nodes is not None:
        universe.append(np.asarray(nodes, dtype=np.int64))
    ids = np.unique(np.concatenate(universe))
    del universe
    _check_node_count(len(ids))
    key = np.empty(len(pairs), dtype=np.int64)
    for start in range(0, len(pairs), _CHECK_ROWS):  # in slices, to keep the temporaries small
        chunk = pairs[start:start + _CHECK_ROWS]
        key[start:start + len(chunk)] = _pack(ids, chunk[:, 0], chunk[:, 1])[0]
    return LinkKey(key, ids)


def pagerank(
    edges: LinkKey | Sequence[tuple[int, int]] | np.ndarray,
    nodes: Sequence[int] | np.ndarray | None = None,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-12,
    max_iter: int = 200,
) -> PageRankResult:
    """Power-iteration PageRank over a directed graph.

    ``edges`` is the :class:`LinkKey` of :func:`load_graph_file`, which
    pagerank takes out and indexes in place, or anything ``np.asarray``
    turns into (source, target) id pairs, which is never modified. For
    pairs, ``nodes`` extends the universe beyond the edges' endpoints
    (isolated nodes still receive teleport and dangling mass); a
    ``LinkKey`` brings its own nodes. Iteration stops when the L1 change
    drops below ``tolerance``; if ``max_iter`` is reached first the result
    carries ``converged=False``.
    """
    import numpy as np

    check_pagerank_options(damping, tolerance, max_iter)
    if not isinstance(edges, LinkKey):
        edges = _pack_pairs(edges, nodes)
    elif nodes is not None:
        raise ValueError("a LinkKey brings its own nodes")
    key, edges.key = edges.key, None
    if key is None:
        raise ValueError("this LinkKey was ranked already")
    ids = edges.ids
    n = len(ids)
    if n == 0:
        raise ConfigurationError("pagerank needs a non-empty graph")

    # One entry per distinct pair, sorted by (source, target). Each
    # source's first key is source * n, so its entries start where that
    # value would be inserted.
    key.sort()
    source_starts = np.arange(n + 1, dtype=np.int64) * n
    out_degree = np.diff(np.searchsorted(key, source_starts))
    dangling = out_degree == 0
    share = 1.0 / np.maximum(out_degree, 1)  # 1/d, what each link of a source carries
    # A pair repeated c times carries its c shares summed in order, from
    # 0.0, so (w + w) * x never becomes w * x + w * x, and c / d is not
    # that sum for c >= 3. The sums are taken once, over the repeated pairs
    # only, and patched into the flow at every step.
    repeats = np.flatnonzero(key[1:] == key[:-1]) + 1  # the second and later copies
    runs = np.flatnonzero(np.diff(repeats, prepend=-2) != 1)
    first = repeats[runs] - 1  # each repeated pair's first copy
    copies = np.diff(runs, append=len(repeats)) + 1
    patch_sources = key[first] // n
    patch_shares = np.bincount(
        np.repeat(np.arange(len(first)), copies), weights=np.repeat(share[patch_sources], copies)
    )
    patch_at = first - np.searchsorted(repeats, first)  # where the pair lands once deduplicated
    if len(repeats):
        key = np.delete(key, repeats)
    pairs_per_source = np.diff(np.searchsorted(key, source_starts))
    dst = np.remainder(key, n, out=key)  # target rows, in place

    # A pair listed once carries x[source] * (0.0 + 1/d), which is
    # x[source] * share, so np.repeat spreads it without a per-pair weight
    # or source array. np.bincount then adds each target's sources in
    # ascending order, from 0.0, as a CSR matvec does; in source order its
    # consecutive adds mostly go to different targets.
    x = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        dangling_mass = x[dangling].sum()
        flow = np.repeat(x * share, pairs_per_source)
        flow[patch_at] = x[patch_sources] * patch_shares
        product = np.bincount(dst, weights=flow, minlength=n)
        del flow  # else the next step's flow is built while this one is alive
        new = (1.0 - damping) / n + damping * (product + dangling_mass / n)
        delta = np.abs(new - x).sum()
        x = new
        if delta < tolerance:
            converged = True
            break
    return PageRankResult(ids, x, converged, iterations)


def rank_articles(
    result: PageRankResult, nodes: tuple[Sequence[int], Sequence[str]]
) -> list[RankedArticle]:
    """Descending by score; equal scores by title, then by id.

    ``nodes`` is ``(ids, titles)`` in any order, listing exactly the ranked
    ids. One stable sort orders the scores; titles are compared only
    inside runs of equal scores.
    """
    import numpy as np

    ids, titles = nodes
    ids = np.asarray(ids, dtype=np.int64)
    by_id = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[by_id], result.node_ids):
        raise ValueError("the titles must cover exactly the ranked nodes")
    title_of = [titles[i] for i in by_id.tolist()]  # by row of result.node_ids

    scores = result.scores
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    bounds = np.concatenate(([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1, [len(order)]))
    ties = np.flatnonzero(np.diff(bounds) > 1)
    order = order.tolist()
    for lo, hi in zip(bounds[ties].tolist(), bounds[ties + 1].tolist()):
        order[lo:hi] = sorted(order[lo:hi], key=title_of.__getitem__)
    return [RankedArticle(title_of[i], score) for i, score in zip(order, scores[order].tolist())]


def write_rankings(ranked: Sequence[RankedArticle], path: str | Path) -> int:
    """Rankings CSV with scores in scientific notation, 6 significant digits."""
    with DatasetWriter(path, RANKING_FIELDS) as writer:
        for position, article in enumerate(ranked, start=1):
            writer.write_row((str(position), article.title, f"{article.score:.5e}"))
        return writer.rows_written
