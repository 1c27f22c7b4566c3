"""Measurements over emitted graphs: counts, growth series, PageRank.

Counting (:func:`compute_stats`, :func:`write_growth_series`) needs only the
standard library; numpy is imported inside the functions that rank, so
``stats`` never loads it.

:func:`load_graph_file` reads an edge file and its node file into arrays:
the edges as an ``(m, 2)`` int64 array and the nodes as int64 ids plus a
list of titles, both in file order. Titles come only from the node file,
which must list every edge endpoint exactly once.

PageRank is a matrix-free power iteration over the directed graph: each
step spreads a node's mass uniformly over its out-links, redistributes the
mass held by dangling nodes (out-degree 0) uniformly over all nodes, and
mixes in a uniform teleport with weight ``1 - damping``. Scores therefore
sum to 1 at every iteration. Node ids are mapped to rows with a binary
search over the sorted ids. The link matrix is held as numpy arrays, one
entry per distinct (source, target) pair in that order, and each step
gathers the scores of the sources and sums them into the targets with
``np.bincount``. Ties in the ranking depend on the last bit of each score,
so the order of the sums and the update expression stay fixed: each
target's sum starts from 0.0 and adds its sources in ascending order, as a
CSR matrix-vector product does.

Articles are ranked by descending score, and articles with exactly equal
scores by title.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
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


def load_graph_file(
    edge_path: str | Path, node_path: str | Path
) -> tuple[np.ndarray, GraphNodes]:
    """The edges as an ``(m, 2)`` int64 array of (source, target) ids, and
    the nodes, both in file order.

    Rows are checked as :func:`compute_stats` checks them. An id past
    ``2**63 - 1``, a node id listed twice or an edge endpoint missing from
    the node file raises :class:`DataFormatError`.
    """
    import numpy as np

    pairs = array("q")  # source, target, source, target, ...
    try:
        for row in _checked_rows(edge_path, EDGE_FIELDS, (0, 2)):
            pairs.append(int(row[0]))
            pairs.append(int(row[2]))
    except OverflowError:
        raise DataFormatError(f"{edge_path}: row {len(pairs) // 2 + 2} has an id past 2**63 - 1")
    ids = array("q")
    titles: list[str] = []
    try:
        for row in _checked_rows(node_path, NODE_FIELDS, (0,)):
            ids.append(int(row[0]))
            titles.append(row[1])
    except OverflowError:
        raise DataFormatError(f"{node_path}: row {len(ids) + 2} has an id past 2**63 - 1")

    edges = np.frombuffer(pairs, dtype=np.int64).reshape(-1, 2)
    node_ids = np.frombuffer(ids, dtype=np.int64)
    known = np.sort(node_ids)
    repeated = known[1:][known[1:] == known[:-1]]
    if len(repeated):
        raise DataFormatError(f"{node_path}: page id {repeated[0]} is listed twice")
    for start in range(0, len(edges), _CHECK_ROWS):  # in slices, to keep the temporaries small
        listed = np.isin(edges[start:start + _CHECK_ROWS], known).all(axis=1)
        if not listed.all():
            raise DataFormatError(
                f"{edge_path}: row {start + listed.argmin() + 2} links a page"
                f" that {node_path} does not list"
            )
    return edges, GraphNodes(node_ids, titles)


def check_pagerank_options(damping: float, tolerance: float, max_iter: int) -> None:
    """Raise :class:`ConfigurationError` unless PageRank can run with these."""
    if not 0.0 < damping < 1.0:
        raise ConfigurationError(f"damping must be in (0, 1), got {damping}")
    if not tolerance >= 0.0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")


def pagerank(
    edges: Sequence[tuple[int, int]] | np.ndarray,
    nodes: Sequence[int] | np.ndarray | None = None,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-12,
    max_iter: int = 200,
) -> PageRankResult:
    """Power-iteration PageRank over a directed graph.

    ``edges`` is anything ``np.asarray`` turns into (source, target) id
    pairs, such as the ``(m, 2)`` int64 array of :func:`load_graph_file`.
    It is never modified, and once the edges are indexed pagerank drops
    its reference, so an array the caller keeps no reference to is freed
    before the iteration starts. ``nodes`` extends the universe beyond the
    edges' endpoints (isolated nodes still receive teleport and dangling
    mass). Iteration stops when the L1 change drops below ``tolerance``;
    if ``max_iter`` is reached first the result carries
    ``converged=False``.
    """
    import numpy as np

    check_pagerank_options(damping, tolerance, max_iter)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    del edges
    # One column at a time: the sort copies of np.unique stay one column long.
    universe = [np.unique(pairs[:, 0]), np.unique(pairs[:, 1])]
    if nodes is not None:
        universe.append(np.asarray(nodes, dtype=np.int64))
    ids = np.unique(np.concatenate(universe))
    del universe
    n = len(ids)
    if n == 0:
        raise ConfigurationError("pagerank needs a non-empty graph")
    if n > _MAX_NODES:
        raise ConfigurationError(f"pagerank handles at most {_MAX_NODES:,} nodes, got {n:,}")
    key = np.searchsorted(ids, pairs[:, 0])  # source rows
    out_degree = np.bincount(key, minlength=n).astype(np.float64)
    dangling = out_degree == 0.0

    # One entry per distinct pair, sorted by (source, target) through one
    # int64 key. A repeated pair's weights are summed in order first, so
    # (w + w) * x never becomes w * x + w * x. np.bincount then adds each
    # target's sources in ascending order, from 0.0, as a CSR matvec does;
    # in source order its consecutive adds mostly go to different targets.
    key *= n
    key += np.searchsorted(ids, pairs[:, 1])  # target rows
    del pairs  # frees the edge array when the caller kept no reference
    key.sort()
    new_pair = np.ones(len(key), dtype=bool)
    new_pair[1:] = key[1:] != key[:-1]
    weights = np.bincount(np.cumsum(new_pair) - 1, weights=1.0 / out_degree[key // n])
    key = key[new_pair]
    del new_pair
    src, dst = np.divmod(key, n)
    del key

    x = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        dangling_mass = x[dangling].sum()
        flow = x[src]
        flow *= weights  # weights * x[src], with one temporary instead of two
        product = np.bincount(dst, weights=flow, minlength=n)
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
