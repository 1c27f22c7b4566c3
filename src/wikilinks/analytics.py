"""Measurements over emitted graphs: counts, growth series, PageRank.

PageRank is a matrix-free power iteration over the directed graph: each
step spreads a node's mass uniformly over its out-links, redistributes the
mass held by dangling nodes (out-degree 0) uniformly over all nodes, and
mixes in a uniform teleport with weight ``1 - damping``. Scores therefore
sum to 1 at every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse

from .errors import ConfigurationError, DataFormatError
from .graph import EDGE_FIELDS, NODE_FIELDS
from .storage import DatasetWriter, iter_rows

RANKING_FIELDS = ("rank", "title", "score")
GROWTH_FIELDS = ("language", "date", "nodes", "edges")


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
    node_ids: tuple[int, ...]
    scores: np.ndarray
    converged: bool
    iterations: int

    def as_mapping(self) -> dict[int, float]:
        return dict(zip(self.node_ids, self.scores.tolist()))


def _checked_rows(
    path: str | Path, fields: Sequence[str], int_columns: Sequence[int]
) -> Iterator[list[str]]:
    """Rows of a graph file, each with every column and digit-only ids.

    A short or long row, a bad id or a file that cannot be read to its end
    raises :class:`DataFormatError` naming the row.
    """
    count = 0
    try:
        for row in iter_rows(path, fields):
            if len(row) != len(fields):
                raise DataFormatError(
                    f"{path}: row {count + 2} has {len(row)} columns, expected {len(fields)}"
                )
            for col in int_columns:
                if not row[col].isdigit():
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
    edge_path: str | Path, node_path: str | Path | None = None
) -> tuple[list[tuple[int, int]], dict[int, str]]:
    """Edges plus an id -> title map, including isolated nodes if given.

    Rows are checked as :func:`compute_stats` checks them.
    """
    titles: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for row in _checked_rows(edge_path, EDGE_FIELDS, (0, 2)):
        src, dst = int(row[0]), int(row[2])
        edges.append((src, dst))
        titles[src] = row[1]
        titles[dst] = row[3]
    if node_path is not None:
        for row in _checked_rows(node_path, NODE_FIELDS, (0,)):
            titles[int(row[0])] = row[1]
    return edges, titles


def pagerank(
    edges: Iterable[tuple[int, int]],
    nodes: Iterable[int] | None = None,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-12,
    max_iter: int = 200,
) -> PageRankResult:
    """Power-iteration PageRank over a directed graph.

    ``nodes`` extends the universe beyond the edges' endpoints (isolated
    nodes still receive teleport and dangling mass). Iteration stops when
    the L1 change drops below ``tolerance``; if ``max_iter`` is reached
    first the result carries ``converged=False``.
    """
    if not 0.0 < damping < 1.0:
        raise ConfigurationError(f"damping must be in (0, 1), got {damping}")
    edge_list = list(edges)
    ids = sorted(
        set(nodes or ()) | {s for s, _ in edge_list} | {d for _, d in edge_list}
    )
    n = len(ids)
    if n == 0:
        raise ConfigurationError("pagerank needs a non-empty graph")
    index = {node: i for i, node in enumerate(ids)}

    src = np.fromiter((index[s] for s, _ in edge_list), dtype=np.int64, count=len(edge_list))
    dst = np.fromiter((index[d] for _, d in edge_list), dtype=np.int64, count=len(edge_list))
    out_degree = np.bincount(src, minlength=n).astype(np.float64)
    dangling = out_degree == 0.0

    weights = 1.0 / out_degree[src]
    matrix = sparse.csr_matrix((weights, (dst, src)), shape=(n, n))

    x = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        dangling_mass = x[dangling].sum()
        new = (1.0 - damping) / n + damping * (matrix @ x + dangling_mass / n)
        delta = np.abs(new - x).sum()
        x = new
        if delta < tolerance:
            converged = True
            break
    return PageRankResult(tuple(ids), x, converged, iterations)


def rank_articles(
    result: PageRankResult, titles: Mapping[int, str]
) -> list[RankedArticle]:
    """Descending by score; ties broken by title."""
    ranked = [
        RankedArticle(titles[node], score)
        for node, score in zip(result.node_ids, result.scores.tolist())
    ]
    ranked.sort(key=lambda a: (-a.score, a.title))
    return ranked


def write_rankings(ranked: Sequence[RankedArticle], path: str | Path) -> int:
    """Rankings CSV with scores in scientific notation, 6 significant digits."""
    with DatasetWriter(path, RANKING_FIELDS) as writer:
        for position, article in enumerate(ranked, start=1):
            writer.write_row((str(position), article.title, f"{article.score:.5e}"))
        return writer.rows_written
