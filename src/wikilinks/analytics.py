"""Measurements over emitted graphs: counts, growth series, PageRank.

Counting (:func:`compute_stats`, :func:`write_growth_series`) needs only the
standard library; numpy is imported inside the functions that rank, so
``stats`` never loads it.

Graph files are read through :func:`storage.read_batches`, which checks
each row against the file kind's fields and id columns, declared in
:mod:`.graph`, and names each fault as :func:`storage.iter_rows` does. This
module keeps each file kind's parsers. A block of about 256 KB that the
row pattern accepts ends each row with a line feed, so
:func:`compute_stats` counts them, and PageRank's readers parse it with
numpy; an id of more than 19 digits, or past ``2**63 - 1``, sends it to
csv. The rows csv reads are parsed a row at a time, and the counts, ids,
titles and errors are those of csv alone.

The ``pagerank`` stage holds only what each phase needs.
:func:`load_graph_file` reads the node file's ids alone, into int64, and
then streams the edge file into :class:`LinkRows`. Both files must be in
the order ``graph`` writes them: node ids strictly ascending, and edges by
strictly ascending (page_id_from, page_id_to), so no pair is listed twice;
anything else is refused, never sorted. Node ids are mapped to rows with a
binary search over the ids, and each block of edges is checked on the keys
``source_row * n + target_row``, which must rise, and then kept as int32
target rows, appended, and counts added to an int32 out-degree per node: 4
bytes per edge. Titles come only from the node file, which must list every
edge endpoint. Once the iteration is done and the links are freed,
:func:`read_titles` reads the node file again, for its titles, and refuses
it unless its size, modification time, inode and ids are those of the first
read. The titles are held as one UTF-8 buffer and the offsets that bound
each title: a node block's title bytes are copied straight into the
buffer, and only quoted titles are unquoted.

PageRank is a matrix-free power iteration over the graph
:func:`load_graph_file` read, its only input: each step spreads a node's
mass uniformly over its out-links, redistributes the mass held by dangling
nodes (out-degree 0) uniformly over all nodes, and mixes in a uniform
teleport with weight ``1 - damping``. Scores therefore sum to 1 at every
iteration. An empty graph is loaded, ranked and written the same way: its
result is empty and converged after 0 iterations. The dangling nodes' rows
are indexed once, before the first step. Each step takes the sources in
consecutive runs of about ``_STEP_PAIRS`` links: it repeats every
source's share of its score once per link of the run and adds the shares
into one reused product vector with ``np.add.at``, run after run, so a
step holds one run's flow, not one as long as the edge list. Ties in the
ranking depend on the last bit of each score, so the order of the sums
and the update expression stay fixed: each target's sum starts from 0.0
and adds its sources in ascending order, as a CSR matrix-vector product
(or ``np.bincount``) does, and the node-length update is done in place in
the same order of operations.

Articles are ranked by descending score, and articles with exactly equal
scores by title, then by id. A :class:`Ranking` is the node rows in rank
order, an int64 array, and their scores. The rows of runs of equal scores
are ordered by numpy, about ``_TIE_ROWS`` at a time, on each title's first
16 UTF-8 bytes, where byte order is code-point order; only titles longer
than that which share those bytes are compared whole. The rankings file
is formatted ``_RANKING_ROWS`` rows at a time into one string, with numpy,
from the rows, the scores and the titles' buffer; only a title holding a
comma, quote, carriage return or line feed is decoded, so that csv.writer
itself writes it.
"""

from __future__ import annotations

import csv
import os
from array import array
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigurationError, DataFormatError
from .graph import EDGE_FIELDS, EDGE_ID_COLUMNS, NODE_FIELDS, NODE_ID_COLUMNS
from .storage import CsvLines, DatasetWriter, read_batches

if TYPE_CHECKING:
    import numpy as np

RANKING_FIELDS = ("rank", "title", "score")
GROWTH_FIELDS = ("language", "date", "nodes", "edges")
_BATCH_ROWS = 1 << 16  # rows per batch read through csv
_BLOCK_BYTES = 1 << 18  # a block's parsing temporaries stay below PageRank's arrays
_STEP_PAIRS = 1 << 16  # links whose flow a PageRank step builds at a time
_TIE_ROWS = 1 << 14  # tied ranking rows ordered at a time, in whole runs
_RANKING_ROWS = 1024  # rankings rows formatted at once: about 0.4 MB of temporaries
_MAX_NODES = 2**31 - 1  # target rows are int32


class GraphStats(NamedTuple):
    language: str
    date: str
    node_count: int
    edge_count: int


class PageRankResult(NamedTuple):
    node_ids: np.ndarray  # sorted int64 ids
    scores: np.ndarray
    converged: bool
    iterations: int


class Titles(Sequence[str]):
    """Titles held as one UTF-8 buffer and the offsets that bound each one,
    ``bounds[i]:bounds[i + 1]``; indexing decodes one title."""

    __slots__ = ("_data", "_bounds")

    def __init__(self, data: bytearray, bounds: array):
        self._data = data
        self._bounds = bounds

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, i: int) -> str:
        n = len(self._bounds) - 1
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("title index out of range")
        return self._data[self._bounds[i]:self._bounds[i + 1]].decode()

    @classmethod
    def of(cls, titles: Iterable[str]) -> Titles:
        """The given titles, encoded into one buffer."""
        data, bounds = bytearray(), array("q", [0])
        for title in titles:
            data += title.encode()
            bounds.append(len(data))
        return cls(data, bounds)

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The UTF-8 bytes of the titles ``rows`` indexes, concatenated into
        one uint8 array, and each one's length."""
        import numpy as np

        bounds = np.frombuffer(self._bounds, np.int64)
        starts = bounds[rows]
        lengths = bounds[rows + 1] - starts
        return np.frombuffer(self._data, np.uint8)[_spans(starts, lengths)], lengths


class NodeFile(NamedTuple):
    """A node file whose ids :func:`load_graph_file` read: its path, and
    its size, modification time and inode before that read."""

    path: str | Path
    stat: tuple[int, int, int]

    @classmethod
    def of(cls, path: str | Path) -> NodeFile:
        """The node file at ``path`` as it is now."""
        return cls(path, _file_stat(path))


def _file_stat(path: str | Path) -> tuple[int, int, int]:
    """The size, modification time in ns and inode of a file."""
    stat = os.stat(path)
    return stat.st_size, stat.st_mtime_ns, stat.st_ino


class Ranking(NamedTuple):
    """Articles in rank order: ``rows`` index ``titles``, and ``scores``
    holds each ranked article's score."""

    rows: np.ndarray  # int64
    scores: np.ndarray
    titles: Sequence[str]

    def head(self, count: int) -> list[tuple[str, float]]:
        """The first ``count`` articles as (title, score) pairs."""
        rows = self.rows[:count].tolist()
        return list(zip(map(self.titles.__getitem__, rows), self.scores[:count].tolist()))


def _block_rows(block: bytes) -> tuple[int, None]:
    """The number of rows of a block that a pattern matched: its line feeds."""
    return block.count(b"\n"), None


def _count_rows(rows: Iterator[list[str]]) -> tuple[int, None]:
    """The number of checked rows, of which nothing is kept."""
    return sum(1 for _ in rows), None


def compute_stats(
    edge_path: str | Path,
    node_path: str | Path,
    *,
    language: str = "",
    date: str = "",
) -> GraphStats:
    """Exact node and edge counts of one emitted snapshot graph.

    Each row's width and id columns (ASCII digits) are checked as
    :func:`load_graph_file` checks them, but the ids are never parsed: an
    id past ``2**63 - 1``, which :func:`load_graph_file` refuses, is
    counted here. The rows of each block :func:`storage.read_batches`
    takes are counted by their line ends.
    """
    edges = sum(rows for rows, _ in read_batches(
        edge_path, EDGE_FIELDS, EDGE_ID_COLUMNS, _BLOCK_BYTES, _block_rows, _count_rows,
        _BATCH_ROWS))
    nodes = sum(rows for rows, _ in read_batches(
        node_path, NODE_FIELDS, NODE_ID_COLUMNS, _BLOCK_BYTES, _block_rows, _count_rows,
        _BATCH_ROWS))
    return GraphStats(language, date, nodes, edges)


def write_growth_series(stats: Iterable[GraphStats], path: str | Path) -> int:
    """One row per (language, date): the growth of the graph over time."""
    with DatasetWriter(path, GROWTH_FIELDS) as writer:
        for item in sorted(stats, key=lambda s: (s.language, s.date)):
            writer.write_row(
                (item.language, item.date, str(item.node_count), str(item.edge_count))
            )
        return writer.rows_written


class LinkRows:
    """A graph's links as rows of its node ids, in (source, target) order.

    A row indexes ``ids``, the graph's ``n`` node ids in ascending order.
    ``targets`` holds each link's target row as an int32, and
    ``out_degree`` each row's number of links as an int32, so the links of
    row ``r`` are the ``out_degree[r]`` targets after those of the rows
    before it. ``len()`` is the number of links.
    """

    __slots__ = ("targets", "out_degree", "ids")

    def __init__(self, targets: np.ndarray, out_degree: np.ndarray, ids: np.ndarray) -> None:
        self.targets = targets
        self.out_degree = out_degree
        self.ids = ids

    def __len__(self) -> int:
        return len(self.targets)


def _rows_of(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``values`` in the sorted ``ids``, and whether each is listed there."""
    import numpy as np

    rows = np.searchsorted(ids, values)
    listed = rows < len(ids)
    listed[listed] = ids[rows[listed]] == values[listed]
    return rows, listed


def _pack(
    ids: np.ndarray, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The source and target rows of (source, target) id pairs in the
    sorted ``ids``, their keys ``source_row * n + target_row``, which rise
    with the pairs, and whether both ends of each pair are listed there."""
    source_rows, listed = _rows_of(ids, sources)
    target_rows, found = _rows_of(ids, targets)
    listed &= found
    return source_rows, target_rows, source_rows * len(ids) + target_rows, listed


def _parse_ids(text: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """The int64 ids ``text[lo[i]:hi[i]]``, each ASCII digits, or None if
    one has more than 19 digits or is past ``2**63 - 1``."""
    import numpy as np

    digits = int((hi - lo).max())
    if digits > 19:
        return None
    value = np.zeros(len(lo), np.uint64)
    for k in range(digits, 0, -1):  # right-aligned: the digit k places before hi
        at = hi - k
        digit = text[np.maximum(at, 0)] - np.uint8(ord("0"))
        digit[at < lo] = 0
        value *= 10
        value += digit
    if value.max() > 2**63 - 1:
        return None
    return value.view(np.int64)


def _block_ids(block: bytes) -> tuple[int, tuple[np.ndarray, np.ndarray]] | None:
    """The number of rows of a block of edge rows that the edge file's
    row pattern matched, and their source and target ids; None if an id
    has more than 19 digits or is past ``2**63 - 1``."""
    import numpy as np

    text = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    commas = np.flatnonzero(text == ord(","))
    if b'"' in block:  # a comma inside a quoted title follows an odd number of quotes
        commas = commas[np.searchsorted(np.flatnonzero(text == ord('"')), commas) % 2 == 0]
    commas = commas.reshape(-1, 3)  # the three delimiters of each row
    starts = np.concatenate(([0], ends[:-1] + 1))
    sources = _parse_ids(text, starts, commas[:, 0])
    targets = None if sources is None else _parse_ids(text, commas[:, 1] + 1, commas[:, 2])
    if targets is None:
        return None
    return len(sources), (sources, targets)


def _edge_rows(rows: Iterator[list[str]]) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
    """The number of checked edge rows, and their source and target ids,
    appended a row at a time."""
    import numpy as np

    sources, targets = array("q"), array("q")
    for row in rows:
        sources.append(int(row[0]))
        targets.append(int(row[2]))
    return len(sources), (np.frombuffer(sources, np.int64), np.frombuffer(targets, np.int64))


def _node_columns(text: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Where each row of a block of node rows that the node file's row
    pattern matched ends, where its first comma is, and the rows' ids; None
    for the ids if one has more than 19 digits or is past ``2**63 - 1``."""
    import numpy as np

    ends = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(text == ord(","))
    commas = commas[np.searchsorted(commas, starts)]  # an id holds no comma
    return ends, commas, _parse_ids(text, starts, commas)


def _block_node_ids(block: bytes) -> tuple[int, np.ndarray] | None:
    """The number of rows of a block of node rows that the node file's
    row pattern matched, and their ids; None as for :func:`_node_columns`."""
    import numpy as np

    ids = _node_columns(np.frombuffer(block, np.uint8))[2]
    return None if ids is None else (len(ids), ids)


def _node_id_rows(rows: Iterator[list[str]]) -> tuple[int, np.ndarray]:
    """The number of checked node rows, and their ids, appended a row at a
    time."""
    import numpy as np

    ids = array("q", (int(row[0]) for row in rows))
    return len(ids), np.frombuffer(ids, np.int64)


def _block_nodes(block: bytes) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]] | None:
    """The number of rows of a block of node rows that the node file's
    row pattern matched, and their ids, their titles' UTF-8 bytes,
    concatenated, and where each title ends in them; None as for
    :func:`_node_columns`."""
    import numpy as np

    text = np.frombuffer(block, np.uint8)
    ends, commas, ids = _node_columns(text)
    if ids is None:
        return None
    # A title's bytes lie between its row's first comma and its "\n": +1 at
    # the one and -1 at the other add up to 1 over the comma and the title.
    keep = np.zeros(len(text), np.int8)
    keep[commas] = 1
    keep[ends] = -1
    np.cumsum(keep, out=keep)
    keep[commas] = 0
    lengths = ends - commas - 1
    if b'"' in block:
        # Only a quoted title holds quotes, an even number of them: its
        # opening quote, the first of each doubled one and its closing
        # quote are dropped. Those are the block's quotes at odd positions
        # and the opening ones, which sit at even positions.
        quotes = np.flatnonzero(text == ord('"'))
        opening = commas[text[commas + 1] == ord('"')] + 1
        dropped = np.concatenate((opening, quotes[1::2]))
        keep[dropped] = 0
        lengths -= np.bincount(np.searchsorted(ends, dropped), minlength=len(ends))
    return len(ids), (ids, text[keep.view(bool)], np.cumsum(lengths))


def _node_rows(
    rows: Iterator[list[str]],
) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The number of checked node rows, and their ids, their titles' UTF-8
    bytes, concatenated, and where each title ends in them, appended a row
    at a time."""
    import numpy as np

    ids, titles, ends = array("q"), bytearray(), array("q")
    for row in rows:
        ids.append(int(row[0]))
        titles += row[1].encode()
        ends.append(len(titles))
    return len(ids), (np.frombuffer(ids, np.int64), np.frombuffer(titles, np.uint8),
                      np.frombuffer(ends, np.int64))


def _read_node_ids(node_path: str | Path) -> np.ndarray:
    """The node file's ids, a batch at a time."""
    import numpy as np

    ids = array("q")
    for _, batch_ids in read_batches(node_path, NODE_FIELDS, NODE_ID_COLUMNS, _BLOCK_BYTES,
                                     _block_node_ids, _node_id_rows, _BATCH_ROWS):
        ids.frombytes(memoryview(batch_ids).cast("B"))
    return np.frombuffer(ids, dtype=np.int64)


def read_titles(nodes: NodeFile, ids: np.ndarray) -> Titles:
    """The titles of the node file :func:`load_graph_file` read, read
    again, in file order: that of ``ids``, the ids it read.

    Rows are checked as :func:`load_graph_file` checks them, and each
    batch's ids against ``ids``; each title is UTF-8 encoded into one
    buffer. A file whose size, modification time or inode, before or after
    this read, are not those :func:`load_graph_file` found, or whose ids
    are not ``ids``, raises :class:`DataFormatError`: it changed between
    the two reads.
    """
    import numpy as np

    changed = DataFormatError(f"{nodes.path}: changed since pagerank read its ids")
    if _file_stat(nodes.path) != nodes.stat:
        raise changed
    data, bounds = bytearray(), array("q", [0]) * (len(ids) + 1)
    ends = np.frombuffer(bounds, np.int64)[1:]  # where each title ends in ``data``
    taken = 0
    for rows, (batch_ids, titles, batch_ends) in read_batches(
        nodes.path, NODE_FIELDS, NODE_ID_COLUMNS, _BLOCK_BYTES, _block_nodes, _node_rows,
        _BATCH_ROWS,
    ):
        if not np.array_equal(batch_ids, ids[taken:taken + rows]):
            raise changed
        np.add(batch_ends, len(data), out=ends[taken:taken + rows])
        data += memoryview(titles)
        taken += rows
    if taken != len(ids) or _file_stat(nodes.path) != nodes.stat:
        raise changed
    return Titles(data, bounds)


def load_graph_file(edge_path: str | Path, node_path: str | Path) -> tuple[LinkRows, NodeFile]:
    """The edges as :class:`LinkRows`, and the node file whose ids they
    index, for :func:`read_titles` to read the titles from.

    Rows are checked as :func:`compute_stats` checks them. Both files must
    be in the order ``graph`` writes them: node ids strictly ascending, and
    edge (page_id_from, page_id_to) pairs strictly ascending, so no pair is
    listed twice. An id past ``2**63 - 1``, a node id listed twice or out
    of order, an edge endpoint missing from the node file, or an edge out
    of order or repeated raises :class:`DataFormatError`. A fault in the
    edge file's rows is reported before any fault of the node file, and a
    fault of the node file before the first edge that is unlisted, out of
    order or repeated.

    Both files are read in blocks, as :func:`compute_stats` reads them,
    and numpy parses each block the pattern accepts: the ids of the edge
    file, and the ids alone of the node file. From the first block it
    refuses, or one with an id of more than 19 digits or past
    ``2**63 - 1``, the rest of that file is read through csv. Each batch of
    edges is checked and then appended as target rows and added to the
    out-degrees, so no array of one int64 per edge is built.
    """
    import numpy as np

    def edge_batches():
        return read_batches(edge_path, EDGE_FIELDS, EDGE_ID_COLUMNS, _BLOCK_BYTES, _block_ids,
                            _edge_rows, _BATCH_ROWS)

    nodes = NodeFile.of(node_path)
    try:
        ids = _read_node_ids(node_path)
        falls = np.flatnonzero(ids[1:] <= ids[:-1])
        if len(falls):
            before, after = ids[falls[0]:falls[0] + 2].tolist()
            if before == after:
                raise DataFormatError(f"{node_path}: page id {after} is listed twice")
            raise DataFormatError(f"{node_path}: row {falls[0] + 3} lists page id {after} after "
                                  f"page id {before}, out of page-id order")
        if len(ids) > _MAX_NODES:
            raise ConfigurationError(
                f"pagerank handles at most {_MAX_NODES:,} nodes, got {len(ids):,}"
            )
    except (DataFormatError, ConfigurationError):
        deque(edge_batches(), 0)  # a fault in the edge rows comes first
        raise
    n = len(ids)
    targets = array("i")
    out_degree = np.zeros(n, np.int32)
    last = -1  # the key of the last edge taken: keys rise strictly

    def take(first: int, source_ids: np.ndarray, target_ids: np.ndarray) -> str | None:
        """Appends a batch of edges whose first row is row ``first``, or
        returns its first fault's message."""
        nonlocal last
        source_rows, target_rows, keys, listed = _pack(ids, source_ids, target_ids)
        # The keys of the rows before the first unlisted endpoint must rise.
        listed_rows = len(keys) if listed.all() else int(listed.argmin())
        falls = np.flatnonzero(np.diff(keys[:listed_rows], prepend=last) <= 0)
        if len(falls):
            at = int(falls[0])
            pair, before = _pair(ids, keys[at]), _pair(ids, keys[at - 1] if at else last)
            if pair == before:
                return (f"{edge_path}: row {first + at} repeats the link from page id "
                        f"{pair[0]} to page id {pair[1]}")
            return (f"{edge_path}: row {first + at} links page id {pair[0]} to page id "
                    f"{pair[1]} after page id {before[0]} to page id {before[1]}, out of "
                    "(page_id_from, page_id_to) order")
        if listed_rows < len(keys):
            return (f"{edge_path}: row {first + listed_rows} links a page that {node_path} "
                    "does not list")
        targets.frombytes(memoryview(target_rows.astype(np.int32)).cast("B"))
        low = int(source_rows[0])  # the rows ascend, so their counts are a slice
        out_degree[low:int(source_rows[-1]) + 1] += np.bincount(source_rows - low)
        last = int(keys[-1])
        return None

    fault = None  # the first edge fault's message; past it, the rows are only checked
    first = 2  # the row number of each batch's first row
    for rows, batch in edge_batches():
        if fault is None:
            fault = take(first, *batch)
        del batch  # freed before the next block is parsed
        first += rows
    if fault is not None:
        raise DataFormatError(fault)
    return LinkRows(np.frombuffer(targets, dtype=np.int32), out_degree, ids), nodes


def _pair(ids: np.ndarray, key: int) -> tuple[int, int]:
    """The (source, target) ids of an edge's key."""
    source, target = divmod(int(key), len(ids))
    return int(ids[source]), int(ids[target])


def check_pagerank_options(damping: float, tolerance: float, max_iter: int) -> None:
    """Raise :class:`ConfigurationError` unless PageRank can run with these."""
    if not 0.0 < damping < 1.0:
        raise ConfigurationError(f"damping must be in (0, 1), got {damping}")
    if not tolerance >= 0.0:
        raise ConfigurationError(f"tolerance must be >= 0, got {tolerance}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")


def pagerank(
    links: LinkRows,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-12,
    max_iter: int = 200,
) -> PageRankResult:
    """Power-iteration PageRank over the graph :func:`load_graph_file` read.

    Every node of the node file is ranked; isolated nodes still receive
    teleport and dangling mass. Iteration stops when the L1 change drops
    below ``tolerance``; if ``max_iter`` is reached first the result
    carries ``converged=False``. An empty graph has nothing to move: its
    result is empty and converged after 0 iterations.

    Besides the links, which it only reads, a step holds the flow of one
    run of about ``_STEP_PAIRS`` links and four float64 node vectors. For
    any run size, the scores are bit-for-bit those of a CSR matrix-vector
    product.
    """
    import numpy as np

    check_pagerank_options(damping, tolerance, max_iter)
    ids, dst, out_degree = links.ids, links.targets, links.out_degree
    n = len(ids)
    if n == 0:
        return PageRankResult(ids, np.empty(0), True, 0)

    dangling = np.flatnonzero(out_degree == 0)  # gathers what a mask would, once
    share = 1.0 / np.maximum(out_degree, 1)  # 1/d, what each link of a source carries
    step_runs = _step_runs(out_degree, _STEP_PAIRS)

    # Each link carries x[source] * (0.0 + 1/d), which is x[source] *
    # share, so np.repeat spreads it without a per-link weight or source
    # array, one run of sources at a time. np.add.at then adds each flow
    # into its target in link order: every target's sum starts from 0.0
    # and adds its sources in ascending order, as a CSR matvec (and
    # np.bincount) does. The node-length update runs in place, in the
    # order of (1 - d) / n + d * (product + mass / n).
    x = np.full(n, 1.0 / n)
    product = np.empty(n)
    spread = np.empty(n)  # x * share, then |new - x|
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        dangling_mass = x[dangling].sum()
        np.multiply(x, share, out=spread)
        product.fill(0.0)
        for sources, pairs in step_runs:
            np.add.at(product, dst[pairs], np.repeat(spread[sources], out_degree[sources]))
        product += dangling_mass / n
        product *= damping
        product += (1.0 - damping) / n
        np.subtract(product, x, out=spread)
        delta = np.abs(spread, out=spread).sum()
        x, product = product, x
        if delta < tolerance:
            converged = True
            break
    return PageRankResult(ids, x, converged, iterations)


def _step_runs(out_degree: np.ndarray, size: int) -> list[tuple[slice, slice]]:
    """Consecutive runs of sources of about ``size`` links each, as the
    slices of their sources and of their links.

    A run ends only between two sources, so a source with more than
    ``size`` links is a run of its own.
    """
    import numpy as np

    ends = np.cumsum(out_degree, dtype=np.int64)
    total = int(ends[-1])
    runs = []
    source = link = 0
    while link < total:
        # The sources whose links all end within ``size`` of the run's
        # start, and at least one.
        end_source = max(int(np.searchsorted(ends, link + size, side="right")), source + 1)
        end_link = int(ends[end_source - 1])
        runs.append((slice(source, end_source), slice(link, end_link)))
        source, link = end_source, end_link
    return runs


def rank_articles(result: PageRankResult, titles: Sequence[str]) -> Ranking:
    """Descending by score; equal scores by title, then by id.

    ``titles`` are the ranked nodes' titles in the order of their ids,
    ascending, as :func:`read_titles` returns them, one per ranked id; the
    ranking's rows index them. One stable sort orders the scores, so each
    run of equal scores holds its rows in ascending id order, and
    :func:`_order_ties` orders the runs by title.
    """
    import numpy as np

    if len(titles) != len(result.node_ids):
        raise ValueError("the titles must cover exactly the ranked nodes")
    if not isinstance(titles, Titles):
        titles = Titles.of(titles)
    scores = result.scores
    rows = np.argsort(-scores, kind="stable")
    ordered = scores[rows]
    _order_ties(rows, ordered, titles)
    return Ranking(rows, ordered, titles)


def _order_ties(rows: np.ndarray, ordered: np.ndarray, titles: Titles) -> None:
    """Orders the ``rows`` of each run of equal ``ordered`` scores by
    title, in place; equal titles keep their order.

    The tied rows are sorted about ``_TIE_ROWS`` at a time, in whole runs,
    as :func:`_step_runs` cuts them (a longer run is sorted alone).
    """
    import numpy as np

    firsts = np.concatenate(([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1))
    sizes = np.diff(firsts, append=len(rows))
    tied = sizes > 1
    firsts, sizes = firsts[tied], sizes[tied]
    if len(sizes):
        for runs, _ in _step_runs(sizes, _TIE_ROWS):
            _sort_tied(rows, titles, firsts[runs], sizes[runs])


def _sort_tied(rows: np.ndarray, titles: Titles, firsts: np.ndarray, sizes: np.ndarray) -> None:
    """Sorts the runs of ``rows`` that start at ``firsts`` and hold
    ``sizes`` rows each by title, in place, keeping the order of equal
    titles.

    One stable sort keys each row on its run, its title's first 16 UTF-8
    bytes as two big-endian words (zeros past its end), and its length up
    to 17: UTF-8 byte order is code-point order, and the length puts a
    title before itself followed by NULs. Titles longer than 16 bytes that
    share all of these keys are then compared whole, by ``sorted``. About
    56 bytes per row are held.
    """
    import numpy as np

    at = _spans(firsts, sizes)  # the rows' places in ``rows``
    batch = rows[at]
    data = np.frombuffer(titles._data, np.uint8)
    bounds = np.frombuffer(titles._bounds, np.int64)
    starts = bounds[batch]
    left = bounds[batch + 1]
    left -= starts  # each title's bytes not yet taken into its words
    length = np.minimum(left, 17).astype(np.uint8)
    high, low = np.zeros(len(batch), np.uint64), np.zeros(len(batch), np.uint64)
    if len(data):
        for word in (high, low):
            for _ in range(8):
                byte = data.take(starts, mode="clip")
                byte[left <= 0] = 0
                word <<= 8
                word |= byte
                starts += 1
                left -= 1
    del starts, left
    run = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    order = np.lexsort((length, low, high, run))
    # Neighbours in sorted order whose keys are equal, both titles longer
    # than 16 bytes.
    same = length[order] == 17
    same = same[1:] & same[:-1]
    for key in (run, high, low):
        key = key[order]
        same &= key[1:] == key[:-1]
    del run, high, low, length
    batch = batch[order]
    del order
    pairs = np.flatnonzero(same)
    if len(pairs):
        buffer, offsets = titles._data, titles._bounds

        def utf8(row: int) -> bytearray:
            return buffer[offsets[row]:offsets[row + 1]]

        group_firsts = pairs[np.diff(pairs, prepend=-2) > 1]
        group_ends = pairs[np.diff(pairs, append=pairs[-1] + 2) > 1] + 2
        for lo, hi in zip(group_firsts.tolist(), group_ends.tolist()):
            batch[lo:hi] = sorted(batch[lo:hi].tolist(), key=utf8)
    rows[at] = batch


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i]`` to ``starts[i] + lengths[i] - 1`` of every
    i, concatenated."""
    import numpy as np

    ends = np.cumsum(lengths)
    index = np.repeat(starts + lengths - ends, lengths)
    index += np.arange(len(index))
    return index


def _quote_titles(
    text: np.ndarray, lengths: np.ndarray, quoted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated titles ``text`` of ``lengths`` with each title that
    ``quoted`` indexes written as csv.writer writes it as a field."""
    import numpy as np

    starts = np.cumsum(lengths) - lengths
    lines = CsvLines()
    csv.writer(lines, lineterminator="\n").writerows(
        ("", text[start:start + length].tobytes().decode(), "")
        for start, length in zip(starts[quoted].tolist(), lengths[quoted].tolist())
    )
    fields = [line[1:-2].encode() for line in lines]  # each line is ",<field>,\n"
    field_lengths = np.fromiter(map(len, fields), np.int64, len(fields))
    starts[quoted] = len(text) + np.cumsum(field_lengths) - field_lengths
    lengths[quoted] = field_lengths
    source = np.concatenate((text, np.frombuffer(b"".join(fields), np.uint8)))
    return source[_spans(starts, lengths)], lengths


def _ranking_lines(titles: Titles, rows: np.ndarray, scores: np.ndarray, first: int) -> str:
    """The rankings file's lines for the ranked node ``rows`` and their
    ``scores``, ranked from ``first`` on, as csv.writer writes them."""
    import numpy as np

    text, lengths = titles.gather(rows)
    # csv.writer decides how a title holding one of these is written.
    hits = np.flatnonzero(np.isin(text, np.frombuffer(b',"\r\n', np.uint8)))
    if len(hits):
        quoted = np.unique(np.searchsorted(np.cumsum(lengths), hits, side="right"))
        text, lengths = _quote_titles(text, lengths, quoted)
    # Each line without its title is its rank, two commas and its score;
    # the title goes before the second comma.
    bare = "".join(map("{},,{:.5e}\n".format, range(first, first + len(rows)), scores.tolist()))
    bare = np.frombuffer(bare.encode(), np.uint8)
    second_commas = np.flatnonzero(bare == ord(","))[1::2]
    at = _spans(second_commas + np.cumsum(lengths) - lengths, lengths)
    lines = np.empty(len(bare) + len(text), np.uint8)
    lines[at] = text
    rest = np.ones(len(lines), bool)
    rest[at] = False
    lines[rest] = bare
    return lines.tobytes().decode()


def write_rankings(ranking: Ranking, path: str | Path) -> int:
    """Rankings CSV with scores in scientific notation, 6 significant digits.

    Rows are formatted ``_RANKING_ROWS`` at a time into one string, with
    numpy, straight from the ranking's arrays and the titles' buffer; a
    title that csv.writer might quote is formatted by csv.writer."""
    titles = ranking.titles
    if not isinstance(titles, Titles):
        titles = Titles.of(titles)
    with DatasetWriter(path, RANKING_FIELDS) as writer:
        for first in range(0, len(ranking.rows), _RANKING_ROWS):
            rows = ranking.rows[first:first + _RANKING_ROWS]
            scores = ranking.scores[first:first + _RANKING_ROWS]
            writer.write_text(_ranking_lines(titles, rows, scores, first + 1), len(rows))
        return writer.rows_written
