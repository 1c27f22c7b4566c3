"""Measurements over emitted graphs: counts, growth series, PageRank.

Counting (:func:`compute_stats`, :func:`write_growth_series`) needs only the
standard library; numpy is imported inside the functions that rank, so
``stats`` never loads it.

Graph files are read in decompressed blocks of whole lines, about 1 MB
each (:func:`storage.read_blocks`). A block takes the block path when the
file's header is exactly the one :class:`DatasetWriter` writes and one
match of ``_EDGE_ROWS`` or ``_NODE_ROWS`` accepts all of it: rows of the
right width as csv.writer writes them, id columns of ASCII digits, titles
bare or quoted with no carriage return, line feed or NUL, no field past
csv's field size limit, and valid UTF-8. Every line feed of such a block
ends a row, so :func:`compute_stats` counts them, and
:func:`load_graph_file` parses a block with numpy: the ids of an edge
block, and the ids and titles of a node block. An id of more than 19
digits, or past ``2**63 - 1``, sends its block to csv. One reader,
:func:`_graph_batches`, serves every file kind: from the first block that
does not take the block path, it reads the rest of the file through
:func:`storage.iter_rows`, as every other stage reads its inputs, past
the rows already taken. It checks each row as csv reads it, and the file
kind's row parser builds each batch a row at a time. The counts, the ids,
the titles and every error, with its row number, are then those of csv
alone. The patterns need Python 3.11; on 3.10 csv reads every file.

:func:`load_graph_file` reads the node file into int64 ids and
:class:`Titles`, both in file order, and then streams the edge file into a
:class:`LinkKey`, one int64 per edge. Titles come only from the node file,
which must list every edge endpoint exactly once. They are held as one
UTF-8 buffer and the offsets that bound each title: a node block's title
bytes are copied straight into the buffer, and only quoted titles are
unquoted, so a title is a ``str`` only while it is compared or quoted.

PageRank is a matrix-free power iteration over the graph
:func:`load_graph_file` read, its only input: each step spreads a node's
mass uniformly over its out-links, redistributes the mass held by dangling
nodes (out-degree 0) uniformly over all nodes, and mixes in a uniform
teleport with weight ``1 - damping``. Scores therefore sum to 1 at every
iteration. An empty graph is loaded, ranked and written the same way: its
result is empty and converged after 0 iterations. Node ids are mapped to
rows with a binary search over the sorted ids, and each edge is packed into
the key as ``source_row * n + target_row``. Sorted in place, the key gives
the out-degrees, and then turns into the target rows of the distinct
pairs. Those rows and one flow array per step are the only arrays as long
as the edge list that the iteration holds, and the dangling nodes' rows
are indexed once, before the first step. Each step repeats every
source's share of its score once per distinct pair and sums the shares
into the targets with ``np.bincount``. Ties in the ranking depend on the
last bit of each score, so the order of the sums and the update expression
stay fixed: each target's sum starts from 0.0 and adds its sources in
ascending order, as a CSR matrix-vector product does.

Articles are ranked by descending score, and articles with exactly equal
scores by title. A :class:`Ranking` is the node rows in rank order, an
int64 array, and their scores; titles are decoded only inside runs of
equal scores, where UTF-8 byte order is code-point order. The rankings
file is formatted ``_RANKING_ROWS`` rows at a time into one string, with
numpy, from the rows, the scores and the titles' buffer; only a title
holding a comma, quote, carriage return or line feed is decoded, so that
csv.writer itself writes it.
"""

from __future__ import annotations

import csv
import re
import sys
from array import array
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, TypeVar

from .errors import ConfigurationError, DataFormatError
from .graph import EDGE_FIELDS, NODE_FIELDS
from .storage import DatasetWriter, iter_rows, read_blocks, rows_pattern, undecodable_line

if TYPE_CHECKING:
    import numpy as np

RANKING_FIELDS = ("rank", "title", "score")
GROWTH_FIELDS = ("language", "date", "nodes", "edges")
_BATCH_ROWS = 1 << 16  # rows per batch read through csv
_BLOCK_BYTES = 1 << 20
_RANKING_ROWS = 1024  # rankings rows formatted at once: about 0.4 MB of temporaries
_FIELD_LIMIT = csv.field_size_limit()  # at import: the longest field the patterns take
if sys.version_info >= (3, 11):  # possessive repeats, so a match keeps no state per row
    _EDGE_ROWS = re.compile(rows_pattern(len(EDGE_FIELDS), (0, 2), _FIELD_LIMIT))
    _NODE_ROWS = re.compile(rows_pattern(len(NODE_FIELDS), (0,), _FIELD_LIMIT))
else:  # csv reads every graph file
    _EDGE_ROWS = _NODE_ROWS = re.compile(rb"(?!)")
_MAX_NODES = 3_037_000_499  # the largest n with n * n - 1 <= 2**63 - 1, for the pair key
_Batch = TypeVar("_Batch")  # what a file kind's parsers make of its rows


@dataclass(frozen=True, slots=True)
class GraphStats:
    language: str
    date: str
    node_count: int
    edge_count: int


@dataclass(frozen=True, slots=True)
class PageRankResult:
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


class GraphNodes(NamedTuple):
    """The nodes of a graph: int64 ids and their titles, in the same order."""

    ids: np.ndarray
    titles: Sequence[str]


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


def _graph_batches(
    path: str | Path,
    fields: Sequence[str],
    id_columns: Sequence[int],
    pattern: re.Pattern[bytes],
    block_batch: Callable[[bytes], tuple[int, _Batch] | None],
    row_batch: Callable[[Iterator[list[str]]], _Batch],
) -> Iterator[tuple[int, _Batch]]:
    """The rows of a graph file in batches, in file order: each batch's
    number of rows, and what the file kind's parsers make of them.

    Blocks of :func:`read_blocks` go to ``block_batch``, which returns the
    block's row count and its batch, or None to leave the block to csv. From
    the first block left, or the first one :func:`read_blocks` refuses, the
    rest of the file is read through :func:`iter_rows`, past the rows
    already taken. Each row's width (in :func:`iter_rows`) and then its id
    columns, ASCII digits, are checked as csv reads it, and ``row_batch``
    makes a batch of an iterator of at most ``_BATCH_ROWS`` checked rows. An
    id past ``2**63 - 1`` (an ``OverflowError`` in ``row_batch``) and a file
    that cannot be read to its end raise :class:`DataFormatError` naming
    the row, and a file that is not UTF-8 its first line that is not. If
    csv's field size limit has been lowered below the one ``pattern``
    takes, the whole file is read through csv.
    """
    taken = 0
    if csv.field_size_limit() >= _FIELD_LIMIT:
        for block in read_blocks(path, fields, pattern, _BLOCK_BYTES):
            batch = None if block is None else block_batch(block)
            if batch is None:
                break
            yield batch
            taken += batch[0]
        else:
            return
    read = 0  # data rows csv has read and checked

    def checked(rows: Iterator[list[str]]) -> Iterator[list[str]]:
        nonlocal read
        for row in rows:
            for col in id_columns:
                if not (row[col].isascii() and row[col].isdigit()):
                    raise DataFormatError(
                        f"{path}: row {read + 2} column {fields[col]} is not an id: {row[col]!r}"
                    )
            read += 1
            yield row

    try:
        rows = checked(iter_rows(path, fields))
        _skip_rows(islice(rows, taken))
        while True:
            start = read
            batch = row_batch(islice(rows, _BATCH_ROWS))
            if read == start:
                return
            yield read - start, batch
    except OverflowError:  # the last row read holds the id
        raise DataFormatError(f"{path}: row {read + 1} has an id past 2**63 - 1")
    except (DataFormatError, MemoryError):
        raise
    except UnicodeDecodeError as err:
        # The text layer decodes ahead of csv, so csv's row count does not
        # say where the fault is; a scan of the file's lines does.
        found = undecodable_line(path)
        if found is None:
            raise DataFormatError(f"{path}: unreadable row after {read} data rows: {err}")
        raise DataFormatError(f"{path}: line {found[0]} is not UTF-8: {found[1]}")
    except Exception as err:
        raise DataFormatError(f"{path}: unreadable row after {read} data rows: {err}")


def _block_rows(block: bytes) -> tuple[int, None]:
    """The number of rows of a block that a pattern matched: its line feeds."""
    return block.count(b"\n"), None


def _skip_rows(rows: Iterator[list[str]]) -> None:
    """Reads the checked rows and keeps nothing of them."""
    deque(rows, 0)


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
    counted here. A file is read in blocks of whole lines, each checked by
    one match of a pattern of the rows :class:`DatasetWriter` writes, and
    its rows are counted by their line ends. From the first block the
    pattern refuses, the rest of the file is read through csv, with the
    same counts and errors.
    """
    edges = sum(rows for rows, _ in _graph_batches(
        edge_path, EDGE_FIELDS, (0, 2), _EDGE_ROWS, _block_rows, _skip_rows))
    nodes = sum(rows for rows, _ in _graph_batches(
        node_path, NODE_FIELDS, (0,), _NODE_ROWS, _block_rows, _skip_rows))
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
    """The number of rows of a block of edge rows that ``_EDGE_ROWS``
    matched, and their source and target ids; None if an id has more than
    19 digits or is past ``2**63 - 1``."""
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


def _edge_rows(rows: Iterator[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The source and target ids of checked edge rows, appended a row at a time."""
    import numpy as np

    sources, targets = array("q"), array("q")
    for row in rows:
        sources.append(int(row[0]))
        targets.append(int(row[2]))
    return np.frombuffer(sources, np.int64), np.frombuffer(targets, np.int64)


def _block_nodes(block: bytes) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]] | None:
    """The number of rows of a block of node rows that ``_NODE_ROWS``
    matched, and their ids, their titles' UTF-8 bytes, concatenated, and
    where each title ends in them; None if an id has more than 19 digits or
    is past ``2**63 - 1``."""
    import numpy as np

    text = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(text == ord(","))
    commas = commas[np.searchsorted(commas, starts)]  # an id holds no comma
    ids = _parse_ids(text, starts, commas)
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


def _node_rows(rows: Iterator[list[str]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids of checked node rows, their titles' UTF-8 bytes, concatenated,
    and where each title ends in them, appended a row at a time."""
    import numpy as np

    ids, titles, ends = array("q"), bytearray(), array("q")
    for row in rows:
        ids.append(int(row[0]))
        titles += row[1].encode()
        ends.append(len(titles))
    return (np.frombuffer(ids, np.int64), np.frombuffer(titles, np.uint8),
            np.frombuffer(ends, np.int64))


def _read_nodes(node_path: str | Path) -> GraphNodes:
    """The node file's ids and titles, each title UTF-8 encoded into one
    buffer, a batch at a time."""
    import numpy as np

    ids = array("q")
    data, bounds = bytearray(), array("q", [0])
    for _, (batch_ids, titles, ends) in _graph_batches(
        node_path, NODE_FIELDS, (0,), _NODE_ROWS, _block_nodes, _node_rows
    ):
        ids.frombytes(memoryview(batch_ids).cast("B"))
        bounds.frombytes(memoryview(ends + len(data)).cast("B"))
        data += memoryview(titles)
    return GraphNodes(np.frombuffer(ids, dtype=np.int64), Titles(data, bounds))


def load_graph_file(edge_path: str | Path, node_path: str | Path) -> tuple[LinkKey, GraphNodes]:
    """The edges as a :class:`LinkKey` in file order, and the nodes in file
    order.

    Rows are checked as :func:`compute_stats` checks them. An id past
    ``2**63 - 1``, a node id listed twice or an edge endpoint missing from
    the node file raises :class:`DataFormatError`. A fault in the edge
    file's rows is reported before any fault of the node file, and a fault
    of the node file before an unlisted endpoint.

    Both files are read in blocks, as :func:`compute_stats` reads them,
    and numpy parses each block the pattern accepts: the ids of the edge
    file, and the ids and titles of the node file. From the first block it
    refuses, or one with an id of more than 19 digits or past
    ``2**63 - 1``, the rest of that file is read through csv.
    """
    import numpy as np

    def edge_batches():
        return _graph_batches(edge_path, EDGE_FIELDS, (0, 2), _EDGE_ROWS, _block_ids, _edge_rows)

    try:
        nodes = _read_nodes(node_path)
        ids = np.sort(nodes.ids)
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if len(repeated):
            raise DataFormatError(f"{node_path}: page id {repeated[0]} is listed twice")
        if len(ids) > _MAX_NODES:
            raise ConfigurationError(
                f"pagerank handles at most {_MAX_NODES:,} nodes, got {len(ids):,}"
            )
    except (DataFormatError, ConfigurationError):
        deque(edge_batches(), 0)  # a fault in the edge rows comes first
        raise
    key = array("q")
    unlisted = None
    first = 2  # the row number of each batch's first row
    for rows, (sources, targets) in edge_batches():
        if unlisted is None:  # past it, the rows are only checked
            packed, listed = _pack(ids, sources, targets)
            if listed.all():
                key.frombytes(memoryview(packed).cast("B"))
            else:
                unlisted = first + int(listed.argmin())
        first += rows
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


def pagerank(
    links: LinkKey,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-12,
    max_iter: int = 200,
) -> PageRankResult:
    """Power-iteration PageRank over the graph :func:`load_graph_file` read.

    The key is taken out of ``links`` and indexed in place. Every node of
    the node file is ranked; isolated nodes still receive teleport and
    dangling mass. Iteration stops when the L1 change drops below
    ``tolerance``; if ``max_iter`` is reached first the result carries
    ``converged=False``. An empty graph has nothing to move: its result is
    empty and converged after 0 iterations.
    """
    import numpy as np

    check_pagerank_options(damping, tolerance, max_iter)
    key, links.key = links.key, None
    if key is None:
        raise ValueError("this LinkKey was ranked already")
    ids = links.ids
    n = len(ids)
    if n == 0:
        return PageRankResult(ids, np.empty(0), True, 0)

    # One entry per distinct pair, sorted by (source, target). Each
    # source's first key is source * n, so its entries start where that
    # value would be inserted.
    key.sort()
    source_starts = np.arange(n + 1, dtype=np.int64) * n
    out_degree = np.diff(np.searchsorted(key, source_starts))
    dangling = np.flatnonzero(out_degree == 0)  # gathers what a mask would, once
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
    del source_starts, out_degree  # node-length arrays the steps do not read
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


def rank_articles(result: PageRankResult, nodes: GraphNodes) -> Ranking:
    """Descending by score; equal scores by title, then by id.

    ``nodes`` are the ranked graph's nodes, as :func:`load_graph_file`
    returns them, in any order; their ids must be exactly the ranked ids,
    and the ranking's rows index them. One stable sort orders the scores;
    titles are decoded and compared only inside runs of equal scores.
    """
    import numpy as np

    ids, titles = nodes
    ids = np.asarray(ids, dtype=np.int64)
    by_id = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[by_id], result.node_ids):
        raise ValueError("the titles must cover exactly the ranked nodes")

    scores = result.scores
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    rows = by_id[order]  # ascending id inside each run of equal scores
    del by_id, order
    bounds = np.concatenate(([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1, [len(rows)]))
    ties = np.flatnonzero(np.diff(bounds) > 1)
    for lo, hi in zip(bounds[ties].tolist(), bounds[ties + 1].tolist()):
        rows[lo:hi] = sorted(rows[lo:hi].tolist(), key=titles.__getitem__)
    return Ranking(rows, ordered, titles)


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i]`` to ``starts[i] + lengths[i] - 1`` of every
    i, concatenated."""
    import numpy as np

    ends = np.cumsum(lengths)
    index = np.repeat(starts + lengths - ends, lengths)
    index += np.arange(len(index))
    return index


class _Lines(list):
    """A sink for csv.writer that keeps each line it writes."""

    write = list.append


def _quote_titles(
    text: np.ndarray, lengths: np.ndarray, quoted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated titles ``text`` of ``lengths`` with each title that
    ``quoted`` indexes written as csv.writer writes it as a field."""
    import numpy as np

    starts = np.cumsum(lengths) - lengths
    lines = _Lines()
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
