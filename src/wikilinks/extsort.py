"""Disk-backed sorting for CSV row streams too large for memory.

:func:`external_sort` re-sorts an extract shard that came out of order
(``cli._sort_into``): rows spill to temporary CSV chunk files of bounded
size, k-way merged with :func:`heapq.merge`. The sort and the merge are
stable, which keeps each revision's links in document order without a
position column. ``graph`` deduplicates edges with :func:`unique_justseen`.
"""

from __future__ import annotations

import csv
import heapq
import tempfile
from typing import Callable, Iterable, Iterator, Sequence

Row = Sequence[str]


def _spill(rows: list[Row]):
    f = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    writer = csv.writer(f, lineterminator="\n")
    writer.writerows(rows)
    f.seek(0)
    return f


def external_sort(
    rows: Iterable[Row],
    key: Callable[[Row], object],
    *,
    chunk_rows: int = 200_000,
) -> Iterator[list[str]]:
    """Yield ``rows`` sorted by ``key`` using bounded memory."""
    chunks = []
    buffer: list[Row] = []
    try:
        for row in rows:
            buffer.append(row)
            if len(buffer) >= chunk_rows:
                buffer.sort(key=key)
                chunks.append(_spill(buffer))
                buffer = []
        buffer.sort(key=key)
        if not chunks:
            yield from buffer
            return
        if buffer:
            chunks.append(_spill(buffer))
        # heapq.merge breaks key ties toward the earlier iterable, and chunks
        # are passed in spill order, so the overall sort stays stable.
        yield from heapq.merge(*(csv.reader(f) for f in chunks), key=key)
    finally:
        for f in chunks:
            f.close()


def unique_justseen(
    rows: Iterable[Row], key: Callable[[Row], object]
) -> Iterator[Row]:
    """Drop consecutive rows with equal keys (sort-unique second half)."""
    last = object()
    for row in rows:
        k = key(row)
        if k != last:
            last = k
            yield row
