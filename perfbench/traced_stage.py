"""Run one ``wikilinks`` CLI stage with per-layer spans recorded around it.

Usage: ``python3 perfbench/traced_stage.py TRACE_JSON STAGE ARGS...``, with
the same arguments as ``python -m wikilinks.cli``. Before calling
``wikilinks.cli.main`` it wraps the public functions of every layer module,
rebinding each ``from ... import`` copy too (``cli.external_sort``,
``graph.external_sort``, ``cli.iter_rows``, ``snapshot.normalize_title``
and so on), so the program itself is unchanged. A generator is timed across
each ``next()``. Counts are taken at the same boundaries. Spans are summed
in memory per name (calls, total and self seconds, where self time is a
span's duration minus the spans under it, and items yielded) and written to
TRACE_JSON when the stage ends, with the monotonic clock readings around
``main``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

from wikilinks import analytics, cli, dump, extsort, graph, pipeline, snapshot, storage, wikitext

now = time.perf_counter


class Tracer:
    """Nested spans summed per name, plus counters."""

    def __init__(self):
        self.stack = [[0.0, 0.0]]  # [start, time covered by child spans]
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s, items]
        self.counts: Counter = Counter()

    def _record(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0, 0])

    def _close(self, record: list, frame: list) -> None:
        duration = now() - frame[0]
        record[0] += 1
        record[1] += duration
        record[2] += duration - frame[1]
        self.stack[-1][1] += duration

    def function(self, name: str, fn, on_result=None):
        record = self._record(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [now(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self._close(record, frame)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def generator(self, name: str, fn):
        """Wrap a generator function; ``items`` counts what it yields."""
        record = self._record(name)

        def items(inner):
            while True:
                frame = [now(), 0.0]
                self.stack.append(frame)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.stack.pop()
                    self._close(record, frame)
                record[3] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return items(fn(*args, **kwargs))

        return traced


def install(tracer: Tracer) -> list[tuple[str, int]]:
    """Wrap every layer's public functions; returns the writer log."""
    count = tracer.counts.update
    written: list[tuple[str, int]] = []  # (path, rows) of every closed writer

    def rebind(modules, attr, wrapped):
        for module in modules:
            setattr(module, attr, wrapped)

    # dump: XML parsing, one page per next().
    read_pages = dump.read_pages

    def pages_with_revisions(*args, **kwargs):
        for page in read_pages(*args, **kwargs):
            count({"dump.revisions": len(page.revisions)})
            yield page

    dump.read_pages = tracer.generator("dump.read_pages", pages_with_revisions)

    # wikitext: link scan, redirect detection, title normalisation.
    rebind([wikitext, pipeline], "extract_links", tracer.function(
        "wikitext.extract_links", wikitext.extract_links,
        lambda links, _: count({"wikitext.links": len(links)})))
    rebind([wikitext, pipeline], "detect_redirect", tracer.function(
        "wikitext.detect_redirect", wikitext.detect_redirect))
    rebind([wikitext, snapshot], "normalize_title",
           tracer.function("wikitext.normalize_title", wikitext.normalize_title))

    # pipeline: row building (self time of extract_all) and the raw readers.
    pipeline.extract_all = tracer.function("pipeline.extract_all", pipeline.extract_all)
    pipeline.read_raw_records = tracer.generator(
        "pipeline.read_raw_records", pipeline.read_raw_records)
    pipeline.read_redirect_events = tracer.generator(
        "pipeline.read_redirect_events", pipeline.read_redirect_events)

    # storage: CSV/gzip rows in and out.
    rebind([storage, cli, pipeline, snapshot, graph, analytics], "iter_rows",
           tracer.generator("storage.read", storage.iter_rows))
    writer = storage.DatasetWriter
    for method in ("__init__", "write_row", "write_rows"):
        setattr(writer, method, tracer.function("storage.write", getattr(writer, method)))

    def closed(_result, args):
        self = args[0]
        if not self._stdout:
            written.append((str(self.path), self.rows_written))
            count({"storage.rows_written": self.rows_written,
                   "storage.bytes_written": os.path.getsize(self.path)})

    writer.close = tracer.function("storage.write", writer.close, closed)

    # extsort: the external merge sort and sort-unique.
    rebind([extsort, cli, pipeline, graph], "external_sort",
           tracer.generator("extsort.external_sort", extsort.external_sort))
    rebind([extsort, graph], "unique_justseen", tracer.generator(
        "extsort.unique_justseen", extsort.unique_justseen))

    # snapshot: revision selection, redirect resolution, link filtering.
    snapshot.select_snapshot_revisions = tracer.function(
        "snapshot.select", snapshot.select_snapshot_revisions)
    snapshot.resolve_snapshot = tracer.function("snapshot.resolve", snapshot.resolve_snapshot)
    snapshot.build_link_snapshot = tracer.generator(
        "snapshot.filter", snapshot.build_link_snapshot)
    snapshot.write_resolved_redirects = tracer.function(
        "snapshot.write", snapshot.write_resolved_redirects)
    snapshot.write_snapshot_links = tracer.function(
        "snapshot.write", snapshot.write_snapshot_links,
        lambda rows, _: count({"snapshot.links_kept": rows}))

    # graph: reading the snapshot back, candidate edges, dedup, emit.
    snapshot.read_resolved_redirects = tracer.function(
        "graph.read", snapshot.read_resolved_redirects)
    snapshot.read_snapshot_links = tracer.generator("graph.read", snapshot.read_snapshot_links)
    graph.build_graph = tracer.function("graph.build", graph.build_graph)
    graph.iter_candidate_edges = tracer.generator(
        "graph.candidates", graph.iter_candidate_edges)
    graph.emit_edges = tracer.function(
        "graph.build", graph.emit_edges, lambda rows, _: count({"graph.edges": rows}))
    graph.emit_nodes = tracer.function("graph.build", graph.emit_nodes)

    # analytics: load, iterate, rank, write, count.
    analytics.load_graph_file = tracer.function(
        "analytics.load_graph", analytics.load_graph_file,
        lambda result, _: count({"analytics.edges_loaded": len(result[0])}))
    analytics.pagerank = tracer.function(
        "analytics.pagerank", analytics.pagerank,
        lambda result, _: count({"analytics.iterations": result.iterations}))
    analytics.rank_articles = tracer.function("analytics.rank", analytics.rank_articles)
    analytics.write_rankings = tracer.function(
        "analytics.write_rankings", analytics.write_rankings)
    analytics.compute_stats = tracer.function(
        "analytics.compute_stats", analytics.compute_stats)
    return written


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    written = install(tracer)
    main_start = time.monotonic()
    code = cli.main(argv)
    main_end = time.monotonic()
    tracer.counts["storage.rows_outliving_stage"] = sum(
        rows for path, rows in written if os.path.exists(path)
    )
    with open(trace_path, "w", encoding="utf-8") as out:
        json.dump(
            {
                "main_start": main_start,
                "main_end": main_end,
                "spans": tracer.spans,
                "counts": tracer.counts,
            },
            out,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
