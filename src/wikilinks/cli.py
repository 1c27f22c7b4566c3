"""Command line interface: one resumable subcommand per pipeline stage.

Every stage consumes and produces only files, so any stage can be rerun in
isolation. Progress and counters go to standard error as JSON lines;
standard output stays free for data (pass ``-`` as an output path to use
it). Exit codes: 0 success, 1 fatal processing error, 2 usage error or
missing input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import shlex
import sys
import time
import zlib
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigurationError, DataFormatError, DumpFormatError
from .snapshot import SnapshotDate, yearly_snapshot_dates
from .storage import (
    CHECKSUM_SUFFIX,
    PARTIAL_SUFFIX,
    DatasetWriter,
    iter_rows,
    partial_path,
    refuse_stale,
    verify_checksum,
)

# Every stage process imports this module, so each command imports the stage
# modules it runs itself: graph, stats, pagerank and verify never load the
# XML parser, the link scanner or the extract pipeline.
if TYPE_CHECKING:
    from .pipeline import RunSummary
    from .wikitext import LanguageProfile

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_USAGE = 2

ARTICLE_NAMESPACE = 0


def _event(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}, sort_keys=True), file=sys.stderr)


def _path(args: argparse.Namespace, kind: str, date: str | None = None,
          shard: int | None = None, plain: bool = False) -> Path:
    """The dataset file of ``kind``, with its shard number and date label."""
    name = f"{args.lang}wiki.{kind}"
    if shard is not None:
        name += f".{shard:04d}"
    if date is not None:
        name += f".{date}"
    name += ".csv" if plain else ".csv.gz"
    return args.output_dir / name


def _manifest_path(args: argparse.Namespace) -> Path:
    return args.output_dir / f"{args.lang}wiki.extract.manifest.json"


def _profile(args: argparse.Namespace) -> LanguageProfile:
    from .wikitext import get_profile, load_profiles

    if args.profiles is not None:
        profiles = load_profiles(args.profiles)
        if args.lang in profiles:
            return profiles[args.lang]
    return get_profile(args.lang)


def extract_shard(args: argparse.Namespace, profile: LanguageProfile, shard: int,
                  input_path: Path) -> RunSummary:
    """Extract one dump file into raw-link and redirect-history shard ``shard``.

    Everything the shard needs happens here, so it can run in a worker
    process: its files depend on its input alone, and only the summary, with
    the dump reader's issue counts in ``diagnostics`` and ``errors``, comes
    back.
    """
    from . import pipeline
    from .dump import filter_namespace, open_dump

    raw_path = _path(args, "rawwikilinks", shard=shard)
    redirect_path = _path(args, "redirecthistory", shard=shard)
    issues: Counter = Counter()
    pages = open_dump(
        input_path,
        sevenzip_command=args.sevenzip_command,
        on_issue=lambda issue: issues.update([issue.kind]),
    )
    # Rows are written already sorted while page ids ascend; a shard whose
    # pages break that order is sorted from its .partial file instead.
    with DatasetWriter(raw_path, pipeline.RAW_LINK_FIELDS) as sink, \
            DatasetWriter(redirect_path, pipeline.REDIRECT_FIELDS) as redirect_sink:
        summary = pipeline.extract_all(
            filter_namespace(pages, ARTICLE_NAMESPACE),
            profile,
            sink,
            redirect_sink=redirect_sink,
            strip_inert_spans=args.strip_inert_spans,
        )
        if not summary.ascending:
            for writer, fields, id_columns, key in (
                (sink, pipeline.RAW_LINK_FIELDS, pipeline.RAW_LINK_ID_COLUMNS,
                 pipeline.raw_sort_key),
                (redirect_sink, pipeline.REDIRECT_FIELDS, pipeline.REDIRECT_ID_COLUMNS,
                 pipeline.redirect_sort_key),
            ):
                writer.abort()
                # No earlier run's shard may be read while this one is sorted.
                writer.path.unlink(missing_ok=True)
                # A prefix keeps the .gz suffix, so the file reads back decompressed.
                unsorted = writer.path.with_name("unsorted." + writer.path.name)
                partial_path(writer.path).replace(unsorted)
                try:
                    _sort_into(unsorted, writer.path, fields, id_columns, key)
                finally:
                    unsorted.unlink(missing_ok=True)
    summary.errors = issues["page-skipped"]
    summary.diagnostics.update(issues)
    return summary


def cmd_extract(args: argparse.Namespace) -> int:
    from .pipeline import RunSummary

    missing = [str(p) for p in args.inputs if not p.is_file()]
    if missing:
        _event("missing-input", paths=missing)
        return EXIT_USAGE
    profile = _profile(args)
    args.output_dir.mkdir(parents=True, exist_ok=True)

    inputs = sorted(args.inputs, key=str)
    extract = functools.partial(extract_shard, args, profile)
    workers = min(args.jobs, len(inputs))
    totals = RunSummary()
    shards = []
    started = time.perf_counter()
    with ExitStack() as stack:
        if workers == 1:
            summaries = map(extract, range(len(inputs)), inputs)
        else:
            # Imported here: loading them costs every stage process 10 ms.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn")
            ))
            summaries = pool.map(extract, range(len(inputs)), inputs)
        for shard, input_path in enumerate(inputs):
            _event("extract-shard-start", input=str(input_path), shard=shard)
            summary = next(summaries)
            totals.merge(summary)
            counts = {"pages": summary.pages, "revisions": summary.revisions,
                      "links": summary.links, "resorted": not summary.ascending}
            shards.append({
                "input": str(input_path),
                "shard": shard,
                **counts,
                "files": [_path(args, "rawwikilinks", shard=shard).name,
                          _path(args, "redirecthistory", shard=shard).name],
            })
            _event("extract-shard-done", shard=shard, **counts)
    manifest = {
        "language": args.lang,
        "pages": totals.pages,
        "revisions": totals.revisions,
        "links": totals.links,
        "errors": totals.errors,
        "diagnostics": dict(sorted(totals.diagnostics.items())),
        "flags": {"strip_inert_spans": args.strip_inert_spans},
        "shards": shards,
    }
    # Published as every dataset file is, so a failed write leaves only .partial.
    partial = partial_path(_manifest_path(args))
    partial.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(partial, _manifest_path(args))
    _event(
        "extract-done",
        seconds=round(time.perf_counter() - started, 3),
        **{k: manifest[k] for k in ("pages", "revisions", "links", "errors")},
    )
    return EXIT_OK


def _sort_into(tmp_path: Path, final_path: Path, fields, id_columns, key) -> None:
    from .extsort import external_sort

    with DatasetWriter(final_path, fields) as writer:
        writer.write_rows(external_sort(iter_rows(tmp_path, fields, id_columns), key))


def _extract_shards(args: argparse.Namespace) -> tuple[list[Path], list[Path]] | None:
    """The raw-link and redirect-history shards of the last extract run.

    They are read from the extract manifest, not found by name, so shards
    left over from an earlier run with more inputs are never read. Returns
    None when the manifest is missing.
    """
    path = _manifest_path(args)
    if not path.is_file():
        return None
    refuse_stale(path)
    try:
        shards = json.loads(path.read_text(encoding="utf-8"))["shards"]
        raw = [args.output_dir / shard["files"][0] for shard in shards]
        redirects = [args.output_dir / shard["files"][1] for shard in shards]
    except (ValueError, KeyError, IndexError, TypeError) as err:
        raise DataFormatError(f"{path}: unreadable extract manifest: {err!r}") from err
    return raw, redirects


def cmd_snapshot(args: argparse.Namespace) -> int:
    from . import pipeline, snapshot

    shards = _extract_shards(args)
    if shards is None:
        _event("missing-input", path=str(_manifest_path(args)), detail="run extract first")
        return EXIT_USAGE
    raw_shards, redirect_shards = shards
    missing = [str(p) for p in raw_shards + redirect_shards if not p.is_file()]
    if not raw_shards or missing:
        _event("missing-input", paths=missing, detail="run extract first")
        return EXIT_USAGE
    # One pass over each input serves every date (see the snapshot module).
    dates = args.dates
    selection = snapshot.select_snapshot_revisions(
        pipeline.read_redirect_events(redirect_shards), dates
    )
    done = []
    for date, state in zip(dates, selection.states()):
        label = date.label
        rows = snapshot.resolve_snapshot(state)
        pages = snapshot.write_resolved_redirects(
            _path(args, "resolvedredirects", date=label), rows
        )
        # A cycle's final target is its immediate target without the fragment.
        cycles = [(row[1], row[4]) for row in rows if row[5] == snapshot.RESOLUTION_CYCLE]
        with DatasetWriter(
            _path(args, "redirectcycles", date=label, plain=True),
            ("title", "immediate_target"),
        ) as writer:
            writer.write_rows(cycles)
        done.append((label, pages, len(cycles)))
    # A failure mid-pass aborts every writer, so each date keeps its .partial file.
    with ExitStack() as stack:
        writers = [
            stack.enter_context(
                DatasetWriter(_path(args, "wikilinksnapshot", date=date.label),
                              snapshot.SNAPSHOT_LINK_FIELDS)
            )
            for date in dates
        ]
        snapshot.write_snapshot_links(writers, snapshot.build_link_snapshot(
            pipeline.read_raw_records(raw_shards, selection.revisions), selection
        ))
    for (label, pages, cycles), writer in zip(done, writers):
        _event(
            "snapshot-done", date=label, pages=pages, links=writer.rows_written,
            redirect_cycles=cycles,
        )
    return EXIT_OK


def _missing_input(detail: str, *paths: Path) -> bool:
    """Whether a path is not a file; emits ``missing-input`` for the first such."""
    missing = next((path for path in paths if not path.is_file()), None)
    if missing is not None:
        _event("missing-input", path=str(missing), detail=detail)
    return missing is not None


def _graph_paths(args: argparse.Namespace, label: str) -> tuple[Path, Path]:
    """The edge and node files of one date."""
    return (_path(args, "wikilinkgraph", date=label),
            _path(args, "wikilinkgraph.nodes", date=label))


def cmd_graph(args: argparse.Namespace) -> int:
    for date in args.dates:
        label = date.label
        resolved_path = _path(args, "resolvedredirects", date=label)
        links_path = _path(args, "wikilinksnapshot", date=label)
        if _missing_input("run snapshot first", resolved_path, links_path):
            return EXIT_USAGE
        _graph_date(args, label, resolved_path, links_path)
    return EXIT_OK


def _graph_date(args: argparse.Namespace, label: str, resolved_path: Path,
                links_path: Path) -> None:
    """Builds and writes one date's graph; what it reads is freed on return,
    before the next date is read."""
    from . import graph, snapshot

    resolved = snapshot.read_resolved_redirects(resolved_path)
    links = snapshot.read_snapshot_links(links_path)
    edges, nodes = graph.build_graph(links, resolved, drop_self_loops=args.drop_self_loops)
    edge_path, node_path = _graph_paths(args, label)
    edge_count = graph.emit_edges(edges, edge_path)
    node_count = graph.emit_nodes(nodes, node_path)
    _event("graph-done", date=label, nodes=node_count, edges=edge_count)


def cmd_pagerank(args: argparse.Namespace) -> int:
    # PageRank calls no BLAS routine, and OpenBLAS's idle worker threads
    # spin before they sleep; the setting must precede numpy's import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import analytics

    if args.output and len(args.dates) > 1:
        raise ConfigurationError("--output needs exactly one --date")
    analytics.check_pagerank_options(args.damping, args.tolerance, args.max_iter)
    for date in args.dates:
        label = date.label
        paths = _graph_paths(args, label)
        if _missing_input("run graph first", *paths):
            return EXIT_USAGE
        out = args.output if args.output else _path(args, "pagerank", date=label)
        _pagerank_date(args, label, paths, out)
    return EXIT_OK


def _pagerank_date(args: argparse.Namespace, label: str, paths: tuple[Path, Path],
                   out: str | Path) -> None:
    """Ranks one date's graph and writes its rankings; its arrays are freed
    on return, before the next date is read. Each phase holds only what it
    needs: the titles are read once the links are freed."""
    from . import analytics

    links, node_file = analytics.load_graph_file(*paths)
    result = analytics.pagerank(
        links,
        damping=args.damping,
        tolerance=args.tolerance,
        max_iter=args.max_iter,
    )
    del links  # ranking and writing need only the scores and the titles
    ranking = analytics.rank_articles(result, analytics.read_titles(node_file, result.node_ids))
    analytics.write_rankings(ranking, out)
    _event(
        "pagerank-done",
        date=label,
        nodes=len(result.node_ids),
        converged=result.converged,
        iterations=result.iterations,
        top=[(title, float(f"{score:.6g}")) for title, score in ranking.head(3)],
    )


def cmd_stats(args: argparse.Namespace) -> int:
    from . import analytics

    collected = []
    for date in args.dates:
        label = date.label
        paths = _graph_paths(args, label)
        if _missing_input("run graph first", *paths):
            return EXIT_USAGE
        stats = analytics.compute_stats(*paths, language=args.lang, date=label)
        collected.append(stats)
        _event("stats", date=label, nodes=stats.node_count, edges=stats.edge_count)
    out = args.output if args.output else args.output_dir / f"{args.lang}wiki.growth.csv"
    analytics.write_growth_series(collected, out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    checked = 0
    for partial in sorted(args.output_dir.glob(f"*{PARTIAL_SUFFIX}")):
        _event("verify-partial-output", path=str(partial))
        failures += 1
    for sidecar in sorted(args.output_dir.glob(f"*{CHECKSUM_SUFFIX}")):
        target = Path(str(sidecar)[: -len(CHECKSUM_SUFFIX)])
        checked += 1
        if not target.is_file():
            _event("verify-missing-file", path=str(target))
            failures += 1
            continue
        if verify_checksum(target):
            _event("verify-ok", path=str(target))
        else:
            _event("verify-mismatch", path=str(target))
            failures += 1
    _event("verify-done", files=checked, failures=failures)
    return EXIT_OK if failures == 0 else EXIT_FATAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikilinks",
        description="Build temporal article link datasets from MediaWiki history dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def date(value: str) -> SnapshotDate:
        # argparse names a bad value by its type's __name__: "invalid date value".
        return SnapshotDate.of(value)

    def command(name: str, run, summary: str, dates: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--lang", required=True, help="language code, e.g. en")
        p.add_argument("--output-dir", required=True, type=Path, help="directory for datasets")
        if dates:
            p.add_argument(
                "--date",
                dest="dates",
                action="append",
                type=date,
                metavar="YYYY-MM-DD",
                help="snapshot date, repeatable (default: every March 1st 2001-2018)",
            )
        return p

    p = command("extract", cmd_extract, "parse dumps into raw link and redirect datasets",
                dates=False)
    p.add_argument("inputs", nargs="+", type=Path, metavar="DUMP", help="dump file(s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="dump files to extract at once; a single dump runs in one process")
    p.add_argument(
        "--strip-inert-spans",
        action="store_true",
        help="ignore links inside HTML comments and <nowiki> spans",
    )
    p.add_argument(
        "--sevenzip-command",
        type=shlex.split,
        metavar="CMD",
        help='external decompressor command for 7z inputs (default: "7z e -so")',
    )
    p.add_argument("--profiles", type=Path,
                   help="JSON file overriding language redirect keywords")

    command("snapshot", cmd_snapshot, "select revisions and resolve redirects per date")

    p = command("graph", cmd_graph, "build deduplicated edge lists per date")
    p.add_argument(
        "--drop-self-loops",
        action="store_true",
        help="also drop self-loops that arise from redirect resolution",
    )

    p = command("pagerank", cmd_pagerank, "rank articles of each snapshot graph")
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--output", help="rankings CSV path, or - for stdout")

    p = command("stats", cmd_stats, "count nodes/edges and emit the growth series")
    p.add_argument("--output", help="growth CSV path, or - for stdout")

    command("verify", cmd_verify, "recompute and compare all output checksums", dates=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return EXIT_USAGE if exit_.code not in (0, None) else EXIT_OK
    try:
        # The two checks argparse cannot make.
        if getattr(args, "jobs", 1) < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
        if "dates" in args:
            dates = args.dates or yearly_snapshot_dates()
            labels = [d.label for d in dates]
            if len(set(labels)) != len(labels):
                raise ConfigurationError(f"duplicate snapshot dates: {labels}")
            args.dates = sorted(dates)
        return args.run(args)
    except ConfigurationError as err:
        _event("configuration-error", detail=str(err))
        return EXIT_USAGE
    except (DumpFormatError, DataFormatError, OSError) as err:
        _event("fatal", detail=str(err))
        return EXIT_FATAL
    except (EOFError, zlib.error, csv.Error, ValueError) as err:
        # A fault no reader names with its file, such as a dump id that is not a number.
        _event("fatal", detail=f"{type(err).__name__}: {err}")
        return EXIT_FATAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
