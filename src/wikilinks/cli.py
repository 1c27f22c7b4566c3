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
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigurationError, DataFormatError, DumpFormatError
from .snapshot import SnapshotDate, yearly_snapshot_dates
from .storage import (
    CHECKSUM_SUFFIX,
    CODECS,
    DEFAULT_SEVENZIP,
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


@dataclass
class RunConfig:
    """Validated settings shared by the subcommands."""

    language: str
    output_dir: Path
    inputs: list[Path] = field(default_factory=list)
    dates: list[SnapshotDate] = field(default_factory=yearly_snapshot_dates)
    jobs: int = 1
    codec: str | None = None
    strip_inert_spans: bool = False
    drop_self_loops: bool = False
    sevenzip_command: tuple[str, ...] = DEFAULT_SEVENZIP
    profiles_path: Path | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {self.jobs}")
        labels = [d.label for d in self.dates]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"duplicate snapshot dates: {labels}")
        self.dates = sorted(self.dates, key=lambda d: d.instant)

    def profile(self) -> LanguageProfile:
        from .wikitext import get_profile, load_profiles

        if self.profiles_path is not None:
            profiles = load_profiles(self.profiles_path)
            if self.language in profiles:
                return profiles[self.language]
        return get_profile(self.language)

    def path(self, kind: str, date: str | None = None, shard: int | None = None,
             plain: bool = False) -> Path:
        name = f"{self.language}wiki.{kind}"
        if shard is not None:
            name += f".{shard:04d}"
        if date is not None:
            name += f".{date}"
        name += ".csv" if plain else ".csv.gz"
        return self.output_dir / name

    def manifest_path(self) -> Path:
        return self.output_dir / f"{self.language}wiki.extract.manifest.json"


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        language=args.lang,
        output_dir=Path(args.output_dir),
        inputs=[Path(p) for p in getattr(args, "inputs", [])],
        dates=getattr(args, "date", None) or yearly_snapshot_dates(),
        jobs=getattr(args, "jobs", 1),
        codec=getattr(args, "codec", None),
        strip_inert_spans=getattr(args, "strip_inert_spans", False),
        drop_self_loops=getattr(args, "drop_self_loops", False),
        sevenzip_command=(
            tuple(shlex.split(args.sevenzip_command))
            if getattr(args, "sevenzip_command", None)
            else DEFAULT_SEVENZIP
        ),
        profiles_path=Path(args.profiles) if getattr(args, "profiles", None) else None,
    )


def extract_shard(config: RunConfig, profile: LanguageProfile, shard: int,
                  input_path: Path) -> RunSummary:
    """Extract one dump file into raw-link and redirect-history shard ``shard``.

    Everything the shard needs happens here, so it can run in a worker
    process: its files depend on its input alone, and only the summary, with
    the dump reader's issue counts in ``diagnostics`` and ``errors``, comes
    back.
    """
    from . import pipeline
    from .dump import filter_namespace, open_dump

    raw_path = config.path("rawwikilinks", shard=shard)
    redirect_path = config.path("redirecthistory", shard=shard)
    issues: Counter = Counter()
    pages = open_dump(
        input_path,
        config.codec,
        sevenzip_command=config.sevenzip_command,
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
            strip_inert_spans=config.strip_inert_spans,
        )
        if not summary.ascending:
            for writer, fields, key in (
                (sink, pipeline.RAW_LINK_FIELDS, pipeline.raw_sort_key),
                (redirect_sink, pipeline.REDIRECT_FIELDS, pipeline.redirect_sort_key),
            ):
                writer.abort()
                # No earlier run's shard may be read while this one is sorted.
                writer.path.unlink(missing_ok=True)
                # A prefix keeps the .gz suffix, so the file reads back decompressed.
                unsorted = writer.path.with_name("unsorted." + writer.path.name)
                partial_path(writer.path).replace(unsorted)
                try:
                    _sort_into(unsorted, writer.path, fields, key)
                finally:
                    unsorted.unlink(missing_ok=True)
    summary.errors = issues["page-skipped"]
    summary.diagnostics.update(issues)
    return summary


def cmd_extract(config: RunConfig) -> int:
    from .pipeline import RunSummary

    missing = [str(p) for p in config.inputs if not p.is_file()]
    if missing:
        _event("missing-input", paths=missing)
        return EXIT_USAGE
    profile = config.profile()
    config.output_dir.mkdir(parents=True, exist_ok=True)

    inputs = sorted(config.inputs, key=str)
    extract = functools.partial(extract_shard, config, profile)
    workers = min(config.jobs, len(inputs))
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
                "files": [config.path("rawwikilinks", shard=shard).name,
                          config.path("redirecthistory", shard=shard).name],
            })
            _event("extract-shard-done", shard=shard, **counts)
    manifest = {
        "language": config.language,
        "pages": totals.pages,
        "revisions": totals.revisions,
        "links": totals.links,
        "errors": totals.errors,
        "diagnostics": dict(sorted(totals.diagnostics.items())),
        "flags": {"strip_inert_spans": config.strip_inert_spans},
        "shards": shards,
    }
    # Published as every dataset file is, so a failed write leaves only .partial.
    partial = partial_path(config.manifest_path())
    partial.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(partial, config.manifest_path())
    _event(
        "extract-done",
        seconds=round(time.perf_counter() - started, 3),
        **{k: manifest[k] for k in ("pages", "revisions", "links", "errors")},
    )
    return EXIT_OK


def _sort_into(tmp_path: Path, final_path: Path, fields, key) -> None:
    from .extsort import external_sort

    with DatasetWriter(final_path, fields) as writer:
        writer.write_rows(external_sort(iter_rows(tmp_path, fields), key))


def _extract_shards(config: RunConfig) -> tuple[list[Path], list[Path]] | None:
    """The raw-link and redirect-history shards of the last extract run.

    They are read from the extract manifest, not found by name, so shards
    left over from an earlier run with more inputs are never read. Returns
    None when the manifest is missing.
    """
    path = config.manifest_path()
    if not path.is_file():
        return None
    refuse_stale(path)
    try:
        shards = json.loads(path.read_text(encoding="utf-8"))["shards"]
        raw = [config.output_dir / shard["files"][0] for shard in shards]
        redirects = [config.output_dir / shard["files"][1] for shard in shards]
    except (ValueError, KeyError, IndexError, TypeError) as err:
        raise DataFormatError(f"{path}: unreadable extract manifest: {err!r}") from err
    return raw, redirects


def cmd_snapshot(config: RunConfig) -> int:
    from . import pipeline, snapshot

    shards = _extract_shards(config)
    if shards is None:
        _event("missing-input", path=str(config.manifest_path()), detail="run extract first")
        return EXIT_USAGE
    raw_shards, redirect_shards = shards
    missing = [str(p) for p in raw_shards + redirect_shards if not p.is_file()]
    if not raw_shards or missing:
        _event("missing-input", paths=missing, detail="run extract first")
        return EXIT_USAGE
    # One pass over each input serves every date (see the snapshot module).
    dates = config.dates
    selection = snapshot.select_snapshot_revisions(
        pipeline.read_redirect_events(redirect_shards), dates
    )
    done = []
    for date, state in zip(dates, selection.states()):
        label = date.label
        rows = snapshot.resolve_snapshot(state)
        pages = snapshot.write_resolved_redirects(
            config.path("resolvedredirects", date=label), rows
        )
        # A cycle's final target is its immediate target without the fragment.
        cycles = [(row[1], row[4]) for row in rows if row[5] == snapshot.RESOLUTION_CYCLE]
        with DatasetWriter(
            config.path("redirectcycles", date=label, plain=True),
            ("title", "immediate_target"),
        ) as writer:
            writer.write_rows(cycles)
        done.append((label, pages, len(cycles)))
    # A failure mid-pass aborts every writer, so each date keeps its .partial file.
    with ExitStack() as stack:
        writers = [
            stack.enter_context(
                DatasetWriter(config.path("wikilinksnapshot", date=date.label),
                              snapshot.SNAPSHOT_LINK_FIELDS)
            )
            for date in dates
        ]
        snapshot.write_snapshot_links(writers, snapshot.build_link_snapshot(
            pipeline.read_raw_records(raw_shards), selection
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


def _graph_paths(config: RunConfig, label: str) -> tuple[Path, Path]:
    """The edge and node files of one date."""
    return (config.path("wikilinkgraph", date=label),
            config.path("wikilinkgraph.nodes", date=label))


def cmd_graph(config: RunConfig) -> int:
    from . import graph, snapshot

    for date in config.dates:
        label = date.label
        resolved_path = config.path("resolvedredirects", date=label)
        links_path = config.path("wikilinksnapshot", date=label)
        if _missing_input("run snapshot first", resolved_path, links_path):
            return EXIT_USAGE
        resolved = snapshot.read_resolved_redirects(resolved_path)
        links = snapshot.read_snapshot_links(links_path)
        edges, nodes = graph.build_graph(
            links, resolved, drop_self_loops=config.drop_self_loops
        )
        edge_path, node_path = _graph_paths(config, label)
        edge_count = graph.emit_edges(edges, edge_path)
        node_count = graph.emit_nodes(nodes, node_path)
        _event("graph-done", date=label, nodes=node_count, edges=edge_count)
    return EXIT_OK


def cmd_pagerank(config: RunConfig, args: argparse.Namespace) -> int:
    from . import analytics

    if args.output and len(config.dates) > 1:
        raise ConfigurationError("--output needs exactly one --date")
    analytics.check_pagerank_options(args.damping, args.tolerance, args.max_iter)
    for date in config.dates:
        label = date.label
        paths = _graph_paths(config, label)
        if _missing_input("run graph first", *paths):
            return EXIT_USAGE
        links, nodes = analytics.load_graph_file(*paths)
        result = analytics.pagerank(
            links,
            damping=args.damping,
            tolerance=args.tolerance,
            max_iter=args.max_iter,
        )
        ranking = analytics.rank_articles(result, nodes)
        out = args.output if args.output else config.path("pagerank", date=label)
        analytics.write_rankings(ranking, out)
        _event(
            "pagerank-done",
            date=label,
            nodes=len(nodes.ids),
            converged=result.converged,
            iterations=result.iterations,
            top=[(title, float(f"{score:.6g}")) for title, score in ranking.head(3)],
        )
    return EXIT_OK


def cmd_stats(config: RunConfig, args: argparse.Namespace) -> int:
    from . import analytics

    collected = []
    for date in config.dates:
        label = date.label
        paths = _graph_paths(config, label)
        if _missing_input("run graph first", *paths):
            return EXIT_USAGE
        stats = analytics.compute_stats(*paths, language=config.language, date=label)
        collected.append(stats)
        _event("stats", date=label, nodes=stats.node_count, edges=stats.edge_count)
    out = args.output if args.output else config.output_dir / f"{config.language}wiki.growth.csv"
    analytics.write_growth_series(collected, out)
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    failures = 0
    checked = 0
    for partial in sorted(config.output_dir.glob(f"*{PARTIAL_SUFFIX}")):
        _event("verify-partial-output", path=str(partial))
        failures += 1
    for sidecar in sorted(config.output_dir.glob(f"*{CHECKSUM_SUFFIX}")):
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

    def common(p: argparse.ArgumentParser, dates: bool = True) -> None:
        p.add_argument("--lang", required=True, help="language code, e.g. en")
        p.add_argument("--output-dir", required=True, help="directory for datasets")
        if dates:
            p.add_argument(
                "--date",
                action="append",
                type=date,
                metavar="YYYY-MM-DD",
                help="snapshot date, repeatable (default: every March 1st 2001-2018)",
            )

    p = sub.add_parser("extract", help="parse dumps into raw link and redirect datasets")
    common(p, dates=False)
    p.add_argument("inputs", nargs="+", metavar="DUMP", help="dump file(s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="dump files to extract at once; a single dump runs in one process")
    p.add_argument("--codec", choices=CODECS, help="force input codec (default: by extension)")
    p.add_argument(
        "--strip-inert-spans",
        action="store_true",
        help="ignore links inside HTML comments and <nowiki> spans",
    )
    p.add_argument(
        "--sevenzip-command",
        metavar="CMD",
        help='external decompressor command for 7z inputs (default: "7z e -so")',
    )
    p.add_argument("--profiles", help="JSON file overriding language redirect keywords")

    p = sub.add_parser("snapshot", help="select revisions and resolve redirects per date")
    common(p)

    p = sub.add_parser("graph", help="build deduplicated edge lists per date")
    common(p)
    p.add_argument(
        "--drop-self-loops",
        action="store_true",
        help="also drop self-loops that arise from redirect resolution",
    )

    p = sub.add_parser("pagerank", help="rank articles of each snapshot graph")
    common(p)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--output", help="rankings CSV path, or - for stdout")

    p = sub.add_parser("stats", help="count nodes/edges and emit the growth series")
    common(p)
    p.add_argument("--output", help="growth CSV path, or - for stdout")

    p = sub.add_parser("verify", help="recompute and compare all output checksums")
    common(p, dates=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return EXIT_USAGE if exit_.code not in (0, None) else EXIT_OK
    try:
        config = _config_from_args(args)
        if args.command == "extract":
            return cmd_extract(config)
        if args.command == "snapshot":
            return cmd_snapshot(config)
        if args.command == "graph":
            return cmd_graph(config)
        if args.command == "pagerank":
            return cmd_pagerank(config, args)
        if args.command == "stats":
            return cmd_stats(config, args)
        if args.command == "verify":
            return cmd_verify(config)
        parser.error(f"unknown command {args.command!r}")
    except ConfigurationError as err:
        _event("configuration-error", detail=str(err))
        return EXIT_USAGE
    except (DumpFormatError, DataFormatError) as err:
        _event("fatal", detail=str(err))
        return EXIT_FATAL
    except OSError as err:
        _event("fatal", detail=str(err))
        return EXIT_FATAL
    except (EOFError, zlib.error, csv.Error, ValueError) as err:
        # A truncated or corrupt dataset file, or a value in it that does not parse.
        _event("fatal", detail=f"{type(err).__name__}: {err}")
        return EXIT_FATAL
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
