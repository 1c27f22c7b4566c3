from __future__ import annotations

import argparse
import ast
import concurrent.futures
import errno
import functools
import gzip
import json
import os
import shutil
from pathlib import Path

import pytest

from wikilinks import cli, dump, extsort, graph, pipeline, snapshot
from wikilinks.storage import iter_rows, sha256_of, verify_checksum

from conftest import FIXTURE_DATES, GOLDEN_DIR, run_pipeline
from test_dump import dump_bytes, page_xml


def base_args(out: Path) -> list[str]:
    return ["--lang", "en", "--output-dir", str(out)]


def date_args(dates=FIXTURE_DATES) -> list[str]:
    args = []
    for date in dates:
        args += ["--date", date]
    return args


class TestExtract:
    def test_manifest_counts(self, out_dir, minidump_path):
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        manifest = json.loads((out_dir / "enwiki.extract.manifest.json").read_text())
        assert manifest["pages"] == 12
        assert manifest["revisions"] == 26
        assert manifest["links"] == 53
        assert manifest["errors"] == 0
        assert manifest["diagnostics"]["missing-text"] == 1
        leftovers = [p.name for p in out_dir.iterdir() if not p.name.startswith("enwiki.")]
        assert leftovers == []  # no temp or marker files survive a clean run
        assert not list(out_dir.glob("*.unsorted"))
        assert not list(out_dir.glob("*.partial"))

    def test_missing_input_exits_2_without_partial_files(self, out_dir):
        rc = cli.main(["extract", *base_args(out_dir), str(out_dir / "absent.xml")])
        assert rc == 2
        assert list(out_dir.iterdir()) == []

    def test_rerun_produces_identical_checksums(self, out_dir, minidump_path, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        for target in (out_dir, other):
            assert cli.main(["extract", *base_args(target), str(minidump_path)]) == 0
        for name in ("enwiki.rawwikilinks.0000.csv.gz", "enwiki.redirecthistory.0000.csv.gz"):
            assert sha256_of(out_dir / name) == sha256_of(other / name)

    def test_compressed_dump_equals_plain(self, out_dir, minidump_path, tmp_path):
        gz_dump = tmp_path / "minidump.xml.gz"
        with gzip.open(gz_dump, "wb") as f:
            f.write(minidump_path.read_bytes())
        other = tmp_path / "gzout"
        other.mkdir()
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        assert cli.main(["extract", *base_args(other), str(gz_dump)]) == 0
        assert sha256_of(out_dir / "enwiki.rawwikilinks.0000.csv.gz") == sha256_of(
            other / "enwiki.rawwikilinks.0000.csv.gz"
        )

    def test_misnamed_dumps_give_identical_shards(self, minidump_path, tmp_path):
        import bz2

        data = minidump_path.read_bytes()
        shards = []
        for name, stored in (
            ("minidump.xml", data),
            ("minidump.xml.gz", data),
            ("minidump.bin", gzip.compress(data)),
            ("minidump.xml", bz2.compress(data)),
        ):
            run = tmp_path / f"run{len(shards)}"
            run.mkdir()
            (run / name).write_bytes(stored)
            out = run / "out"
            assert cli.main(["extract", *base_args(out), str(run / name)]) == 0
            shards.append({p.name: p.read_bytes() for p in out.glob("*.csv.gz*")})
        assert len(shards[0]) == 4  # two shards and their sidecars
        assert shards[1:] == shards[:1] * 3

    def test_malformed_dump_exits_1_with_partial_markers(self, out_dir, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<mediawiki><page><title>x</title")
        assert cli.main(["extract", *base_args(out_dir), str(bad)]) == 1
        markers = {p.name for p in out_dir.glob("*.partial")}
        assert markers == {
            "enwiki.rawwikilinks.0000.csv.gz.partial",
            "enwiki.redirecthistory.0000.csv.gz.partial",
        }
        assert cli.main(["verify", *base_args(out_dir)]) == 1

    def test_failed_manifest_write_leaves_only_a_partial_file(
        self, out_dir, minidump_path, monkeypatch, capsys
    ):
        manifest = out_dir / "enwiki.extract.manifest.json"
        write_text = Path.write_text

        def disk_full(self, data, *args, **kwargs):
            if self.name != manifest.name + ".partial":
                return write_text(self, data, *args, **kwargs)
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full)
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 1
        monkeypatch.undo()
        assert not manifest.exists()
        capsys.readouterr()
        assert cli.main(["verify", *base_args(out_dir)]) == 1
        events = stderr_events(capsys)
        assert {"event": "verify-partial-output", "path": str(manifest) + ".partial"} in events

    def test_a_manifest_left_stale_by_a_failed_extract_is_refused(
        self, out_dir, minidump_path, capsys
    ):
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        (out_dir / "enwiki.extract.manifest.json.partial").write_text("{")
        capsys.readouterr()
        assert cli.main(["snapshot", *base_args(out_dir), "--date", "2018-03-01"]) == 1
        (event,) = stderr_events(capsys)
        assert event["event"] == "fatal"
        assert "enwiki.extract.manifest.json: stale" in event["detail"]

    def test_multiple_input_files_become_shards(self, out_dir, minidump_path, tmp_path):
        second = tmp_path / "second.xml"
        second.write_bytes(minidump_path.read_bytes())
        rc = cli.main(["extract", *base_args(out_dir), str(second), str(minidump_path)])
        assert rc == 0
        names = sorted(p.name for p in out_dir.glob("enwiki.rawwikilinks.*.csv.gz"))
        assert names == ["enwiki.rawwikilinks.0000.csv.gz", "enwiki.rawwikilinks.0001.csv.gz"]


def _page(page_id, revisions):
    return page_xml(f"Page {page_id}", page_id, revisions)


def _rev(rev_id, timestamp, text):
    return {"id": rev_id, "timestamp": timestamp, "text": text}


# Page 3's history, listed with two same-second revisions out of id order.
PAGE_3 = [
    _rev(31, "2016-01-01T00:00:00Z", "[[A]] [[B|b]]"),
    _rev(33, "2016-05-01T10:00:00Z", "[[A]] == S ==\n[[C#x]]"),
    _rev(32, "2016-05-01T10:00:00Z", "[[C]] [[A]]"),
    _rev(34, "2017-02-01T00:00:00Z", "#REDIRECT [[Page 1]]"),
]
IN_ORDER_PAGES = [
    _page(1, [_rev(11, "2016-02-01T00:00:00Z", "[[Page 3]] [[D]]")]),
    _page(2, [_rev(22, "2016-03-01T00:00:00Z", "[[A]]"),
              _rev(21, "2016-03-01T00:00:00Z", "[[B]]")]),
    _page(3, PAGE_3),
    _page(5, [_rev(51, "2015-01-01T00:00:00Z", "no links")]),
]
# The same pages in descending id order, page 3 split across two elements.
SHUFFLED_PAGES = [
    _page(5, [_rev(51, "2015-01-01T00:00:00Z", "no links")]),
    _page(3, PAGE_3[2:]),
    _page(2, [_rev(22, "2016-03-01T00:00:00Z", "[[A]]"),
              _rev(21, "2016-03-01T00:00:00Z", "[[B]]")]),
    _page(3, PAGE_3[:2]),
    _page(1, [_rev(11, "2016-02-01T00:00:00Z", "[[Page 3]] [[D]]")]),
]
def _write_dumps(directory: Path, *shards) -> list[str]:
    """Write each list of pages as dump file ``d<number>.xml``; returns the paths."""
    paths = []
    for number, pages in enumerate(shards):
        path = directory / f"d{number}.xml"
        path.write_bytes(dump_bytes(*pages))
        paths.append(str(path))
    return paths


SHARDS = ("enwiki.rawwikilinks.0000.csv.gz", "enwiki.redirecthistory.0000.csv.gz")
# Timestamps with UTC offsets. In UTC, revisions 11-13 share one second and
# are listed out of id order, and revision 22 moves to the next day.
OFFSET_PAGES = [
    _page(1, [_rev(13, "2016-05-01T12:00:00+02:00", "[[B]] [[Page 2]]"),
              _rev(12, "2016-05-01T10:00:00Z", "[[A]] [[C#x|c]]"),
              _rev(11, "2016-05-01T09:30:00-00:30", "#REDIRECT [[A]]")]),
    _page(2, [_rev(22, "2016-04-30T23:30:00-01:00", "[[Page 1]]"),
              _rev(21, "2016-05-01T00:00:00Z", "#redirect [[Page 1#Top]]")]),
]


def every_stage(out: Path, dump: Path, capsys) -> list[tuple[int, list[dict]]]:
    """Each stage's exit code and events, extract to pagerank, over one dump."""
    runs = []
    for stage in (["extract", str(dump)], ["snapshot", *date_args()], ["graph", *date_args()],
                  ["stats", *date_args()], ["pagerank", "--date", "2018-03-01"]):
        capsys.readouterr()
        runs.append((cli.main([stage[0], *base_args(out), *stage[1:]]), stderr_events(capsys)))
    return runs


def assert_graphs_match_the_oracle(out: Path, dump: Path) -> None:
    import bruteforce

    for date in FIXTURE_DATES:
        edges = [(int(r[0]), r[1], int(r[2]), r[3]) for r in iter_rows(
            out / f"enwiki.wikilinkgraph.{date}.csv.gz", graph.EDGE_FIELDS)]
        nodes = [(int(r[0]), r[1]) for r in iter_rows(
            out / f"enwiki.wikilinkgraph.nodes.{date}.csv.gz", graph.NODE_FIELDS)]
        assert (edges, nodes) == bruteforce.snapshot_edges(dump, date), date


class TestTextsMediaWikiWouldNotSave:
    """extract reads what MediaWiki can save: it skips a page whose title
    holds a control character or more than 255 UTF-8 bytes, and makes line
    endings "\\n" in texts and contributor names. The files built from
    such a dump are those graph writes, and every stage reads them."""

    # A control character, or more than MediaWiki's 255 UTF-8 bytes: 65,537
    # "é" are past the 131,072 bytes a graph file's field may hold.
    @pytest.mark.parametrize("title", ["Be&#13;ta", "Be&#10;ta", "Be&#9;ta", "Be&#127;ta",
                                       "é" * 128, "é" * 65_537],
                             ids=["cr", "lf", "tab", "del", "256-bytes", "131074-bytes"])
    def test_a_title_mediawiki_cannot_hold_is_skipped(self, tmp_path, minidump_path, capsys,
                                                      title):
        dump = tmp_path / "dump.xml"
        dump.write_text(minidump_path.read_text(encoding="utf-8").replace(
            "<title>Beta</title>", f"<title>{title}</title>", 1), encoding="utf-8")
        out = tmp_path / "out"
        runs = every_stage(out, dump, capsys)
        assert [code for code, _ in runs] == [0] * 5
        (done,) = [e for e in runs[0][1] if e["event"] == "extract-done"]
        assert done["errors"] == 1
        nodes = {r[1] for r in iter_rows(
            out / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz", graph.NODE_FIELDS)}
        assert [t for t in nodes if t.startswith(("Be", "é"))] == []
        assert_graphs_match_the_oracle(out, dump)

    def test_carriage_returns_become_line_feeds(self, tmp_path, minidump_path, capsys):
        # A "&#13;" in an anchor, a link target, a section header and a
        # user name, and a "&#13;&#10;" in a text.
        text = minidump_path.read_text(encoding="utf-8")
        edits = [("See [[Delta#History|see]]", "See [[Delta#History|s{}ee]] [[Ze{}ta]]"),
                 ("=== Details ===", "=== Det{}ails ==="),
                 ("<username>Bob</username>", "<username>B{}ob</username>"),
                 ("Alpha begins the row.", "Alpha begins{}the row.")]
        outputs = {}
        for name, (cr, crlf) in {"cr": ("&#13;", "&#13;&#10;"), "lf": ("&#10;", "&#10;")}.items():
            variant = text
            for old, new in edits[:3]:
                assert old in variant
                variant = variant.replace(old, new.format(cr, cr))
            variant = variant.replace(edits[3][0], edits[3][1].format(crlf))
            dump = tmp_path / f"{name}.xml"
            dump.write_text(variant, encoding="utf-8")
            out = tmp_path / name
            assert [code for code, _ in every_stage(out, dump, capsys)] == [0] * 5
            assert_graphs_match_the_oracle(out, dump)
            outputs[name] = {p.name: sha256_of(p) for p in out.glob("*.csv*")
                             if not p.name.endswith((".sha256", ".json"))}
        # Each "\\r" reads as the "\\n" MediaWiki saves for it.
        assert outputs["cr"] == outputs["lf"]
        with gzip.open(tmp_path / "cr" / "enwiki.rawwikilinks.0000.csv.gz", "rt",
                       encoding="utf-8", newline="") as f:
            raw = f.read()
        assert "\r" not in raw and "s\nee" in raw and "B\nob" in raw

    @pytest.mark.parametrize("edges, row", [
        ("1,A,2,B\r\n2,B,1,A\r\n", "1,A,2,B\r\n"),
        ('1,A,2,B\n"2",B,1,A\n', '"2",B,1,A\n'),
    ], ids=["crlf", "quoted-id"])
    @pytest.mark.parametrize("stage", ["stats", "pagerank"])
    def test_a_graph_file_graph_would_not_write_is_refused(self, out_dir, capsys, edges, row,
                                                           stage):
        write_edge_text(out_dir, edges)
        graph.emit_nodes([(1, "A"), (2, "B")],
                         out_dir / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz")
        capsys.readouterr()
        assert cli.main([stage, *base_args(out_dir), "--date", "2018-03-01"]) == 1
        (event,) = stderr_events(capsys)
        number = 2 if edges.startswith(row) else 3
        assert event == {"event": "fatal", "detail": (
            f"{out_dir / 'enwiki.wikilinkgraph.2018-03-01.csv.gz'}: row {number} is not as the "
            f"pipeline writes rows: {row.encode()!r}")}


class TestExtractWritePaths:
    """Extract writes in-order dumps straight to the final files and sorts
    the others afterwards; both paths must give the same bytes."""

    def _extract(self, tmp_path, name, pages, jobs):
        dump = tmp_path / f"{name}.xml"
        dump.write_bytes(dump_bytes(*pages))
        out = tmp_path / name
        out.mkdir()
        assert cli.main(["extract", *base_args(out), "--jobs", str(jobs), str(dump)]) == 0
        return out

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_out_of_order_dump_gives_the_same_shards(self, tmp_path, jobs):
        ordered = self._extract(tmp_path, "ordered", IN_ORDER_PAGES, jobs)
        shuffled = self._extract(tmp_path, "shuffled", SHUFFLED_PAGES, jobs)
        for out, resorted in ((ordered, False), (shuffled, True)):
            manifest = json.loads((out / "enwiki.extract.manifest.json").read_text())
            assert manifest["shards"][0]["resorted"] is resorted
            assert sorted(p.name for p in out.iterdir() if "unsorted" in p.name) == []
            assert not list(out.glob("*.partial"))
        for name in SHARDS:
            expected = gzip.open(ordered / name, "rb").read()
            assert gzip.open(shuffled / name, "rb").read() == expected, name
            assert verify_checksum(shuffled / name) and verify_checksum(ordered / name)
        raw = list(iter_rows(ordered / SHARDS[0]))
        assert [(r[0], r[2], r[9]) for r in raw if r[0] == "3"] == [
            ("3", "31", "A"), ("3", "31", "B"), ("3", "32", "C"), ("3", "32", "A"),
            ("3", "33", "A"), ("3", "33", "C"), ("3", "34", "Page 1"),
        ]

    def test_offset_timestamps_match_golden(self, tmp_path):
        out = self._extract(tmp_path, "offsets", OFFSET_PAGES, 1)
        for name, golden in zip(SHARDS, ("enwiki.rawwikilinks.offsets.csv",
                                         "enwiki.redirecthistory.offsets.csv")):
            produced = gzip.open(out / name, "rb").read()
            assert produced == (GOLDEN_DIR / golden).read_bytes(), name

    def test_in_order_dump_is_never_sorted_again(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("extract sorted an in-order dump")

        monkeypatch.setattr(extsort, "external_sort", refuse)
        monkeypatch.setattr(cli, "_sort_into", refuse)
        out = self._extract(tmp_path, "ordered", IN_ORDER_PAGES, 1)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*SHARDS, *(name + ".sha256" for name in SHARDS), "enwiki.extract.manifest.json"]
        )
        for name in SHARDS:
            assert verify_checksum(out / name)


# The file of each kind that a later stage reads, and the stages that read it.
DAMAGED_FILES = {
    "rawwikilinks": ("rawwikilinks.0000", ["snapshot"]),
    "redirecthistory": ("redirecthistory.0000", ["snapshot"]),
    "resolvedredirects": ("resolvedredirects.2018-03-01", ["graph"]),
    "wikilinksnapshot": ("wikilinksnapshot.2018-03-01", ["graph"]),
    "edges": ("wikilinkgraph.2018-03-01", ["stats", "pagerank"]),
    "nodes": ("wikilinkgraph.nodes.2018-03-01", ["stats", "pagerank"]),
}
# The kinds of damage to row 3 of a file, each with the id it puts in the
# first column, if any.
DAMAGES = {"byte": None, "cut": None, "id": "x3", "0_1": "0_1", "space": " 3",
           "fullwidth": "\uff13", "short": None}
# Damages to the order of the graph files, which pagerank checks: rows 3 and
# 4 swapped, or row 3 repeated as row 4, each with what the fault's message
# says of row 4.
ORDER_DAMAGES = {
    ("edges", "swap"): "links page id",
    ("edges", "repeat"): "repeats the link",
    ("nodes", "swap"): "lists page id",
}


@pytest.fixture(scope="module")
def damaged_run(tmp_path_factory) -> Path:
    """An undamaged run of the pipeline on the mini dump at one date."""
    out = tmp_path_factory.mktemp("undamaged")
    run_pipeline(out, dates=("2018-03-01",))
    return out


class TestSnapshotAndGraph:
    def test_snapshot_requires_extract(self, out_dir):
        assert cli.main(["snapshot", *base_args(out_dir), "--date", "2018-03-01"]) == 2

    def test_snapshot_requires_extract_manifest(self, out_dir, minidump_path):
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        (out_dir / "enwiki.extract.manifest.json").unlink()
        assert cli.main(["snapshot", *base_args(out_dir), "--date", "2018-03-01"]) == 2

    def test_snapshot_reads_only_the_shards_of_the_last_extract(
        self, out_dir, minidump_path, tmp_path
    ):
        first = tmp_path / "d1.xml"
        second = tmp_path / "d2.xml"
        for dump in (first, second):
            dump.write_bytes(minidump_path.read_bytes())
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert cli.main(["extract", *base_args(out_dir), str(first), str(second)]) == 0
        assert cli.main(["extract", *base_args(out_dir), str(first)]) == 0
        assert (out_dir / "enwiki.rawwikilinks.0001.csv.gz").exists()  # left over
        assert cli.main(["extract", *base_args(fresh), str(first)]) == 0
        for target in (out_dir, fresh):
            assert cli.main(["snapshot", *base_args(target), *date_args()]) == 0
        for date in FIXTURE_DATES:
            for kind in ("resolvedredirects", "wikilinksnapshot"):
                name = f"enwiki.{kind}.{date}.csv.gz"
                assert sha256_of(out_dir / name) == sha256_of(fresh / name), name

    def test_truncated_raw_shard_is_fatal_and_marks_every_date(
        self, out_dir, minidump_path, capsys
    ):
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        shard = out_dir / "enwiki.rawwikilinks.0000.csv.gz"
        shard.write_bytes(shard.read_bytes()[:-12])
        capsys.readouterr()
        assert cli.main(["snapshot", *base_args(out_dir), *date_args()]) == 1
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["event"] for e in events] == ["fatal"]
        for date in FIXTURE_DATES:
            assert (out_dir / f"enwiki.wikilinksnapshot.{date}.csv.gz.partial").exists()
        assert cli.main(["verify", *base_args(out_dir)]) == 1

    def test_failed_extract_leaves_shards_that_snapshot_refuses(
        self, out_dir, minidump_path, tmp_path, capsys
    ):
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        first = {name: (out_dir / name).read_bytes() for name in SHARDS}
        bad = tmp_path / "bad.xml"
        bad.write_bytes(minidump_path.read_bytes()[:2000])
        assert cli.main(["extract", *base_args(out_dir), str(bad)]) == 1
        # The final names keep the first run's complete shards; the failed
        # run's rows are only in the .partial files.
        for name, data in first.items():
            assert (out_dir / name).read_bytes() == data, name
            assert verify_checksum(out_dir / name), name
            assert (out_dir / f"{name}.partial").exists(), name
        # The earlier manifest still names the shards, now stale.
        capsys.readouterr()
        assert cli.main(["snapshot", *base_args(out_dir), *date_args()]) == 1
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["event"] for e in events] == ["fatal"]
        assert ".partial" in events[0]["detail"]
        assert cli.main(["verify", *base_args(out_dir)]) == 1

    def test_failed_resort_leaves_no_shard_under_the_final_name(
        self, out_dir, tmp_path, capsys, monkeypatch
    ):
        (good,) = _write_dumps(tmp_path, IN_ORDER_PAGES)
        assert cli.main(["extract", *base_args(out_dir), good]) == 0

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_sort_into", fail)
        shuffled = tmp_path / "shuffled.xml"
        shuffled.write_bytes(dump_bytes(*SHUFFLED_PAGES))
        assert cli.main(["extract", *base_args(out_dir), str(shuffled)]) == 1
        raw = out_dir / SHARDS[0]
        assert not raw.exists()
        assert not [p.name for p in out_dir.iterdir() if "unsorted" in p.name]
        capsys.readouterr()
        assert cli.main(["snapshot", *base_args(out_dir), *date_args()]) == 2
        (event,) = stderr_events(capsys)
        assert event["event"] == "missing-input"
        assert event["paths"] == [str(raw)]

    def _refuse_snapshot(self, tmp_path, capsys, *shards) -> str:
        """Extract ``shards`` as dump files, then expect snapshot to refuse them
        before it opens any output; returns the fatal event's detail."""
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["extract", *base_args(out), *_write_dumps(tmp_path, *shards)]) == 0
        before = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        assert cli.main(["snapshot", *base_args(out), *date_args()]) == 1
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["event"] for e in events] == ["fatal"]
        assert sorted(p.name for p in out.iterdir()) == before
        return events[0]["detail"]

    def test_snapshot_refuses_a_page_id_with_two_titles(self, tmp_path, capsys):
        detail = self._refuse_snapshot(
            tmp_path, capsys,
            [page_xml("Alpha", 1, [_rev(11, "2016-01-01T00:00:00Z", "[[Beta]]")])],
            [page_xml("Beta", 1, [_rev(12, "2016-02-01T00:00:00Z", "[[Alpha]]")])],
        )
        assert "page 1 carries two titles" in detail

    def test_snapshot_refuses_a_dump_extracted_twice(self, out_dir, minidump_path, tmp_path,
                                                     capsys):
        # Both shards list every revision, so each of its links would be written twice.
        second = tmp_path / "second.xml"
        second.write_bytes(minidump_path.read_bytes())
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path), str(second)]) == 0
        capsys.readouterr()
        assert cli.main(["snapshot", *base_args(out_dir), "--date", "2018-03-01"]) == 1
        assert stderr_events(capsys) == [{
            "event": "fatal",
            "detail": "page 1 lists revision 101 twice; inputs are inconsistent",
        }]
        assert not list(out_dir.glob("enwiki.wikilinksnapshot.*"))

    def test_snapshot_refuses_a_revision_listed_at_two_timestamps(self, tmp_path, capsys):
        # The shards are each in order, but revision 11's links would come twice.
        text = "[[Beta]] [[Gamma]]"
        detail = self._refuse_snapshot(
            tmp_path, capsys,
            [page_xml("Alpha", 1, [_rev(11, "2016-01-01T00:00:00Z", text)])],
            [page_xml("Alpha", 1, [_rev(11, "2016-02-01T00:00:00Z", text)])],
        )
        assert detail == "page 1 lists revision 11 twice; inputs are inconsistent"

    def test_snapshot_refuses_a_title_held_by_two_page_ids(self, tmp_path, capsys):
        alpha = page_xml("Alpha", 1, [_rev(11, "2016-01-01T00:00:00Z", "[[Beta]]")])
        # A page id that only appears after the last date exists at no date.
        later = page_xml("Alpha", 2, [_rev(21, "2019-01-01T00:00:00Z", "x")])
        valid = tmp_path / "valid"
        valid.mkdir()
        assert cli.main(["extract", *base_args(valid), *_write_dumps(valid, [alpha, later])]) == 0
        assert cli.main(["snapshot", *base_args(valid), *date_args()]) == 0

        again = page_xml("Alpha", 2, [_rev(21, "2016-06-01T00:00:00Z", "x")])
        detail = self._refuse_snapshot(tmp_path, capsys, [alpha], [again])
        assert "title 'Alpha' is held by more than one page id" in detail

    @pytest.mark.parametrize("damage", list(DAMAGES))
    @pytest.mark.parametrize("kind", list(DAMAGED_FILES))
    def test_corrupt_value_is_fatal(self, damaged_run, tmp_path, capsys, kind, damage):
        """Every stage that reads a damaged file exits 1 with one fatal
        event naming the file and the line or row of the fault."""
        out = tmp_path / "out"
        shutil.copytree(damaged_run, out)
        name, stages = DAMAGED_FILES[kind]
        path = out / f"enwiki.{name}.csv.gz"
        data = path.read_bytes()
        lines = gzip.decompress(data).splitlines(keepends=True)
        header = lines[0].decode().rstrip("\n").split(",")
        line = lines[2]  # data row 2, row and line 3 of the file
        if damage == "cut":
            path.write_bytes(data[:len(data) // 2])
            expected = f"{path}: unreadable row after "
        else:
            if damage == "byte":
                lines[2] = line[:-1] + b"\xff\n"
                expected = f"{path}: line 3 is not UTF-8: "
            elif damage == "short":
                lines[2] = line.rsplit(b",", 1)[0] + b"\n"
                expected = f"{path}: row 3 has {len(header) - 1} columns, expected {len(header)}"
            else:
                value = DAMAGES[damage]
                lines[2] = value.encode() + line[line.index(b","):]
                expected = f"{path}: row 3 column {header[0]} is not an id: {value!r}"
            path.write_bytes(gzip.compress(b"".join(lines), mtime=0))
        for stage in stages:
            capsys.readouterr()
            assert cli.main([stage, *base_args(out), "--date", "2018-03-01"]) == 1, stage
            err = capsys.readouterr().err
            assert "Traceback" not in err
            (event,) = map(json.loads, err.splitlines())
            assert event["event"] == "fatal" and event["detail"].startswith(expected), stage

    @pytest.mark.parametrize("kind, damage", list(ORDER_DAMAGES))
    def test_graph_file_out_of_order_is_fatal(self, damaged_run, tmp_path, capsys, kind,
                                              damage):
        """pagerank exits 1 with one fatal event naming the file and the
        row that breaks the order graph writes."""
        out = tmp_path / "out"
        shutil.copytree(damaged_run, out)
        path = out / f"enwiki.{DAMAGED_FILES[kind][0]}.csv.gz"
        lines = gzip.decompress(path.read_bytes()).splitlines(keepends=True)
        if damage == "swap":
            lines[2], lines[3] = lines[3], lines[2]
        else:
            lines.insert(3, lines[2])
        path.write_bytes(gzip.compress(b"".join(lines), mtime=0))
        capsys.readouterr()
        assert cli.main(["pagerank", *base_args(out), "--date", "2018-03-01"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (event,) = map(json.loads, err.splitlines())
        assert event["event"] == "fatal"
        assert event["detail"].startswith(f"{path}: row 4 {ORDER_DAMAGES[kind, damage]} ")

    def test_a_date_is_freed_before_the_next_is_built(self, tmp_path):
        # Two dates of the same snapshot peak no higher than one: the first
        # date's pages and nodes are gone before the second's are read.
        # Kept, they added about 1 MB. The slack holds what CPython's free
        # lists keep of the first date: 2,000 tuples of each size.
        from wikilinks.snapshot import SNAPSHOT_LINK_FIELDS, write_resolved_redirects
        from wikilinks.storage import DatasetWriter

        pages = range(1, 5_001)
        dates = ("2017-03-01", "2018-03-01")
        for date in dates:
            write_resolved_redirects(
                tmp_path / f"enwiki.resolvedredirects.{date}.csv.gz",
                ((str(i), f"Page {i}", "0", "", "", "article") for i in pages))
            with DatasetWriter(tmp_path / f"enwiki.wikilinksnapshot.{date}.csv.gz",
                               SNAPSHOT_LINK_FIELDS) as writer:
                writer.write_rows((str(i), f"Page {i}", f"Page {1 + (i * k) % 5_000}",
                                   "", "", "", "0", "0", "1")
                                  for i in pages for k in (2, 3, 7))
        assert cli.main(["graph", *base_args(tmp_path), "--date", dates[1]]) == 0  # imports
        one = traced_peak(["graph", *base_args(tmp_path), "--date", dates[1]])
        two = traced_peak(["graph", *base_args(tmp_path), *date_args(dates)])
        assert two <= one + 2**18, f"{two:,} B traced for two dates, {one:,} B for one"

    def test_graph_requires_snapshot(self, out_dir, minidump_path):
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        assert cli.main(["graph", *base_args(out_dir), "--date", "2018-03-01"]) == 2

    @pytest.mark.parametrize("kind", ["resolvedredirects", "wikilinksnapshot"])
    def test_short_snapshot_row_is_fatal(self, out_dir, capsys, kind):
        run_pipeline(out_dir, dates=("2018-03-01",))
        path = out_dir / f"enwiki.{kind}.2018-03-01.csv.gz"
        lines = gzip.open(path, "rt", encoding="utf-8").read().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + "\n"  # row 3 loses its last column
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.writelines(lines)
        capsys.readouterr()
        assert cli.main(["graph", *base_args(out_dir), "--date", "2018-03-01"]) == 1
        (event,) = stderr_events(capsys)
        assert event["event"] == "fatal"
        assert f"{kind}.2018-03-01.csv.gz: row 3 has" in event["detail"]

    @staticmethod
    def _swap_first_page_change(lines):
        """Swap the first two adjacent data rows of different page ids; returns
        the page id that now comes after a higher one."""
        for i in range(1, len(lines) - 1):
            first, second = lines[i].split(b",", 1)[0], lines[i + 1].split(b",", 1)[0]
            if first != second:
                lines[i], lines[i + 1] = lines[i + 1], lines[i]
                return first.decode()
        raise AssertionError("every row has the same page id")

    @pytest.mark.parametrize("kind, change", [
        ("wikilinksnapshot", "swap"),
        ("resolvedredirects", "swap"),
        ("resolvedredirects", "repeat"),
    ])
    def test_rows_out_of_page_id_order_are_fatal(self, out_dir, capsys, kind, change):
        run_pipeline(out_dir, dates=("2018-03-01",))
        path = out_dir / f"enwiki.{kind}.2018-03-01.csv.gz"
        lines = gzip.open(path, "rb").read().splitlines(keepends=True)
        if change == "swap":
            page_id = self._swap_first_page_change(lines)
        else:
            lines.insert(3, lines[3])
            page_id = lines[3].split(b",", 1)[0].decode()
        with gzip.open(path, "wb") as f:
            f.writelines(lines)
        capsys.readouterr()
        assert cli.main(["graph", *base_args(out_dir), "--date", "2018-03-01"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (event,) = [json.loads(line) for line in err.splitlines()]
        assert event["event"] == "fatal"
        assert f"page id {page_id} comes after page id" in event["detail"]

    def test_link_row_with_another_pages_title_is_fatal(self, out_dir, capsys):
        run_pipeline(out_dir, dates=("2018-03-01",))
        path = out_dir / "enwiki.wikilinksnapshot.2018-03-01.csv.gz"
        text = gzip.open(path, "rb").read()
        assert b"\n7,Eta,Gamma," in text and b"\n4,Delta," in text
        with gzip.open(path, "wb") as f:
            f.write(text.replace(b"\n7,Eta,Gamma,", b"\n7,Delta,Gamma,"))
        capsys.readouterr()
        assert cli.main(["graph", *base_args(out_dir), "--date", "2018-03-01"]) == 1
        (event,) = stderr_events(capsys)
        assert event["event"] == "fatal"
        assert "page id 7 has the title 'Delta' of page id 4" in event["detail"]

    def test_full_pipeline_matches_goldens(self, out_dir):
        run_pipeline(out_dir)
        for date in FIXTURE_DATES:
            for kind in ("wikilinkgraph", "wikilinkgraph.nodes"):
                produced = gzip.open(out_dir / f"enwiki.{kind}.{date}.csv.gz", "rb").read()
                golden = (GOLDEN_DIR / f"enwiki.{kind}.{date}.csv").read_bytes()
                assert produced == golden, f"{kind} {date} differs from golden"

    def test_snapshot_monotonicity(self, out_dir):
        run_pipeline(out_dir)
        node_sets = []
        for date in FIXTURE_DATES:
            rows = iter_rows(
                out_dir / f"enwiki.wikilinkgraph.nodes.{date}.csv.gz",
                ("page_id", "page_title"),
            )
            node_sets.append({row[0] for row in rows})
        assert node_sets[0] <= node_sets[1]

    def test_cycle_diagnostics_written(self, out_dir):
        run_pipeline(out_dir)
        rows = list(
            iter_rows(
                out_dir / "enwiki.redirectcycles.2018-03-01.csv",
                ("title", "immediate_target"),
            )
        )
        assert rows == [["Epsilon", "Zeta"], ["Zeta", "Epsilon"]]

    def test_drop_self_loops_flag(self, out_dir):
        run_pipeline(out_dir)
        args = ["graph", *base_args(out_dir), *date_args(), "--drop-self-loops"]
        assert cli.main(args) == 0
        rows = list(
            iter_rows(
                out_dir / "enwiki.wikilinkgraph.2017-03-01.csv.gz",
                ("page_id_from", "page_title_from", "page_id_to", "page_title_to"),
            )
        )
        assert all(row[0] != row[2] for row in rows)
        assert len(rows) == 11  # the Gamma->Gamma loop is gone


TRACED_STAGE = Path(__file__).resolve().parent.parent / "perfbench" / "traced_stage.py"


def traced_names(module: str) -> set[str]:
    """The ``<module>.<name>`` functions the benchmark tracer rebinds."""
    tree = ast.parse(TRACED_STAGE.read_text(encoding="utf-8"))
    return {
        target.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == module
    }


def rebound_names(module: str) -> set[str]:
    """The names the tracer rebinds in ``module`` with ``rebind([...], name, ...)``."""
    tree = ast.parse(TRACED_STAGE.read_text(encoding="utf-8"))
    return {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "rebind"
        and isinstance(node.args[0], ast.List)
        and any(isinstance(m, ast.Name) and m.id == module for m in node.args[0].elts)
    }


class TestTracedNames:
    """Every extract, snapshot, graph and analytics function the benchmark
    tracer wraps must be one the stages call, or its spans and counts read 0."""

    def test_every_traced_extract_name_is_called(self, out_dir, minidump_path, monkeypatch):
        assert "read_pages" in traced_names("dump")
        assert {"extract_links", "detect_redirect"} <= rebound_names("pipeline")
        calls = {"extract_links": [], "detect_redirect": [], "read_pages": []}

        def record(module, name):
            fn = getattr(module, name)

            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name].append(result)
                return result

            monkeypatch.setattr(module, name, recorded)

        record(pipeline, "extract_links")
        record(pipeline, "detect_redirect")
        read_pages = dump.read_pages

        def pages(*args, **kwargs):
            # The tracer counts dump.revisions by the len() of each page's revisions.
            for page in read_pages(*args, **kwargs):
                calls["read_pages"].append((page.namespace, len(page.revisions)))
                yield page

        monkeypatch.setattr(dump, "read_pages", pages)

        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        manifest = json.loads((out_dir / "enwiki.extract.manifest.json").read_text())
        assert all(calls.values())
        # The tracer counts wikitext.links by the len() of each extract_links result.
        assert sum(len(links) for links in calls["extract_links"]) == manifest["links"] > 0
        assert len(calls["detect_redirect"]) == manifest["revisions"]
        assert sum(n for ns, n in calls["read_pages"] if ns == 0) == manifest["revisions"]

    def test_every_traced_name_is_called(self, out_dir, minidump_path, monkeypatch, capsys):
        results: dict[str, list] = {}

        def record(module, name):
            fn = getattr(module, name)

            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                result = fn(*args, **kwargs)
                results.setdefault(f"{module.__name__}.{name}", []).append(result)
                return result

            return recorded

        traced = {module: traced_names(module.__name__.rpartition(".")[2])
                  for module in (snapshot, graph)}
        assert {"select_snapshot_revisions", "build_link_snapshot",
                "write_snapshot_links"} <= traced[snapshot]
        assert "iter_candidate_edges" in traced[graph]
        for module, names in traced.items():
            for name in names:
                monkeypatch.setattr(module, name, record(module, name))

        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        capsys.readouterr()
        assert cli.main(["snapshot", *base_args(out_dir), *date_args()]) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert cli.main(["graph", *base_args(out_dir), *date_args()]) == 0

        expected = {f"{module.__name__}.{name}"
                    for module, names in traced.items() for name in names}
        assert expected - results.keys() == set()
        links = [e["links"] for e in events if e["event"] == "snapshot-done"]
        assert len(links) == len(FIXTURE_DATES)
        written = results["wikilinks.snapshot.write_snapshot_links"]
        assert all(type(rows) is int for rows in written)
        assert sum(written) == sum(links) > 0

    def test_every_traced_analytics_name_is_called(self, out_dir, monkeypatch):
        from wikilinks import analytics

        names = traced_names("analytics")
        assert {"load_graph_file", "pagerank"} <= names
        # What the tracer reads of a result as the call returns: the loaded
        # key's len() (a ranked key has none) and the iteration count.
        read = {"load_graph_file": lambda result: len(result[0]),
                "pagerank": lambda result: result.iterations}
        results: dict[str, list] = {name: [] for name in names}

        def record(name):
            fn, take = getattr(analytics, name), read.get(name, lambda result: result)

            @functools.wraps(fn)
            def recorded(*args, **kwargs):
                result = fn(*args, **kwargs)
                results[name].append(take(result))
                return result

            monkeypatch.setattr(analytics, name, recorded)

        for name in names:
            record(name)
        run_pipeline(out_dir)
        assert cli.main(["stats", *base_args(out_dir), *date_args()]) == 0
        assert cli.main(["pagerank", *base_args(out_dir), *date_args()]) == 0

        assert all(results.values()), results
        edge_rows = [
            sum(1 for _ in iter_rows(out_dir / f"enwiki.wikilinkgraph.{date}.csv.gz",
                                     graph.EDGE_FIELDS))
            for date in FIXTURE_DATES
        ]
        assert results["load_graph_file"] == edge_rows and sum(edge_rows) > 0
        assert all(type(iterations) is int for iterations in results["pagerank"])


class TestShardPool:
    def test_worker_pool_output_identical_to_serial(self, tmp_path):
        # Page 3 is split across the first two shards; the second shard lists
        # its pages in descending id order, so it is sorted after writing.
        dumps = _write_dumps(
            tmp_path,
            [*IN_ORDER_PAGES[:2], _page(3, PAGE_3[:2])],
            [_page(9, [_rev(91, "2016-07-01T00:00:00Z", "[[Page 2]] [[Page 9]]")]),
             _page(3, PAGE_3[2:])],
            [_page(5, [_rev(51, "2015-01-01T00:00:00Z", "no links")]),
             _page(6, [_rev(61, "2017-01-01T00:00:00Z", "#REDIRECT [[Page 9]]")])],
        )
        outputs = []
        for jobs in (1, 2, 8):
            out = tmp_path / f"jobs{jobs}"
            out.mkdir()
            assert cli.main(["extract", *base_args(out), "--jobs", str(jobs), *dumps]) == 0
            assert cli.main(["snapshot", *base_args(out), *date_args()]) == 0
            assert cli.main(["graph", *base_args(out), *date_args()]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        manifest = json.loads(outputs[0]["enwiki.extract.manifest.json"])
        assert [shard["resorted"] for shard in manifest["shards"]] == [False, True, False]
        assert len(outputs[0]) == 33  # manifest, 6 shard and 10 dated files, their sidecars
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_malformed_second_shard_fails_the_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        good, bad = _write_dumps(tmp_path, IN_ORDER_PAGES, [])
        assert cli.main(["extract", *base_args(out), good]) == 0
        manifest = (out / "enwiki.extract.manifest.json").read_bytes()
        Path(bad).write_text("<mediawiki><page><title>x</title")
        capsys.readouterr()
        assert cli.main(["extract", *base_args(out), "--jobs", "2", good, bad]) == 1
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert events[-1]["event"] == "fatal" and bad in events[-1]["detail"]
        assert {p.name for p in out.glob("*.partial")} == {
            "enwiki.rawwikilinks.0001.csv.gz.partial",
            "enwiki.redirecthistory.0001.csv.gz.partial",
        }
        assert (out / "enwiki.extract.manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("codec", ["gz", "bz2"])
    def test_truncated_compressed_dump_names_the_dump(
        self, tmp_path, minidump_path, capsys, codec, jobs
    ):
        import bz2

        compress = gzip.compress if codec == "gz" else bz2.compress
        data = compress(minidump_path.read_bytes())
        bad = tmp_path / f"bad.xml.{codec}"
        bad.write_bytes(data[:len(data) // 2])
        # Two dumps, so that two workers run.
        inputs = [str(minidump_path), str(bad)][-jobs:]
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(["extract", *base_args(out), "--jobs", str(jobs), *inputs]) == 1
        events = stderr_events(capsys)
        assert [e["event"] for e in events].count("fatal") == 1
        assert events[-1]["event"] == "fatal"
        assert events[-1]["detail"].startswith(f"{bad}: cannot decompress past byte ")

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("element, valid, bad", [
        ("page id", "<title>Alpha</title>\n    <ns>0</ns>\n    <id>1</id>", "<id>x1</id>"),
        ("revision id", "<id>101</id>", "<id>x101</id>"),
        ("contributor id", "<username>Alice</username><id>1</id>", "<id>x1</id>"),
    ])
    def test_non_integer_id_names_the_dump(
        self, tmp_path, minidump_path, capsys, element, valid, bad, jobs
    ):
        text = minidump_path.read_text(encoding="utf-8")
        assert valid in text
        dump = tmp_path / "bad.xml"
        dump.write_text(text.replace(valid, valid.rsplit("<id>", 1)[0] + bad, 1), encoding="utf-8")
        # Two dumps, so that two workers run.
        inputs = [str(minidump_path), str(dump)][-jobs:]
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(["extract", *base_args(out), "--jobs", str(jobs), *inputs]) == 1
        events = stderr_events(capsys)
        assert [e["event"] for e in events].count("fatal") == 1
        assert events[-1]["event"] == "fatal"
        detail = events[-1]["detail"]
        assert detail.startswith(f"{dump}: {element} is not an integer near byte ")
        assert detail.endswith(repr(bad[4:-5]))

    def test_pool_size_is_capped_by_the_shard_count(self, tmp_path, monkeypatch):
        requested = []

        class RecordingPool:
            """Records the pool size and runs the shards in this process."""

            def __init__(self, max_workers, mp_context):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        dumps = _write_dumps(tmp_path, IN_ORDER_PAGES, SHUFFLED_PAGES)
        for name, inputs in (("two", dumps), ("one", dumps[:1])):
            out = tmp_path / name
            out.mkdir()
            assert cli.main(["extract", *base_args(out), "--jobs", "8", *inputs]) == 0
        assert requested == [2]


class TestDeterminism:
    def test_worker_counts_do_not_change_any_output(self, tmp_path, minidump_path):
        digests = []
        for jobs, name in ((1, "serial"), (8, "pooled")):
            out = tmp_path / name
            out.mkdir()
            run_pipeline(out, jobs=jobs)
            digests.append(
                {
                    p.name: sha256_of(p)
                    for p in sorted(out.iterdir())
                    if not p.name.endswith(".sha256") and p.name != "enwiki.extract.manifest.json"
                }
            )
        assert digests[0] == digests[1]


class TestStats:
    def test_growth_series_rows(self, out_dir, capsys):
        run_pipeline(out_dir)
        assert cli.main(["stats", *base_args(out_dir), *date_args()]) == 0
        rows = list(
            iter_rows(out_dir / "enwiki.growth.csv", ("language", "date", "nodes", "edges"))
        )
        assert rows == [
            ["en", "2017-03-01", "10", "12"],
            ["en", "2018-03-01", "12", "18"],
        ]

    def test_stats_to_stdout(self, out_dir, capsys):
        run_pipeline(out_dir, dates=("2018-03-01",))
        assert cli.main(["stats", *base_args(out_dir), "--date", "2018-03-01", "--output", "-"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "language,date,nodes,edges",
            "en,2018-03-01,12,18",
        ]

    def test_stats_requires_graph(self, out_dir):
        assert cli.main(["stats", *base_args(out_dir), "--date", "2018-03-01"]) == 2

    def test_default_dates_give_18_growth_rows(self, out_dir, minidump_path):
        # with no --date the full yearly range applies; years before the
        # fixture's first revision produce empty (header-only) graphs
        assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        assert cli.main(["snapshot", *base_args(out_dir)]) == 0
        assert cli.main(["graph", *base_args(out_dir)]) == 0
        assert cli.main(["stats", *base_args(out_dir)]) == 0
        rows = list(
            iter_rows(out_dir / "enwiki.growth.csv", ("language", "date", "nodes", "edges"))
        )
        assert len(rows) == 18
        assert rows[0] == ["en", "2001-03-01", "0", "0"]
        assert rows[-1] == ["en", "2018-03-01", "12", "18"]
        nodes = [int(r[2]) for r in rows]
        assert nodes == sorted(nodes)  # snapshot monotonicity over all years


def tie_graph(seed: int = 8) -> tuple[list[tuple[int, str]], list[tuple[int, int]]]:
    """(nodes sorted by id, edges sorted by pair) of a 2,000-node graph whose
    ranking has long runs of equal scores.

    It has 40 rings of five nodes, 25 dangling hubs that twelve leaves link
    to, 25 hubs that link eight dangling leaves each, 150 isolated nodes and
    a random part in which some nodes link nothing. Ids have gaps and the
    titles are shuffled, so equal scores are ordered by title, not by id.
    """
    import random

    rng = random.Random(seed)
    ids = sorted(rng.sample(range(1, 20_000), 2_000))
    pending = ids[:]
    rng.shuffle(pending)
    take = iter(pending)
    edges = []
    for _ in range(40):
        ring = [next(take) for _ in range(5)]
        edges += zip(ring, ring[1:] + ring[:1])
    for _ in range(25):
        hub = next(take)
        edges += [(next(take), hub) for _ in range(12)]
    for _ in range(25):
        hub = next(take)
        edges += [(hub, next(take)) for _ in range(8)]
    linked = list(take)[150:]  # the 150 skipped are isolated
    for node in linked:
        edges += [(node, target) for target in rng.sample(linked, rng.randrange(6)) if target != node]
    titles = ["Zürich", "Éclair", "Comma, Inc.", "\"Quoted\""]
    titles += [f"Page {k:04d}" for k in range(len(ids) - len(titles))]
    rng.shuffle(titles)
    return list(zip(ids, titles)), sorted(edges)


def write_graph_files(out: Path, edges: list[tuple[int, int]], nodes: list[tuple[int, str]],
                      date: str = "2018-03-01") -> None:
    """Edge and node files of one date, as ``graph`` writes them."""
    title = dict(nodes)
    graph.emit_edges(
        [(str(s), title.get(s, f"N{s}"), str(d), title.get(d, f"N{d}")) for s, d in edges],
        out / f"enwiki.wikilinkgraph.{date}.csv.gz",
    )
    graph.emit_nodes(nodes, out / f"enwiki.wikilinkgraph.nodes.{date}.csv.gz")


def write_edge_text(out: Path, lines: str, date: str = "2018-03-01") -> None:
    with gzip.open(out / f"enwiki.wikilinkgraph.{date}.csv.gz", "wt", encoding="utf-8") as f:
        f.write("page_id_from,page_title_from,page_id_to,page_title_to\n" + lines)


def traced_peak(argv: list[str]) -> int:
    """The ``tracemalloc`` peak of ``cli.main(argv)``, which must exit 0."""
    import tracemalloc

    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def stderr_events(capsys) -> list[dict]:
    return [json.loads(line) for line in capsys.readouterr().err.splitlines()]


def max_rss_kb(argv: list[str], env: dict[str, str]) -> int:
    """Peak RSS of ``python argv``, started from a small launcher process:
    Linux carries the parent's RSS high-water mark into the child's
    ``ru_maxrss``, and the test process is large."""
    import subprocess
    import sys

    launch = (
        "import os, sys\n"
        "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], dict(os.environ))\n"
        "_, status, usage = os.wait4(pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", launch, *argv], capture_output=True, text=True, env=env, check=True
    )
    code, rss = result.stdout.split()
    assert code == "0", result.stderr
    return int(rss)


class TestPagerankCommand:
    def test_triangle_equal_scores(self, tmp_path):
        from wikilinks.graph import emit_edges, emit_nodes

        out = tmp_path / "out"
        out.mkdir()
        emit_edges(
            [("1", "A", "2", "B"), ("2", "B", "3", "C"), ("3", "C", "1", "A")],
            out / "enwiki.wikilinkgraph.2018-03-01.csv.gz",
        )
        emit_nodes([(1, "A"), (2, "B"), (3, "C")], out / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz")
        assert cli.main(["pagerank", *base_args(out), "--date", "2018-03-01"]) == 0
        rows = list(iter_rows(out / "enwiki.pagerank.2018-03-01.csv.gz", ("rank", "title", "score")))
        assert [r[1] for r in rows] == ["A", "B", "C"]  # tie broken by title
        assert {r[2] for r in rows} == {"3.33333e-01"}

    def test_pagerank_on_fixture(self, out_dir):
        run_pipeline(out_dir, dates=("2018-03-01",))
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01"]) == 0
        rows = list(iter_rows(out_dir / "enwiki.pagerank.2018-03-01.csv.gz", ("rank", "title", "score")))
        assert len(rows) == 12
        assert rows[0][1] == "Gamma"  # most linked-to page
        total = sum(float(r[2]) for r in rows)
        assert abs(total - 1.0) < 1e-4  # 6 significant digits per score

    def test_malformed_edge_row_is_fatal(self, out_dir, capsys):
        write_edge_text(out_dir, "1,A,2,B\nx,A,2,B\n")
        graph.emit_nodes([(1, "A"), (2, "B")], out_dir / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz")
        capsys.readouterr()
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01"]) == 1
        (event,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert event["event"] == "fatal"
        assert "row 3" in event["detail"]

    @pytest.mark.parametrize("stage", ["stats", "pagerank"])
    @pytest.mark.parametrize("digit", ["\u0661", "\u00b2"])  # Arabic-Indic one, superscript two
    def test_non_ascii_digit_id_is_fatal(self, out_dir, capsys, stage, digit):
        write_edge_text(out_dir, f"1,A,2,B\n{digit},A,2,B\n")
        graph.emit_nodes([(1, "A"), (2, "B")], out_dir / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz")
        capsys.readouterr()
        assert cli.main([stage, *base_args(out_dir), "--date", "2018-03-01"]) == 1
        (event,) = stderr_events(capsys)
        assert event["event"] == "fatal"
        assert "row 3" in event["detail"]

    @pytest.mark.parametrize(
        "option", [["--damping", "1.0"], ["--max-iter", "0"], ["--tolerance", "nan"]]
    )
    def test_bad_option_is_refused_before_the_graph_is_read(self, out_dir, capsys, option):
        write_edge_text(out_dir, "1,A,2,B\nx,A,2,B\n")
        capsys.readouterr()
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01", *option]) == 2
        (event,) = stderr_events(capsys)
        assert event["event"] == "configuration-error"

    def test_missing_node_file_is_missing_input(self, out_dir, capsys):
        write_graph_files(out_dir, [(1, 2)], [(1, "A"), (2, "B")])
        node_path = out_dir / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz"
        node_path.unlink()
        capsys.readouterr()
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01"]) == 2
        (event,) = stderr_events(capsys)
        assert event == {"event": "missing-input", "path": str(node_path), "detail": "run graph first"}

    @pytest.mark.parametrize(
        "nodes, detail",
        [
            ([(1, "A"), (2, "B")], "row 3 links a page"),  # 3 is an endpoint
            ([(1, "A"), (2, "B"), (3, "C"), (3, "C")], "page id 3 is listed twice"),
        ],
    )
    def test_node_file_lists_every_endpoint_once(self, out_dir, capsys, nodes, detail):
        write_graph_files(out_dir, [(1, 2), (2, 3), (3, 1)], nodes)
        capsys.readouterr()
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01"]) == 1
        (event,) = stderr_events(capsys)
        assert event["event"] == "fatal"
        assert detail in event["detail"]
        assert not (out_dir / "enwiki.pagerank.2018-03-01.csv.gz").exists()

    def test_rankings_with_tie_runs_match_golden(self, out_dir, monkeypatch):
        from test_analytics import STEP_PAIRS
        from wikilinks import analytics

        nodes, edges = tie_graph()
        write_graph_files(out_dir, edges, nodes)
        golden = (GOLDEN_DIR / "enwiki.pagerank.tie-graph.csv").read_bytes()
        for step_pairs in STEP_PAIRS:
            monkeypatch.setattr(analytics, "_STEP_PAIRS", step_pairs)
            assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01"]) == 0
            with gzip.open(out_dir / "enwiki.pagerank.2018-03-01.csv.gz", "rb") as f:
                produced = f.read()
            assert produced == golden, step_pairs
        scores = [line.rsplit(b",", 1)[1] for line in produced.splitlines()[1:]]
        assert len(scores) == 2_000 and len(set(scores)) < 1_000  # long runs of equal scores

    def test_repeated_pair_is_refused(self, out_dir, capsys):
        # graph never writes a pair twice. A hand-written file that lists
        # 1 -> 2 three times, in (page_id_from, page_id_to) order
        # otherwise, is refused at its first repeat, with no rankings.
        write_edge_text(out_dir, "1,A,2,B\n1,A,2,B\n1,A,2,B\n1,A,3,C\n2,B,3,C\n")
        graph.emit_nodes([(1, "A"), (2, "B"), (3, "C")],
                         out_dir / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz")
        capsys.readouterr()
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01"]) == 1
        (event,) = stderr_events(capsys)
        edge_path = out_dir / "enwiki.wikilinkgraph.2018-03-01.csv.gz"
        assert event == {"event": "fatal", "detail": (
            f"{edge_path}: row 3 repeats the link from page id 1 to page id 2")}
        assert not (out_dir / "enwiki.pagerank.2018-03-01.csv.gz").exists()

    @pytest.mark.parametrize("change", ["rewritten", "replaced", "touched"])
    def test_node_file_changed_after_the_iteration_is_refused(self, out_dir, capsys,
                                                              monkeypatch, change):
        # The titles are read from the node file again once the iteration
        # is done. Rewritten with other titles, replaced by a copy of the
        # same bytes and modification time (another inode), or only
        # touched, it is refused, and no rankings are written.
        from wikilinks import analytics

        write_graph_files(out_dir, [(1, 2), (2, 3), (3, 1)], [(1, "A"), (2, "B"), (3, "C")])
        node_path = out_dir / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz"
        iterate = analytics.pagerank

        def iterate_then_change(*args, **kwargs):
            result = iterate(*args, **kwargs)
            stat = node_path.stat()
            if change == "rewritten":
                graph.emit_nodes([(1, "A"), (2, "B"), (3, "Gamma")], node_path)
            elif change == "replaced":
                copy = node_path.with_name("copy")
                shutil.copyfile(node_path, copy)
                os.utime(copy, ns=(stat.st_atime_ns, stat.st_mtime_ns))
                os.replace(copy, node_path)
            else:
                os.utime(node_path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
            return result

        monkeypatch.setattr(analytics, "pagerank", iterate_then_change)
        capsys.readouterr()
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01"]) == 1
        assert stderr_events(capsys) == [
            {"event": "fatal", "detail": f"{node_path}: changed since pagerank read its ids"}]
        assert not list(out_dir.glob("enwiki.pagerank.*"))
        assert not list(out_dir.glob("*.partial"))

    def test_a_date_is_freed_before_the_next_is_read(self, out_dir):
        # Two dates of the same graph peak no higher than one: the first
        # date's nodes, scores and ranking are gone before the second
        # date's files are read. Kept, they added about 1.2 MB. The slack
        # holds what CPython's free lists keep of the first date.
        ids = list(range(1, 40_001, 2))
        edges = [(s, ids[(k * s) % len(ids)]) for s in ids[::2] for k in (1, 2, 3)]
        nodes = [(i, f"Page {i}") for i in ids]
        dates = ("2017-03-01", "2018-03-01")
        for date in dates:
            write_graph_files(out_dir, sorted(set(edges)), nodes, date=date)
        assert cli.main(["pagerank", *base_args(out_dir), "--date", dates[1]]) == 0  # imports
        one = traced_peak(["pagerank", *base_args(out_dir), "--date", dates[1]])
        two = traced_peak(["pagerank", *base_args(out_dir), *date_args(dates)])
        assert two <= one + 2**18, f"{two:,} B traced for two dates, {one:,} B for one"

    def test_peak_memory_per_edge(self, out_dir):
        # 25k nodes and 200k edges; the bound is 75 B per edge above a
        # process that only imports what pagerank imports: numpy. With an
        # int64 key per edge it read 50-53 B per edge over twelve runs
        # (43-50 B over three more); with int32 target rows, 39-40 B over
        # three. It moves by 10-15 B with allocation order alone.
        import numpy as np

        rng = np.random.default_rng(5)
        ids = np.cumsum(rng.integers(1, 4, size=25_000))
        pairs = np.unique(rng.integers(0, len(ids), size=(230_000, 2)), axis=0)[:200_000]
        src, dst = ids[pairs[:, 0]].tolist(), ids[pairs[:, 1]].tolist()
        with gzip.open(out_dir / "enwiki.wikilinkgraph.2018-03-01.csv.gz", "wt", compresslevel=1) as f:
            f.write("page_id_from,page_title_from,page_id_to,page_title_to\n")
            f.write("".join(f"{s},Page {s},{d},Page {d}\n" for s, d in zip(src, dst)))
        with gzip.open(out_dir / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz", "wt", compresslevel=1) as f:
            f.write("page_id,page_title\n" + "".join(f"{i},Page {i}\n" for i in ids.tolist()))
        env = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), "PATH": "",
               "PYTHONDONTWRITEBYTECODE": "1"}  # no side writes a cache the other reads
        base = max_rss_kb(["-c", "import numpy, wikilinks.analytics"], env)
        used = max_rss_kb(
            ["-m", "wikilinks.cli", "pagerank", *base_args(out_dir), "--date", "2018-03-01"], env
        )
        per_edge = (used - base) * 1024 / 200_000
        assert per_edge <= 75, f"{per_edge:.0f} B per edge above the imports"

    def test_peak_memory_per_node(self, out_dir):
        # 200k nodes with titles of about 50 characters and about 200k
        # edges. With the titles in one UTF-8 buffer and the ranking an
        # array of rows, this read 180-189 B per node above the imports;
        # with a str per title and a ranked object per node it read 325.
        # The bound is between the two.
        import numpy as np

        rng = np.random.default_rng(5)
        ids = np.cumsum(rng.integers(1, 4, size=200_000))
        pairs = np.unique(rng.integers(0, len(ids), size=(200_000, 2)), axis=0)
        src, dst = ids[pairs[:, 0]].tolist(), ids[pairs[:, 1]].tolist()

        def title(i):
            return f"Page {i:07d} of the node-heavy graph and its padding"

        with gzip.open(out_dir / "enwiki.wikilinkgraph.2018-03-01.csv.gz", "wt", compresslevel=1) as f:
            f.write("page_id_from,page_title_from,page_id_to,page_title_to\n")
            f.write("".join(f"{s},{title(s)},{d},{title(d)}\n" for s, d in zip(src, dst)))
        with gzip.open(out_dir / "enwiki.wikilinkgraph.nodes.2018-03-01.csv.gz", "wt", compresslevel=1) as f:
            f.write("page_id,page_title\n" + "".join(f"{i},{title(i)}\n" for i in ids.tolist()))
        env = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), "PATH": "",
               "PYTHONDONTWRITEBYTECODE": "1"}  # no side writes a cache the other reads
        base = max_rss_kb(["-c", "import numpy, wikilinks.analytics"], env)
        used = max_rss_kb(
            ["-m", "wikilinks.cli", "pagerank", *base_args(out_dir), "--date", "2018-03-01"], env
        )
        per_node = (used - base) * 1024 / 200_000
        assert per_node <= 250, f"{per_node:.0f} B per node above the imports"

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_openblas_starts_one_thread_unless_set(self, out_dir, monkeypatch, preset, expected):
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        write_graph_files(out_dir, [(1, 2)], [(1, "A"), (2, "B")])
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == expected

    def test_pagerank_requires_graph(self, out_dir):
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2018-03-01"]) == 2

    def test_empty_graph_gets_a_header_only_ranking(self, out_dir, capsys):
        write_graph_files(out_dir, [], [], date="2001-03-01")
        capsys.readouterr()
        assert cli.main(["pagerank", *base_args(out_dir), "--date", "2001-03-01"]) == 0
        with gzip.open(out_dir / "enwiki.pagerank.2001-03-01.csv.gz", "rt") as f:
            assert f.read() == "rank,title,score\n"
        assert stderr_events(capsys) == [{
            "event": "pagerank-done", "date": "2001-03-01", "nodes": 0,
            "converged": True, "iterations": 0, "top": [],
        }]

    def test_default_dates_go_past_an_empty_first_date(self, out_dir, capsys):
        from wikilinks.snapshot import yearly_snapshot_dates

        labels = [date.label for date in yearly_snapshot_dates()]
        assert labels[0] == "2001-03-01" and len(labels) > 2
        write_graph_files(out_dir, [], [], date=labels[0])
        for label in labels[1:]:
            write_graph_files(out_dir, [(1, 2), (2, 3), (3, 1)], [(1, "A"), (2, "B"), (3, "C")],
                              date=label)
        capsys.readouterr()
        assert cli.main(["pagerank", *base_args(out_dir)]) == 0
        events = stderr_events(capsys)
        assert [e["date"] for e in events] == labels
        assert [e["nodes"] for e in events] == [0] + [3] * (len(labels) - 1)
        for label in labels[1:]:
            rows = list(iter_rows(out_dir / f"enwiki.pagerank.{label}.csv.gz", ("rank", "title", "score")))
            assert [r[1] for r in rows] == ["A", "B", "C"]


def stage_exit_and_heavy_modules(out: Path, stage: str) -> str:
    """Runs ``stage`` on a three-node graph in a fresh interpreter; returns
    its exit code and which of numpy and scipy it loaded, as one line."""
    import subprocess
    import sys

    write_graph_files(out, [(1, 2), (2, 3)], [(1, "A"), (2, "B"), (3, "C")])
    code = (
        "import sys\n"
        "from wikilinks import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code, stage, *base_args(out), "--date", "2018-03-01"],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


# What only extract and snapshot run: the XML reader, the link scanner and
# the extract pipeline, and the modules behind them.
EXTRACT_MODULES = ("wikilinks.dump", "wikilinks.wikitext", "wikilinks.pipeline",
                   "xml.etree.ElementTree", "logging")
# What no stage loads: dataclasses, with inspect, cost a stage about 6 ms of
# a 27 ms import. numpy loads inspect for pagerank.
UNUSED_MODULES = ("dataclasses", "inspect")


def modules_loaded_by(code: str, *argv: str) -> list[str]:
    """Runs ``code`` in a fresh interpreter after recording ``sys.modules``;
    returns its output lines, with ``loaded`` bound to a function that lists
    the given names that were loaded since then."""
    import subprocess
    import sys

    prelude = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "def loaded(names):\n"
        "    return sorted(m for m in names if m in sys.modules and m not in before)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", prelude + code, *argv], capture_output=True, text=True,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


class TestConsoleScript:
    def test_cli_import_loads_no_stage_module(self):
        # Modules the interpreter loaded before the import do not count: a
        # site .pth file can load bz2, for one.
        names = (*EXTRACT_MODULES, *UNUSED_MODULES, "wikilinks.graph", "wikilinks.extsort",
                 "wikilinks.analytics", "subprocess", "bz2")
        code = f"import wikilinks.cli\nprint(loaded({names!r}))\n"
        assert modules_loaded_by(code) == ["[]"]

    @pytest.mark.parametrize("stage", ["verify", "graph", "stats"])
    def test_later_stages_leave_the_extract_modules_unloaded(self, out_dir, stage):
        run_pipeline(out_dir, dates=("2018-03-01",))
        args = [stage, *base_args(out_dir)] + ([] if stage == "verify" else ["--date", "2018-03-01"])
        code = (
            "from wikilinks import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            f"print(code, loaded({(*EXTRACT_MODULES, *UNUSED_MODULES)!r}))\n"
        )
        assert modules_loaded_by(code, *args) == ["0 []"]

    @pytest.mark.parametrize("stage", ["extract", "snapshot"])
    def test_extract_and_snapshot_load_neither_dataclasses_nor_inspect(
        self, out_dir, minidump_path, stage
    ):
        if stage == "snapshot":
            assert cli.main(["extract", *base_args(out_dir), str(minidump_path)]) == 0
        args = [stage, *base_args(out_dir),
                *(["--date", "2018-03-01"] if stage == "snapshot" else [str(minidump_path)])]
        code = (
            "from wikilinks import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            f"print(code, loaded({UNUSED_MODULES!r}))\n"
        )
        assert modules_loaded_by(code, *args) == ["0 []"]

    def test_cli_import_leaves_numpy_and_scipy_unloaded(self):
        import subprocess
        import sys

        code = (
            "import sys, wikilinks.cli, wikilinks\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
            "print('wikilinks.analytics' in sys.modules)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": src, "PATH": ""},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "False"]

    def test_stats_leaves_numpy_and_scipy_unloaded(self, out_dir):
        assert stage_exit_and_heavy_modules(out_dir, "stats") == "0 []"

    def test_pagerank_leaves_scipy_unloaded(self, out_dir):
        assert stage_exit_and_heavy_modules(out_dir, "pagerank") == "0 ['numpy']"

    def test_installed_entrypoint(self, out_dir, minidump_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "wikilinks.cli", "extract", *base_args(out_dir), str(minidump_path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), "PATH": ""},
        )
        assert result.returncode == 0, result.stderr
        assert '"event": "extract-done"' in result.stderr
        assert result.stdout == ""  # stdout stays reserved for data

    def test_pagerank_to_stdout(self, out_dir, capsys):
        run_pipeline(out_dir, dates=("2018-03-01",))
        rc = cli.main(
            ["pagerank", *base_args(out_dir), "--date", "2018-03-01", "--output", "-"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,title,score"
        assert lines[1].split(",")[1] == "Gamma"


class TestVerify:
    def test_verify_clean_run(self, out_dir):
        run_pipeline(out_dir)
        assert cli.main(["verify", *base_args(out_dir)]) == 0

    def test_verify_detects_corruption(self, out_dir):
        run_pipeline(out_dir)
        victim = out_dir / "enwiki.wikilinkgraph.2018-03-01.csv.gz"
        victim.write_bytes(b"corrupted")
        assert cli.main(["verify", *base_args(out_dir)]) == 1

    def test_undecodable_sidecar_is_a_mismatch_and_later_files_are_checked(
        self, out_dir, capsys
    ):
        run_pipeline(out_dir)
        sidecars = sorted(out_dir.glob("*.sha256"))
        sidecars[0].write_bytes(b"\xff\xfe not UTF-8\n")
        capsys.readouterr()
        assert cli.main(["verify", *base_args(out_dir)]) == 1
        targets = [str(sidecar)[:-len(".sha256")] for sidecar in sidecars]
        assert any("wikilinksnapshot" in target for target in targets[1:])
        assert stderr_events(capsys) == [
            {"event": "verify-mismatch", "path": targets[0]},
            *({"event": "verify-ok", "path": target} for target in targets[1:]),
            {"event": "verify-done", "files": len(targets), "failures": 1},
        ]

    def test_verify_detects_partial_marker(self, out_dir):
        run_pipeline(out_dir)
        (out_dir / "enwiki.rawwikilinks.0000.csv.gz.partial").touch()
        assert cli.main(["verify", *base_args(out_dir)]) == 1


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        assert cli.main([]) == 2

    @pytest.mark.parametrize("stage", ["snapshot", "graph"])
    def test_bad_date_is_usage_error(self, out_dir, capsys, stage):
        assert cli.main([stage, *base_args(out_dir), "--date", "2018-13-01"]) == 2
        err = capsys.readouterr().err
        assert "--date" in err
        assert "invalid date value" in err
        assert list(out_dir.iterdir()) == []

    def test_unknown_codec_rejected_by_parser(self, out_dir, minidump_path, capsys):
        rc = cli.main(
            ["extract", *base_args(out_dir), "--codec", "gzip", str(minidump_path)]
        )
        assert rc == 2
        assert "unrecognized arguments: --codec" in capsys.readouterr().err

    def test_duplicate_dates_rejected(self, out_dir, capsys):
        rc = cli.main(
            ["snapshot", *base_args(out_dir), "--date", "2018-03-01", "--date", "2018-03-01"]
        )
        assert rc == 2
        assert [e["event"] for e in stderr_events(capsys)] == ["configuration-error"]

    def test_bad_jobs_rejected(self, out_dir, minidump_path, capsys):
        rc = cli.main(["extract", *base_args(out_dir), "--jobs", "0", str(minidump_path)])
        assert rc == 2
        assert [e["event"] for e in stderr_events(capsys)] == ["configuration-error"]

    def test_descending_dates_give_the_ascending_run(self, tmp_path, minidump_path, capsys):
        runs = []
        for name, dates in (("ascending", FIXTURE_DATES), ("descending", FIXTURE_DATES[::-1])):
            out = tmp_path / name
            assert cli.main(["extract", *base_args(out), str(minidump_path)]) == 0
            capsys.readouterr()
            for stage in ("snapshot", "graph", "pagerank", "stats"):
                assert cli.main([stage, *base_args(out), *date_args(dates)]) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((stderr_events(capsys), files))
        (events, files), descending = runs
        assert [e["date"] for e in events if e["event"] == "snapshot-done"] == list(FIXTURE_DATES)
        assert len(files) == 31  # manifest, 2 shard, 12 dated and 1 growth file, their sidecars
        assert descending == runs[0]

    def test_option_surface(self):
        # Every subcommand's options: option strings (or a positional's
        # name) -> (default, choices, required).
        common = {
            "--lang": (None, None, True),
            "--output-dir": (None, None, True),
        }
        dates = {"--date": (None, None, False)}
        expected = {
            "extract": {
                **common,
                "inputs": (None, None, True),
                "--jobs": (1, None, False),
                "--strip-inert-spans": (False, None, False),
                "--sevenzip-command": (None, None, False),
                "--profiles": (None, None, False),
            },
            "snapshot": {**common, **dates},
            "graph": {**common, **dates, "--drop-self-loops": (False, None, False)},
            "pagerank": {
                **common, **dates,
                "--damping": (0.85, None, False),
                "--tolerance": (1e-12, None, False),
                "--max-iter": (200, None, False),
                "--output": (None, None, False),
            },
            "stats": {**common, **dates, "--output": (None, None, False)},
            "verify": common,
        }
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: {
                "/".join(action.option_strings) or action.dest:
                    (action.default, action.choices and tuple(action.choices), action.required)
                for action in sub._actions
                if action.dest != "help"
            }
            for name, sub in commands.choices.items()
        }
        assert surface == expected
        for name, sub in commands.choices.items():
            assert sub.get_default("run") is getattr(cli, f"cmd_{name}")

    def test_profiles_flag(self, out_dir, tmp_path, minidump_path):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps({"en": ["#REDIRECT"]}), encoding="utf-8")
        rc = cli.main(
            ["extract", *base_args(out_dir), "--profiles", str(profiles), str(minidump_path)]
        )
        assert rc == 0

    def test_a_failing_decompressor_says_why(self, out_dir, minidump_path, tmp_path, capsys):
        dump = tmp_path / "minidump.xml"
        dump.write_bytes(b"7z\xbc\xaf\x27\x1c" + minidump_path.read_bytes())
        capsys.readouterr()
        rc = cli.main(["extract", *base_args(out_dir), "--sevenzip-command",
                       "tail -c +7 --bogus", str(dump)])
        assert rc == 1
        (event,) = [e for e in stderr_events(capsys) if e["event"] == "fatal"]
        assert f"'tail -c +7 --bogus {dump}' exited with 1: " in event["detail"]
        assert "unrecognized option" in event["detail"]

    def test_sevenzip_command_flag(self, out_dir, minidump_path, tmp_path):
        # 7z magic, then plain XML, which "tail -c +7" prints.
        dump = tmp_path / "minidump.xml"
        dump.write_bytes(b"7z\xbc\xaf\x27\x1c" + minidump_path.read_bytes())
        rc = cli.main(
            ["extract", *base_args(out_dir), "--sevenzip-command", "tail -c +7", str(dump)]
        )
        assert rc == 0
        manifest = json.loads((out_dir / "enwiki.extract.manifest.json").read_text())
        assert manifest["pages"] == 12
