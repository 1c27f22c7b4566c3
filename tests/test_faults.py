"""Fault injection: every stage that reads a damaged file ends cleanly.

The pipeline runs once on a gzipped copy of the mini dump. Each seeded draw
then damages one file that a later stage reads, by truncation, a flipped
bit, a byte that is not UTF-8 or an id that is not ASCII digits, and runs
every stage that reads the file, in-process through ``cli.main``. Each
stage must either exit 1 with one ``fatal`` event whose detail starts with
the file's path, or exit 0 with every output byte-identical to the
undamaged run's, as a flipped bit in a gzip header field that the reader
ignores allows. No draw may end in a traceback.

A draw that replaces a file with edited content that still reads as valid
rows can only be caught by checking the file against its sidecar, which no
reader does yet, so bad UTF-8 and bad ids are the only edits drawn.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import random
import shutil
from pathlib import Path

import pytest

from wikilinks import cli
from wikilinks.graph import EDGE_ID_COLUMNS, NODE_ID_COLUMNS
from wikilinks.pipeline import RAW_LINK_ID_COLUMNS, REDIRECT_ID_COLUMNS
from wikilinks.snapshot import RESOLVED_ID_COLUMNS, SNAPSHOT_LINK_ID_COLUMNS

from conftest import MINIDUMP

DATE = "2018-03-01"
STAGES = ("extract", "snapshot", "graph", "stats", "pagerank")
# Each file a later stage reads: the stages that read it and its id columns.
FILES = {
    "dump.xml.gz": (("extract",), ()),
    "out/enwiki.rawwikilinks.0000.csv.gz": (("snapshot",), RAW_LINK_ID_COLUMNS),
    "out/enwiki.redirecthistory.0000.csv.gz": (("snapshot",), REDIRECT_ID_COLUMNS),
    f"out/enwiki.resolvedredirects.{DATE}.csv.gz": (("graph",), RESOLVED_ID_COLUMNS),
    f"out/enwiki.wikilinksnapshot.{DATE}.csv.gz": (("graph",), SNAPSHOT_LINK_ID_COLUMNS),
    f"out/enwiki.wikilinkgraph.{DATE}.csv.gz": (("stats", "pagerank"), EDGE_ID_COLUMNS),
    f"out/enwiki.wikilinkgraph.nodes.{DATE}.csv.gz": (("stats", "pagerank"), NODE_ID_COLUMNS),
}
BAD_IDS = ("x3", "0_1", " 3", "３", "", "-1", "3.0")


def run(stage: str) -> int:
    """``stage`` on the files under the working directory."""
    inputs = ["dump.xml.gz"] if stage == "extract" else ["--date", DATE]
    return cli.main([stage, "--lang", "en", "--output-dir", "out", *inputs])


def damage(data: bytes, kind: str, rng: random.Random, id_columns) -> bytes:
    """``data``, the bytes of a gzip file, with one fault of ``kind``."""
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    if kind == "flip":
        at = rng.randrange(len(data))
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    lines = gzip.decompress(data).splitlines(keepends=True)
    at = rng.randrange(1, len(lines))
    if kind == "utf8":
        cut = rng.randrange(len(lines[at]))  # before the line feed
        lines[at] = lines[at][:cut] + b"\xff" + lines[at][cut:]
    else:
        row = next(csv.reader([lines[at].decode()]))
        row[rng.choice(id_columns)] = rng.choice(BAD_IDS)
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerow(row)
        lines[at] = text.getvalue().encode()
    return gzip.compress(b"".join(lines), mtime=0)


def outputs(root: Path, damaged: str) -> dict[str, bytes]:
    """Every file under ``root`` but the damaged one and its sidecar."""
    skip = {damaged, damaged + ".sha256"}
    return {
        name: path.read_bytes()
        for path in root.rglob("*")
        if path.is_file() and (name := path.relative_to(root).as_posix()) not in skip
    }


@pytest.fixture(scope="module")
def undamaged(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("undamaged")
    (root / "dump.xml.gz").write_bytes(gzip.compress(MINIDUMP.read_bytes(), mtime=0))
    with pytest.MonkeyPatch.context() as m:
        m.chdir(root)
        for stage in STAGES:
            assert run(stage) == 0, stage
    return root


@pytest.mark.parametrize("draw", range(40))
def test_damaged_input_ends_every_reader_cleanly(undamaged, tmp_path, monkeypatch, capsys, draw):
    rng = random.Random(draw)
    name = rng.choice(sorted(FILES))
    stages, id_columns = FILES[name]
    kind = rng.choice(("truncate", "flip", "utf8", "id") if id_columns else
                      ("truncate", "flip", "utf8"))
    root = tmp_path / "run"
    shutil.copytree(undamaged, root)
    monkeypatch.chdir(root)
    (root / name).write_bytes(damage((root / name).read_bytes(), kind, rng, id_columns))
    capsys.readouterr()
    for stage in stages:
        code = run(stage)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        fatal = [e for e in map(json.loads, err.splitlines()) if e["event"] == "fatal"]
        if code == 0:
            assert fatal == []
            assert outputs(root, name) == outputs(undamaged, name), (stage, kind)
        else:
            assert code == 1, (stage, kind, err)
            (event,) = fatal
            assert event["detail"].startswith(f"{name}: "), (stage, kind, event)
