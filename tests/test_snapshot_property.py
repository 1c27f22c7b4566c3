"""Randomized differential test: extract -> snapshot -> graph over small
random page histories, every date compared with ``tests/bruteforce.py``.

The histories mix the cases the snapshot rules name: same-second revisions
listed out of order, revisions stamped exactly at a date's midnight,
redirects that turn back into articles, chains, cycles and dangling
redirects, and one page whose revisions are split across two dump shards,
extracted one shard at a time or both at once. Every date is also checked
against two rules the oracle's files do not show: ``is_active`` and the
growth of the page set from one date to the next.
"""

from __future__ import annotations

import gzip
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from wikilinks import cli
from wikilinks.snapshot import (
    MAX_CHAIN_DEPTH,
    RESOLUTION_CYCLE,
    RESOLUTION_RESOLVED,
    read_resolved_redirects,
    read_snapshot_links,
)
from wikilinks.storage import iter_rows

import bruteforce
from test_dump import dump_bytes, page_xml

DATES = ("2001-03-01", "2002-03-01", "2003-03-01")
STAMPS = (
    "2000-12-31T10:00:00Z",
    "2001-02-28T23:59:59Z",
    "2001-03-01T00:00:00Z",
    "2001-09-09T09:09:09Z",
    "2002-03-01T00:00:00Z",
    "2002-03-01T00:00:01Z",
    "2003-03-01T00:00:00Z",
    "2004-01-01T00:00:00Z",
)
TITLES = ("Alpha", "Beta", "Gamma", "Delta", "Epsilon")
# Titles as written in links: exact, needing normalization, red, fragment-only.
LINKS = ("Alpha", "beta", "Gamma_", ":Delta", "Epsilon#Sec", "Nowhere", "#top", "Beta|the beta")
REDIRECTS = ("#REDIRECT [[{}]]", "#redirect:[[{}]]")
REDIRECT_TARGETS = ("Alpha", "beta", "Gamma", "Delta#Sec", "Epsilon", "Nowhere")

EDGE_FIELDS = ("page_id_from", "page_title_from", "page_id_to", "page_title_to")
NODE_FIELDS = ("page_id", "page_title")

texts = st.one_of(
    st.builds(str.format, st.sampled_from(REDIRECTS), st.sampled_from(REDIRECT_TARGETS)),
    st.lists(st.sampled_from(LINKS), max_size=4).map(
        lambda links: "intro " + "\n== Sec ==\n".join(f"[[{link}]]" for link in links)
    ),
)


@st.composite
def histories(draw):
    """(pages, shard of each page, revisions of the split page in shard 0).

    ``pages`` is a list of (page_id, title, revisions), each revision a dict
    for ``test_dump.page_xml``, in dump order.
    """
    titles = draw(st.lists(st.sampled_from(TITLES), min_size=1, max_size=5, unique=True))
    drafts = [
        draw(st.lists(st.tuples(st.sampled_from(STAMPS), texts), min_size=1, max_size=4))
        for _ in titles
    ]
    ids = iter(draw(st.permutations(range(100, 100 + sum(map(len, drafts))))))
    pages = [
        (page_id, title, [{"id": next(ids), "timestamp": stamp, "text": text}
                          for stamp, text in draft])
        for page_id, (title, draft) in enumerate(zip(titles, drafts), start=1)
    ]
    shards = draw(st.lists(st.sampled_from((0, 1)), min_size=len(pages), max_size=len(pages)))
    splittable = [i for i, (_, _, revisions) in enumerate(pages) if len(revisions) > 1]
    split = draw(st.sampled_from(splittable)) if splittable else None
    cut = draw(st.integers(1, len(pages[split][2]) - 1)) if split is not None else 0
    return pages, shards, split, cut


def write_dumps(pages, shards, split, cut, directory: Path) -> tuple[list[Path], Path]:
    """Two shard dumps for the pipeline and one whole dump for the oracle."""
    parts: list[list[str]] = [[], []]
    for index, ((page_id, title, revisions), shard) in enumerate(zip(pages, shards)):
        if index == split:
            parts[0].append(page_xml(title, page_id, revisions[:cut]))
            parts[1].append(page_xml(title, page_id, revisions[cut:]))
        else:
            parts[shard].append(page_xml(title, page_id, revisions))
    dumps = []
    for number, part in enumerate(parts):
        path = directory / f"d{number}.xml"
        path.write_bytes(dump_bytes(*part))
        dumps.append(path)
    whole = directory / "whole.xml"
    whole.write_bytes(dump_bytes(*(page_xml(t, p, r) for p, t, r in pages)))
    return dumps, whole


def run(out: Path, *argv: str) -> None:
    assert cli.main([*argv, "--lang", "en", "--output-dir", str(out)]) == 0


def assert_matches_bruteforce(out: Path, whole: Path, drop_self_loops: bool = False) -> None:
    """Every date's edges and nodes in ``out`` equal the oracle's on ``whole``."""
    for date in DATES:
        edges, nodes = bruteforce.snapshot_edges(whole, date, drop_self_loops=drop_self_loops)
        produced_edges = [
            (int(r[0]), r[1], int(r[2]), r[3])
            for r in iter_rows(out / f"enwiki.wikilinkgraph.{date}.csv.gz", EDGE_FIELDS)
        ]
        produced_nodes = [
            (int(r[0]), r[1])
            for r in iter_rows(out / f"enwiki.wikilinkgraph.nodes.{date}.csv.gz", NODE_FIELDS)
        ]
        assert produced_edges == edges, date
        assert produced_nodes == nodes, date


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(histories(), st.sampled_from((1, 2)), st.booleans())
def test_every_date_matches_bruteforce(history, jobs, drop_self_loops):
    date_args = [arg for date in DATES for arg in ("--date", date)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        dumps, whole = write_dumps(*history, tmp)
        out = tmp / "out"
        out.mkdir()
        run(out, "extract", "--jobs", str(jobs), *map(str, dumps))
        run(out, "snapshot", *date_args)
        run(out, "graph", *date_args, *["--drop-self-loops"] * drop_self_loops)
        assert_matches_bruteforce(out, whole, drop_self_loops)
        # pagerank refuses graph files out of the order graph writes them in.
        run(out, "pagerank", *date_args)

        # Each date of the all-dates pass equals a snapshot of that date alone.
        alone = tmp / "alone"
        alone.mkdir()
        for name in out.glob("enwiki.*.000[01].csv.gz"):
            (alone / name.name).write_bytes(name.read_bytes())
        (alone / "enwiki.extract.manifest.json").write_bytes(
            (out / "enwiki.extract.manifest.json").read_bytes()
        )
        for date in DATES:
            run(alone, "snapshot", "--date", date)
            for kind in ("resolvedredirects", "wikilinksnapshot"):
                name = f"enwiki.{kind}.{date}.csv.gz"
                assert gzip.open(alone / name).read() == gzip.open(out / name).read(), name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(histories())
def test_every_date_flags_links_active_iff_their_target_exists(history):
    """At every date, a link is active exactly when its target is a title of
    that date's ``resolvedredirects``, and each date keeps every page of the
    date before: a page that exists once exists at every later date."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        dumps, _ = write_dumps(*history, out)
        run(out, "extract", *map(str, dumps))
        run(out, "snapshot", *(arg for date in DATES for arg in ("--date", date)))
        previous: set[int] = set()
        for date in DATES:
            resolved = read_resolved_redirects(out / f"enwiki.resolvedredirects.{date}.csv.gz")
            page_ids = {int(row[0]) for row in resolved.values()}
            assert previous <= page_ids, date
            previous = page_ids
            for row in read_snapshot_links(out / f"enwiki.wikilinksnapshot.{date}.csv.gz"):
                # Columns 2 and 8 are link and is_active.
                assert row[8] == ("1" if row[2] in resolved else "0"), (date, row)


def test_chains_at_the_depth_cap_match_bruteforce(tmp_path):
    """A chain of MAX_CHAIN_DEPTH hops resolves; one hop more is treated like
    a cycle and falls back to its first hop. An article links both heads."""
    pages = [(1, "Article", "[[Short 0]] [[Long 0]]"), (2, "End", "no links")]
    for name, hops in (("Short", MAX_CHAIN_DEPTH), ("Long", MAX_CHAIN_DEPTH + 1)):
        for hop in range(hops):
            target = f"{name} {hop + 1}" if hop + 1 < hops else "End"
            pages.append((len(pages) + 1, f"{name} {hop}", f"#REDIRECT [[{target}]]"))
    whole = tmp_path / "chains.xml"
    whole.write_bytes(dump_bytes(*(
        page_xml(title, page_id, [{"id": 1000 + page_id, "timestamp": STAMPS[0], "text": text}])
        for page_id, title, text in pages
    )))
    out = tmp_path / "out"
    out.mkdir()
    date_args = [arg for date in DATES for arg in ("--date", date)]
    run(out, "extract", str(whole))
    run(out, "snapshot", *date_args)
    run(out, "graph", *date_args)
    assert_matches_bruteforce(out, whole)
    for date in DATES:
        resolved = read_resolved_redirects(out / f"enwiki.resolvedredirects.{date}.csv.gz")
        # Columns 4 and 5 are final_target and resolution.
        assert (resolved["Short 0"][5], resolved["Short 0"][4]) == (RESOLUTION_RESOLVED, "End")
        assert (resolved["Long 0"][5], resolved["Long 0"][4]) == (RESOLUTION_CYCLE, "Long 1")
        assert resolved["Long 1"][5] == RESOLUTION_RESOLVED
