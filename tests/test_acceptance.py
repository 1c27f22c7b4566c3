"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Each test enforces its stated tolerance exactly; nothing here is
calibrated after the fact. PageRank is checked the way the ``pagerank``
stage runs it: every graph is written as graph files and read back with
``load_graph_file``.
"""

from __future__ import annotations

import gzip
import random
import time
from collections import Counter

import numpy as np

from wikilinks import cli
from wikilinks.analytics import pagerank
from wikilinks.snapshot import RESOLUTION_RESOLVED, read_resolved_redirects
from wikilinks.storage import iter_rows, sha256_of
from wikilinks.wikitext import extract_links

import bruteforce
from conftest import FIXTURE_DATES, GOLDEN_DIR, MINIDUMP, run_pipeline
from test_analytics import dense_pagerank, loaded
from test_wikitext import ADVERSARIAL, random_wikitext, reference_rows


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_minidump_golden_pipeline(tmp_path):
    """extract -> snapshot -> graph on the checked-in fixture reproduces the
    golden edge lists byte for byte, agrees with an independent brute-force
    recomputation, and finishes in under 5 seconds."""
    out = tmp_path / "out"
    out.mkdir()
    started = time.perf_counter()
    run_pipeline(out, MINIDUMP)
    elapsed = time.perf_counter() - started

    for date in FIXTURE_DATES:
        produced = gzip.open(out / f"enwiki.wikilinkgraph.{date}.csv.gz", "rb").read()
        golden = (GOLDEN_DIR / f"enwiki.wikilinkgraph.{date}.csv").read_bytes()
        assert produced == golden, f"edge list {date} differs from golden"

        node_bytes = gzip.open(out / f"enwiki.wikilinkgraph.nodes.{date}.csv.gz", "rb").read()
        node_golden = (GOLDEN_DIR / f"enwiki.wikilinkgraph.nodes.{date}.csv").read_bytes()
        assert node_bytes == node_golden, f"node list {date} differs from golden"

        oracle_edges, oracle_nodes = bruteforce.snapshot_edges(MINIDUMP, date)
        produced_edges = [
            (int(r[0]), r[1], int(r[2]), r[3])
            for r in iter_rows(
                out / f"enwiki.wikilinkgraph.{date}.csv.gz",
                ("page_id_from", "page_title_from", "page_id_to", "page_title_to"),
            )
        ]
        assert produced_edges == oracle_edges, f"brute-force oracle disagrees for {date}"

    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s, budget is 5s"
    _report("mini-dump-golden", f"{elapsed:.2f}s")


def test_link_grammar_fidelity():
    """extract_links agrees with the oracle's literal pattern, bruteforce.LINK,
    on 10,000 randomized and 50+ adversarial inputs."""
    rng = random.Random(20180301)
    checked = 0
    for _ in range(10_000):
        text = random_wikitext(rng, max_len=250)
        assert extract_links(text) == reference_rows(text), repr(text)
        checked += 1
    assert len(ADVERSARIAL) >= 50
    for text in ADVERSARIAL:
        assert extract_links(text) == reference_rows(text), repr(text)
        checked += 1
    _report("link-grammar-fidelity", f"{checked} inputs, 100% agreement")


def test_redirect_node_property(tmp_path):
    """Every redirect whose chain resolves acyclically is an orphan node:
    in-degree 0 and out-degree 1, checked exhaustively on both fixture graphs."""
    out = tmp_path / "out"
    out.mkdir()
    run_pipeline(out, MINIDUMP)
    checked = 0
    for date in FIXTURE_DATES:
        resolved = read_resolved_redirects(out / f"enwiki.resolvedredirects.{date}.csv.gz")
        redirects_resolved = {
            int(p[0]) for p in resolved.values()
            if p[2] == "1" and p[5] == RESOLUTION_RESOLVED
        }
        assert redirects_resolved, f"fixture must contain resolved redirects for {date}"
        indegree: Counter = Counter()
        outdegree: Counter = Counter()
        for row in iter_rows(
            out / f"enwiki.wikilinkgraph.{date}.csv.gz",
            ("page_id_from", "page_title_from", "page_id_to", "page_title_to"),
        ):
            outdegree[int(row[0])] += 1
            indegree[int(row[2])] += 1
        for page_id in redirects_resolved:
            assert indegree[page_id] == 0, f"redirect {page_id} has incoming edges ({date})"
            assert outdegree[page_id] == 1, f"redirect {page_id} out-degree != 1 ({date})"
            checked += 1
    _report("redirect-node-property", f"{checked} redirect nodes verified")


def test_pagerank_against_dense_oracle(tmp_path):
    """Power iteration matches a dense linear solve within 1e-10 per node on
    700+ directed graphs of up to 5 nodes (exhaustive through n=3, including
    self-loops; seeded random samples for n=4,5), each read from graph files
    by ``load_graph_file``. Triangle symmetry is exact to 1e-12. Budget: 60
    seconds."""
    started = time.perf_counter()

    graphs = []
    for n in (1, 2, 3):
        cells = [(i, j) for i in range(n) for j in range(n)]
        for mask in range(2 ** len(cells)):
            edges = [cells[k] for k in range(len(cells)) if mask >> k & 1]
            graphs.append((list(range(n)), edges))
    rng = random.Random(1067)
    for n in (4, 5):
        for _ in range(100):
            nodes = list(range(n))
            edges = [
                (i, j) for i in nodes for j in nodes if rng.random() < rng.choice((0.2, 0.5))
            ]
            graphs.append((nodes, edges))
    assert len(graphs) >= 500

    for nodes, edges in graphs:
        result = pagerank(loaded(tmp_path, edges, nodes)[0], tolerance=1e-15, max_iter=5000)
        ids, expected = dense_pagerank(edges, nodes)
        assert list(result.node_ids) == ids
        np.testing.assert_allclose(result.scores, expected, rtol=0, atol=1e-10)

    triangle = pagerank(loaded(tmp_path, [(1, 2), (2, 3), (3, 1)])[0])
    np.testing.assert_allclose(triangle.scores, 1 / 3, rtol=0, atol=1e-12)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s, budget is 60s"
    _report("pagerank-dense-oracle", f"{len(graphs)} graphs in {elapsed:.1f}s")


def test_pipeline_determinism_across_worker_counts(tmp_path):
    """Two full runs with 1 and 8 workers produce identical SHA-256 checksums
    for every output file, the manifest and checksum sidecars included."""
    digests = []
    for jobs, name in ((1, "serial"), (8, "pooled")):
        out = tmp_path / name
        out.mkdir()
        run_pipeline(out, MINIDUMP, jobs=jobs)
        assert cli.main(["stats", "--lang", "en", "--output-dir", str(out),
                         "--date", FIXTURE_DATES[0], "--date", FIXTURE_DATES[1]]) == 0
        assert cli.main(["pagerank", "--lang", "en", "--output-dir", str(out),
                         "--date", FIXTURE_DATES[1]]) == 0
        digests.append({p.name: sha256_of(p) for p in sorted(out.iterdir())})
    assert digests[0] == digests[1]
    _report("determinism-across-workers", f"{len(digests[0])} files identical")
