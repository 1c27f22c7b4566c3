from __future__ import annotations

import csv
import gzip
import os
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from wikilinks import analytics, storage
from wikilinks.analytics import (
    GraphStats,
    compute_stats,
    load_graph_file,
    pagerank,
    rank_articles,
    read_titles,
    write_growth_series,
    write_rankings,
)
from wikilinks.errors import ConfigurationError, DataFormatError
from wikilinks.graph import emit_edges, emit_nodes
from wikilinks.storage import DatasetWriter, iter_rows, partial_path


STEP_PAIRS = (1, 2, 7, analytics._STEP_PAIRS)  # run sizes of a PageRank step under test


def dense_pagerank(edges, nodes, damping=0.85):
    """Oracle: direct solve of (I - d A^T) x = (1-d)/N with dangling rows uniform."""
    ids = sorted(set(nodes) | {s for s, _ in edges} | {d for _, d in edges})
    index = {node: i for i, node in enumerate(ids)}
    n = len(ids)
    transition = np.zeros((n, n))
    out = np.zeros(n)
    for src, _ in edges:
        out[index[src]] += 1
    for src, dst in edges:
        transition[index[src], index[dst]] += 1.0 / out[index[src]]
    for i in range(n):
        if out[i] == 0:
            transition[i, :] = 1.0 / n
    solution = np.linalg.solve(
        np.eye(n) - damping * transition.T, np.full(n, (1.0 - damping) / n)
    )
    return ids, solution


def row_by_row_pagerank(edges, nodes, damping, tolerance, max_iter):
    """Reference: pagerank's update expression, dangling sum and stopping
    test, with the matrix product as a plain loop over target rows. Each row
    sums from 0.0 in ascending source order. ``edges`` are distinct pairs.
    """
    ids = sorted(set(nodes) | {s for s, _ in edges} | {t for _, t in edges})
    row = {node: i for i, node in enumerate(ids)}
    n = len(ids)
    out_degree = [0] * n
    for s, _ in edges:
        out_degree[row[s]] += 1
    sources = [[] for _ in range(n)]  # per target row: (source row, weight)
    for t, s in sorted((row[t], row[s]) for s, t in edges):
        sources[t].append((s, 1.0 / out_degree[s]))
    dangling = np.array([d == 0 for d in out_degree])

    x = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        dangling_mass = x[dangling].sum()
        xs = x.tolist()
        product = []
        for row_sources in sources:
            total = 0.0
            for s, weight in row_sources:
                total += weight * xs[s]
            product.append(total)
        new = (1.0 - damping) / n + damping * (np.array(product) + dangling_mass / n)
        delta = np.abs(new - x).sum()
        x = new
        if delta < tolerance:
            converged = True
            break
    return ids, x, converged, iterations


def write_ranking_rows(ranking, path):
    """Reference: the rankings file written one csv.writer row at a time."""
    with DatasetWriter(path, ("rank", "title", "score")) as writer:
        for rank, (row, score) in enumerate(zip(ranking.rows.tolist(), ranking.scores.tolist()), 1):
            writer.write_row((str(rank), ranking.titles[row], f"{score:.5e}"))
        return writer.rows_written


def graph_files(tmp_path, edges, nodes):
    edge_path = tmp_path / "g.csv.gz"
    node_path = tmp_path / "g.nodes.csv.gz"
    emit_edges([(str(s), f"N{s}", str(d), f"N{d}") for s, d in edges], edge_path)
    emit_nodes([(n, f"N{n}") for n in nodes], node_path)
    return edge_path, node_path


def loaded(tmp_path, edges, nodes=()):
    """``load_graph_file`` of the distinct (source, target) id pairs
    ``edges``, written as graph files in the order ``graph`` writes them:
    the pairs ascending, and a node file that lists ``nodes`` and every
    endpoint, in ascending id order."""
    return load_graph_file(*graph_files(tmp_path, sorted(edges),
                                        sorted(set(nodes).union(*edges))))


def titles_of(loaded):
    """The titles ``read_titles`` reads for a ``load_graph_file`` result."""
    links, node_file = loaded
    return read_titles(node_file, links.ids)


def decoded_pairs(links):
    """The (source id, target id) pairs of a LinkRows, in its order."""
    sources = np.repeat(np.arange(len(links.ids)), links.out_degree)
    return list(zip(links.ids[sources].tolist(), links.ids[links.targets].tolist()))


def raw_graph_files(tmp_path, edge_text, node_text):
    """Graph files holding the given data rows as they are, unchecked."""
    import gzip

    edge_path = tmp_path / "raw.csv.gz"
    node_path = tmp_path / "raw.nodes.csv.gz"
    with gzip.open(edge_path, "wt", encoding="utf-8") as f:
        f.write("page_id_from,page_title_from,page_id_to,page_title_to\n" + edge_text)
    with gzip.open(node_path, "wt", encoding="utf-8") as f:
        f.write("page_id,page_title\n" + node_text)
    return edge_path, node_path


class TestComputeStats:
    def test_triangle(self, tmp_path):
        edge_path, node_path = graph_files(tmp_path, [(1, 2), (2, 3), (3, 1)], [1, 2, 3])
        stats = compute_stats(edge_path, node_path, language="en", date="2018-03-01")
        assert (stats.node_count, stats.edge_count) == (3, 3)

    def test_empty_graph(self, tmp_path):
        edge_path, node_path = graph_files(tmp_path, [], [])
        stats = compute_stats(edge_path, node_path)
        assert (stats.node_count, stats.edge_count) == (0, 0)

    def test_isolated_nodes_counted(self, tmp_path):
        edge_path, node_path = graph_files(tmp_path, [(1, 2)], [1, 2, 3])
        stats = compute_stats(edge_path, node_path)
        assert (stats.node_count, stats.edge_count) == (3, 1)

    def test_malformed_row_is_fatal_with_line(self, tmp_path):
        import gzip

        edge_path = tmp_path / "bad.csv.gz"
        with gzip.open(edge_path, "wt", encoding="utf-8") as f:
            f.write("page_id_from,page_title_from,page_id_to,page_title_to\n")
            f.write("1,A,2,B\n")
            f.write("x,A,2,B\n")
        node_path = tmp_path / "n.csv.gz"
        emit_nodes([], node_path)
        with pytest.raises(DataFormatError, match="row 3"):
            compute_stats(edge_path, node_path)


class TestGrowthSeries:
    def test_rows_sorted_and_complete(self, tmp_path):
        stats = [
            GraphStats("en", "2018-03-01", 12, 18),
            GraphStats("en", "2017-03-01", 10, 12),
        ]
        path = tmp_path / "growth.csv"
        assert write_growth_series(stats, path) == 2
        rows = list(iter_rows(path, ("language", "date", "nodes", "edges")))
        assert rows == [
            ["en", "2017-03-01", "10", "12"],
            ["en", "2018-03-01", "12", "18"],
        ]

    def test_missing_year_simply_omitted(self, tmp_path):
        stats = [GraphStats("en", "2017-03-01", 1, 0)]
        path = tmp_path / "growth.csv"
        assert write_growth_series(stats, path) == 1


class TestPageRank:
    def test_triangle_symmetry_exact(self, tmp_path):
        result = pagerank(loaded(tmp_path, [(1, 2), (2, 3), (3, 1)])[0])
        assert result.converged
        np.testing.assert_allclose(result.scores, 1 / 3, atol=1e-12)

    def test_two_node_graph_matches_dense_solve(self, tmp_path):
        edges = [(1, 2)]
        result = pagerank(loaded(tmp_path, edges)[0], tolerance=1e-14, max_iter=1000)
        ids, expected = dense_pagerank(edges, [1, 2])
        assert list(result.node_ids) == ids
        np.testing.assert_allclose(result.scores, expected, atol=1e-10)

    def test_scores_sum_to_one_at_every_iteration(self, tmp_path):
        edges = [(1, 2), (2, 3), (3, 1), (1, 3), (4, 1)]
        for iterations in (1, 2, 3, 5, 10, 50):
            result = pagerank(loaded(tmp_path, edges)[0], max_iter=iterations, tolerance=0.0)
            assert abs(result.scores.sum() - 1.0) < 1e-9
            assert (result.scores >= 0).all()

    def test_dangling_node_mass_redistributed(self, tmp_path):
        # 2 -> dangling; its mass must come back uniformly
        edges = [(1, 2)]
        result = pagerank(loaded(tmp_path, edges)[0], tolerance=1e-14, max_iter=1000)
        ids, expected = dense_pagerank(edges, [1, 2])
        np.testing.assert_allclose(result.scores, expected, atol=1e-12)

    def test_isolated_nodes_share_teleport(self, tmp_path):
        result = pagerank(loaded(tmp_path, [(1, 2)], [1, 2, 3])[0])
        assert len(result.node_ids) == 3
        assert abs(result.scores.sum() - 1.0) < 1e-9

    def test_random_graphs_match_dense_solve(self, tmp_path):
        # module invariant: dense agreement within 1e-10 up to 8 nodes
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randrange(1, 9)
            nodes = list(range(n))
            edges = [
                (s, d)
                for s in nodes
                for d in nodes
                if rng.random() < 0.4
            ]
            result = pagerank(loaded(tmp_path, edges, nodes)[0], tolerance=1e-14, max_iter=2000)
            ids, expected = dense_pagerank(edges, nodes)
            assert list(result.node_ids) == ids
            np.testing.assert_allclose(result.scores, expected, atol=1e-10)

    def test_matches_a_row_by_row_reference_bit_for_bit(self, tmp_path, monkeypatch):
        # Ties in the ranking depend on the last bit of each score, so the
        # sums must run in the reference's order: targets with more than 8
        # sources (past numpy's pairwise-summation block), self-loops,
        # dangling and isolated nodes, and several damping and stopping
        # values, with each step split into runs of every size in STEP_PAIRS.
        rng = np.random.default_rng(12)
        for case in range(320):
            n = int(rng.integers(1, 25))
            ids = np.sort(rng.choice(10**9, size=n, replace=False))
            edges = ids[rng.integers(0, n, size=(int(rng.integers(0, 60)), 2))]
            if case % 2:  # dense: up to every pair of the n nodes
                edges = ids[rng.integers(0, n, size=(int(rng.integers(0, 4 * n * n)), 2))]
            if case % 5 == 0:
                edges = np.concatenate([edges, np.repeat(ids[:1], 2)[None, :]])  # a self-loop
            edges = np.unique(edges.reshape(-1, 2), axis=0)  # distinct pairs, ascending
            nodes = ids if len(edges) == 0 or case % 3 else ids[: n // 2]
            damping = float(rng.choice([0.85, 0.5, 0.99, 0.15]))
            tolerance = float(rng.choice([1e-12, 1e-6, 0.0]))
            max_iter = int(rng.choice([200, 7, 1]))
            edges = [tuple(edge) for edge in edges.tolist()]
            links, _ = loaded(tmp_path, edges, nodes.tolist())
            ids_ref, scores, converged, iterations = row_by_row_pagerank(
                edges, nodes.tolist(), damping, tolerance, max_iter
            )
            for step_pairs in STEP_PAIRS:
                monkeypatch.setattr(analytics, "_STEP_PAIRS", step_pairs)
                result = pagerank(links, damping=damping, tolerance=tolerance, max_iter=max_iter)
                assert result.node_ids.tolist() == ids_ref, (case, step_pairs)
                assert np.array_equal(result.scores.view(np.int64), scores.view(np.int64)), (
                    case, step_pairs)
                assert (result.converged, result.iterations) == (converged, iterations), (
                    case, step_pairs)

    @pytest.mark.parametrize("step_pairs", STEP_PAIRS)
    def test_runs_cut_between_sources_match_the_reference(self, tmp_path, monkeypatch,
                                                          step_pairs):
        # Source 1 has nine pairs, a self-loop among them, more than a run
        # of 1, 2 or 7. Source 3's first pair is a self-loop, and 3 + 5
        # pairs of sources 2 and 3 do not fit in a run of 7, so every size
        # but the default cuts a run between them. 4 to 9 are dangling, 10
        # isolated.
        edges = [(1, t) for t in range(1, 10)]
        edges += [(2, 3), (2, 5), (2, 7)]
        edges += [(3, 3), (3, 4), (3, 5), (3, 6), (3, 8)]
        monkeypatch.setattr(analytics, "_STEP_PAIRS", step_pairs)
        result = pagerank(loaded(tmp_path, edges, range(1, 11))[0])
        ids, scores, converged, iterations = row_by_row_pagerank(
            edges, range(1, 11), 0.85, 1e-12, 200)
        assert result.node_ids.tolist() == ids
        assert np.array_equal(result.scores.view(np.int64), scores.view(np.int64))
        assert (result.converged, result.iterations) == (converged, iterations)

    def test_step_runs_end_only_between_sources(self):
        # Link counts 9, 3, 5, 0, 0 in runs of 7: the first source is a
        # run of its own, the second does not fit with the third, and the
        # sources without links join the last run.
        runs = analytics._step_runs(np.array([9, 3, 5, 0, 0]), 7)
        assert runs == [
            (slice(0, 1), slice(0, 9)),
            (slice(1, 2), slice(9, 12)),
            (slice(2, 5), slice(12, 17)),
        ]
        assert analytics._step_runs(np.zeros(3, np.int64), 7) == []

    def test_loading_and_ranking_hold_4_bytes_per_link(self, tmp_path, monkeypatch):
        # 600k links over 30k nodes, as graph writes them, read in blocks
        # of 256 KiB, through the pagerank stage's phases: load, iterate,
        # read the titles, rank and write. The iteration sets the high-water
        # mark: the target rows, 4 B per link; the node ids, int32
        # out-degrees and four float64 node vectors, about 52 B per node;
        # and one run's flow, about 16 B per link of a run. Loading holds no
        # titles and one block's parsing, so it stays below. With titles
        # held through the iteration and int64 out-degrees the iteration
        # read 5.17 MB, above the bound; an int64 per link, 8 B, would
        # exceed it by about 2 MB.
        import tracemalloc

        links, nodes = 600_000, 30_000
        rng = np.random.default_rng(3)
        ids = np.cumsum(rng.integers(1, 4, size=nodes))
        keys = np.unique(rng.integers(0, nodes * nodes, size=links))
        sources, targets = ids[keys // nodes].tolist(), ids[keys % nodes].tolist()
        edge_path, node_path = tmp_path / "g.csv", tmp_path / "g.nodes.csv"
        edge_path.write_text(EDGE_HEADER.decode() + "".join(
            f"{s},Page {s},{t},Page {t}\n" for s, t in zip(sources, targets)))
        node_path.write_text(NODE_HEADER.decode() + "".join(
            f"{i},Page {i}\n" for i in ids.tolist()))
        monkeypatch.setattr(analytics, "_BLOCK_BYTES", 1 << 18)
        peaks = {}
        tracemalloc.start()
        try:
            loaded_links, node_file = load_graph_file(edge_path, node_path)
            peaks["load"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            result = pagerank(loaded_links, max_iter=3)
            edges = len(loaded_links)
            del loaded_links
            peaks["pagerank"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            titles = read_titles(node_file, result.node_ids)
            peaks["titles"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ranking = rank_articles(result, titles)
            peaks["rank"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            written = write_rankings(ranking, tmp_path / "rank.csv.gz")
            peaks["write"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (edges, len(titles), result.iterations, written) == (len(keys), nodes, 3, nodes)
        bound = 4 * len(keys) + 56 * nodes + 16 * analytics._STEP_PAIRS
        assert max(peaks.values()) <= bound, f"{peaks} B traced, bound {bound:,} B"
        assert max(peaks, key=peaks.get) == "pagerank", peaks

    def test_rank_order_invariant_under_relabeling(self, tmp_path):
        edges = [(0, 1), (1, 2), (2, 0), (3, 1), (3, 2), (4, 3)]
        nodes = [0, 1, 2, 3, 4]
        mapping = {0: 40, 1: 17, 2: 99, 3: 3, 4: 58}
        base = pagerank(loaded(tmp_path, edges, nodes)[0], tolerance=1e-14, max_iter=2000)
        permuted = pagerank(
            loaded(tmp_path, [(mapping[s], mapping[d]) for s, d in edges],
                   [mapping[n] for n in nodes])[0],
            tolerance=1e-14,
            max_iter=2000,
        )
        base_scores = dict(zip(base.node_ids.tolist(), base.scores.tolist()))
        permuted_scores = dict(zip(permuted.node_ids.tolist(), permuted.scores.tolist()))
        for node in nodes:
            assert abs(base_scores[node] - permuted_scores[mapping[node]]) < 1e-12

    def test_non_convergence_flagged(self, tmp_path):
        # asymmetric graph: the uniform start is not the fixed point
        result = pagerank(loaded(tmp_path, [(1, 2)])[0], max_iter=2, tolerance=1e-30)
        assert not result.converged
        assert result.iterations == 2

    def test_damping_validated(self, tmp_path):
        with pytest.raises(ConfigurationError):
            pagerank(loaded(tmp_path, [(1, 2)])[0], damping=1.0)

    @pytest.mark.parametrize(
        "option", [{"max_iter": 0}, {"tolerance": -1.0}, {"tolerance": float("nan")}]
    )
    def test_iteration_options_validated(self, tmp_path, option):
        with pytest.raises(ConfigurationError):
            pagerank(loaded(tmp_path, [(1, 2)])[0], **option)

    def test_graph_past_int32_rows_is_refused(self, tmp_path, monkeypatch):
        from wikilinks import analytics

        # The last row, n - 1, must fit in int32, and the order check's
        # largest key, n * n - 1, in int64.
        limit = analytics._MAX_NODES
        assert limit - 1 < limit == np.iinfo(np.int32).max
        assert limit * limit - 1 <= np.iinfo(np.int64).max
        monkeypatch.setattr(analytics, "_MAX_NODES", 2)
        assert pagerank(loaded(tmp_path, [(1, 2)])[0]).iterations > 0
        with pytest.raises(ConfigurationError, match="at most 2 nodes"):
            loaded(tmp_path, [(1, 2)], [3])

    def test_empty_graph_ranks_to_a_header_only_file(self, tmp_path):
        import gzip

        links, node_file = load_graph_file(*graph_files(tmp_path, [], []))
        assert len(links) == 0 and len(links.ids) == 0
        result = pagerank(links)
        assert (result.converged, result.iterations) == (True, 0)
        assert len(result.node_ids) == len(result.scores) == 0
        ranking = rank_articles(result, read_titles(node_file, result.node_ids))
        assert ranking.head(3) == []
        path = tmp_path / "rank.csv.gz"
        assert write_rankings(ranking, path) == 0
        with gzip.open(path, "rb") as f:
            assert f.read() == b"rank,title,score\n"


class TestRankings:
    def test_ranking_sorted_with_title_tiebreak(self, tmp_path):
        result = pagerank(loaded(tmp_path, [(1, 3), (2, 3)])[0])
        ranked = rank_articles(result, ["B", "A", "C"])
        assert [title for title, _ in ranked.head(3)] == ["C", "A", "B"]  # 1 and 2 tie

    def test_ranking_equals_a_sort_on_score_then_title(self, tmp_path):
        # Rings, stars and isolated nodes give long runs of equal scores.
        rng = random.Random(7)
        edges = [(i, i + 1 - 4 * (i % 4 == 3)) for i in range(40)]  # ten 4-rings
        edges += [(leaf, 100 + hub) for hub in range(5) for leaf in range(200 + 10 * hub, 205 + 10 * hub)]
        edges += {(rng.randrange(300, 340), rng.randrange(300, 340)) for _ in range(60)}
        ids = sorted({n for edge in edges for n in edge} | set(range(400, 420)))
        titles = [f"T{rng.randrange(1000):03d}" for _ in ids]  # out of id order, some repeated
        result = pagerank(loaded(tmp_path, edges, ids)[0])
        ranked = rank_articles(result, titles)
        by_id = dict(zip(ids, titles))
        expected = sorted(
            zip(result.scores.tolist(), (by_id[i] for i in result.node_ids.tolist())),
            key=lambda pair: (-pair[0], pair[1]),
        )
        assert [(score, title) for title, score in ranked.head(len(ids))] == expected
        assert len(set(result.scores.tolist())) < len(ids) // 2  # the runs are there

    def test_utf8_titles_in_tie_runs_write_as_a_plain_sort(self, tmp_path):
        # Titles of 1- to 4-byte UTF-8 characters, commas and quotes, in long
        # runs of equal scores, through the files: the node file's titles
        # are cut out of one buffer by byte offsets, and their byte order
        # must be their order as strings.
        import csv
        import gzip
        import io

        rng = random.Random(11)
        alphabet = ["a", "Z", ",", '"', " ", "\u00e9", "\u00df", "\u03a9", "\u65e5", "\u20ac",
                    "\ufb01", "\U0001d11e", "\U0001f600"]
        ids = list(range(1, 301))
        titles = ["".join(rng.choices(alphabet, k=rng.randrange(1, 6))) for _ in ids]
        title_of = dict(zip(ids, titles))
        edges = [(i, 1 + i % 7) for i in range(8, 301, 2)]  # the odd ids past 7 are isolated
        nodes = ids[:]
        edge_path, node_path = tmp_path / "g.csv.gz", tmp_path / "g.nodes.csv.gz"
        emit_edges([(str(s), title_of[s], str(d), title_of[d]) for s, d in edges], edge_path)
        emit_nodes([(i, title_of[i]) for i in nodes], node_path)

        links, node_file = load_graph_file(edge_path, node_path)
        result = pagerank(links)
        titles = read_titles(node_file, result.node_ids)
        assert list(titles) == [title_of[i] for i in nodes]
        assert titles[-1] == title_of[nodes[-1]]
        path = tmp_path / "rank.csv.gz"
        assert write_rankings(rank_articles(result, titles), path) == len(ids)

        expected = sorted(
            zip(result.scores.tolist(), (title_of[i] for i in result.node_ids.tolist())),
            key=lambda pair: (-pair[0], pair[1]),
        )
        text = io.StringIO(newline="")
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(("rank", "title", "score"))
        for k, (score, title) in enumerate(expected, 1):
            writer.writerow((str(k), title, f"{score:.5e}"))
        with gzip.open(path, "rb") as f:
            assert f.read() == text.getvalue().encode("utf-8")
        assert len(set(result.scores.tolist())) < len(ids) // 10  # the runs are there

    @pytest.mark.parametrize("seed", range(8))
    def test_tie_order_equals_a_sort_on_score_title_and_id(self, monkeypatch, seed):
        # Titles with NUL, with 16 or more bytes in common, of 1- to 4-byte
        # UTF-8 characters, repeated, and empty, in runs of equal scores
        # that batches of every size cut before, after or around.
        rng = random.Random(seed)
        prefixes = ["", "x" * 16, "x" * 15, "List of accolade", "\u03a9" * 8, "\u65e5" * 6,
                    "\U0001d11e" * 4, "A\x00", "\x00" * 16]
        pieces = ["", "\x00", "A", "a", "Z", " ", "\u00e9", "\u00df", "\u20ac", "\u65e5",
                  "\U0001f600", "x" * 16]
        for _ in range(25):
            pool = [rng.choice(prefixes) + "".join(rng.choices(pieces, k=rng.randrange(4)))
                    for _ in range(rng.randrange(1, 60))]
            n = rng.randrange(0, 400)
            titles = [rng.choice(pool) for _ in range(n)]  # duplicates, some in one run
            values = [0.25, 1 / 3, 5e-324, 1e-300, rng.random()]
            scores = np.array([rng.choice(values) if rng.random() < 0.8 else rng.random()
                               for _ in range(n)])
            ids = np.cumsum(np.array([rng.randrange(1, 5) for _ in range(n)], dtype=np.int64))
            result = analytics.PageRankResult(ids, scores, True, 1)
            expected = sorted(range(n), key=lambda r: (-scores[r], titles[r], ids[r]))
            for tie_rows in (1, 2, 5, 64, analytics._TIE_ROWS):
                monkeypatch.setattr(analytics, "_TIE_ROWS", tie_rows)
                for given in (titles, analytics.Titles.of(titles)):
                    ranked = rank_articles(result, given)
                    assert ranked.rows.tolist() == expected, (tie_rows, titles)
                    assert ranked.scores.tolist() == scores[expected].tolist()

    def test_tie_order_holds_80_bytes_per_tied_row(self):
        # 120k isolated nodes, which all tie, beside a 3-ring, with titles
        # of 6 to 35 bytes; the ranking's rows and scores take 16 B per
        # node. Sorting each run with a str key per title read about 132 B
        # per tied row.
        import tracemalloc

        n = 120_003
        ids = np.arange(1, n + 1, dtype=np.int64)
        out_degree = np.zeros(n, np.int32)
        out_degree[:3] = 1
        links = analytics.LinkRows(np.array([1, 2, 0], np.int32), out_degree, ids)
        result = pagerank(links)
        titles = analytics.Titles.of(f"{i * 7919 % 100_003:05d} {'x' * (i % 30)}"
                                     for i in range(n))
        scores = np.sort(result.scores)
        tied = int(np.count_nonzero(scores[1:] == scores[:-1])) + 1
        assert tied >= 100_000
        tracemalloc.start()
        try:
            ranked = rank_articles(result, titles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ranked.head(3)[-1][0] == titles[2]
        per_row = (peak - 16 * n) / tied
        assert per_row <= 80, f"{per_row:.0f} B per tied row"

    def test_written_as_a_row_by_row_csv_writer_writes(self, tmp_path, capsys):
        # Titles csv.writer quotes, or in 3.11 leaves a "\r" bare in, NUL,
        # non-ASCII and empty ones; scores from 1e-300 down to subnormal,
        # and ties; rankings of 0, 1 and about one chunk of rows.
        titles = ["Plain", "a,b", 'Say "hi"', "\r", "cr\rlf\n", "two\nlines", "nul\x00",
                  "Café €", "𝄞", "", " padded ", '",', "x" * 300]
        chunk = analytics._RANKING_ROWS
        rng = random.Random(18)
        for count in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            names = [rng.choice(titles) + str(rng.randrange(3)) * rng.randrange(2)
                     for _ in range(count)]
            scores = sorted((rng.choice([1e-300, 5e-324, 0.25, 1 / 3]) if rng.random() < 0.3
                             else rng.random() for _ in range(count)), reverse=True)
            rows = np.array(rng.sample(range(count), count), dtype=np.int64)
            for given in (names, analytics.Titles.of(names)):
                ranking = analytics.Ranking(rows, np.array(scores, dtype=float), given)
                paths = [tmp_path / f"{side}.csv.gz" for side in ("written", "reference")]
                assert write_rankings(ranking, paths[0]) == count
                assert write_ranking_rows(ranking, paths[1]) == count
                written, reference = (path.read_bytes() for path in paths)
                assert gzip.decompress(written) == gzip.decompress(reference), count
                assert written == reference, count
                assert write_rankings(ranking, "-") == count
                produced = capsys.readouterr().out
                write_ranking_rows(ranking, "-")
                assert produced == capsys.readouterr().out, count
                assert produced.encode() == gzip.decompress(reference)

    def test_ranking_needs_a_title_for_every_node(self, tmp_path):
        result = pagerank(loaded(tmp_path, [(1, 2)])[0])
        with pytest.raises(ValueError):
            rank_articles(result, ["One"])

    def test_rankings_csv_format(self, tmp_path):
        result = pagerank(loaded(tmp_path, [(1, 2)])[0], tolerance=1e-14, max_iter=500)
        ranked = rank_articles(result, ["One", "Two"])
        path = tmp_path / "rank.csv.gz"
        assert write_rankings(ranked, path) == 2
        rows = list(iter_rows(path, ("rank", "title", "score")))
        assert rows[0][0] == "1"
        assert rows[0][1] == "Two"
        # six significant digits, scientific notation
        assert len(rows[0][2].split("e")[0].replace(".", "").replace("-", "")) == 6
        float(rows[0][2])

    def test_load_graph_file_includes_isolated_nodes(self, tmp_path):
        edge_path, node_path = graph_files(tmp_path, [(1, 2)], [1, 2, 3])
        links, node_file = load_graph_file(edge_path, node_path)
        assert links.targets.dtype == np.int32 and links.out_degree.dtype == np.int32
        assert decoded_pairs(links) == [(1, 2)]
        titles = read_titles(node_file, links.ids)
        assert dict(zip(links.ids.tolist(), titles)) == {1: "N1", 2: "N2", 3: "N3"}

    def test_load_graph_file_keeps_file_order(self, tmp_path):
        edge_path, node_path = graph_files(tmp_path, [(2, 7), (2, 9), (7, 2)], [2, 7, 9])
        links, node_file = load_graph_file(edge_path, node_path)
        assert len(links) == 3
        assert (links.targets.tolist(), links.out_degree.tolist()) == ([1, 2, 0], [2, 1, 0])
        assert decoded_pairs(links) == [(2, 7), (2, 9), (7, 2)]
        assert links.ids.tolist() == [2, 7, 9]
        assert list(read_titles(node_file, links.ids)) == ["N2", "N7", "N9"]

    def test_loaded_graph_ranks_bit_for_bit_as_the_reference(self, tmp_path):
        # A dangling and an isolated node, through the file, ranked twice:
        # pagerank only reads the links. Listed seven times, as a file
        # out of the documented order may list it, the pair 1 -> 2 is
        # refused at its second row.
        edges = [(1, 2), (1, 3), (1, 4), (2, 3), (3, 1), (3, 5), (5, 2)]
        nodes = [1, 2, 3, 4, 5, 6]
        links, _ = load_graph_file(*graph_files(tmp_path, edges, nodes))
        ids, scores, converged, iterations = row_by_row_pagerank(edges, nodes, 0.85, 1e-12, 200)
        for _ in range(2):
            result = pagerank(links)
            assert result.node_ids.tolist() == ids
            assert np.array_equal(result.scores.view(np.int64), scores.view(np.int64))
            assert (result.converged, result.iterations) == (converged, iterations)
        edge_path, node_path = graph_files(tmp_path, edges[:1] * 7 + edges[1:], nodes)
        with pytest.raises(DataFormatError, match=re.escape(
                f"{edge_path}: row 3 repeats the link from page id 1 to page id 2")):
            load_graph_file(edge_path, node_path)

    def test_read_titles_refuses_a_node_file_changed_since_its_ids_were_read(self, tmp_path):
        edge_path = write_file(tmp_path / "g.csv", EDGE_HEADER + b"1,A,2,B\n")
        node_path = write_file(tmp_path / "g.nodes.csv", NODE_HEADER + b"1,A\n2,B\n3,C\n")
        links, node_file = load_graph_file(edge_path, node_path)
        assert list(read_titles(node_file, links.ids)) == ["A", "B", "C"]
        changed = re.escape(f"{node_path}: changed since pagerank read its ids")
        with pytest.raises(DataFormatError, match=changed):
            read_titles(node_file, links.ids[:2])
        # Rewritten in place with other ids, and its modification time set
        # back: the size, time and inode are those of the first read.
        stat = node_path.stat()
        with open(node_path, "r+b") as f:
            f.write(NODE_HEADER + b"1,A\n2,B\n4,C\n")
        os.utime(node_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert analytics._file_stat(node_path) == node_file.stat
        with pytest.raises(DataFormatError, match=changed):
            read_titles(node_file, links.ids)

    def test_load_graph_file_refuses_a_node_id_listed_twice(self, tmp_path):
        edge_path, node_path = graph_files(tmp_path, [(1, 2)], [1, 2, 2])
        with pytest.raises(DataFormatError, match="page id 2 is listed twice"):
            load_graph_file(edge_path, node_path)

    @pytest.mark.parametrize("edges, message", [
        ([(1, 2), (1, 3), (1, 2)], "row 4 links page id 1 to page id 2 after page id 1 to "
                                   "page id 3, out of (page_id_from, page_id_to) order"),
        ([(1, 2), (2, 1), (1, 3)], "row 4 links page id 1 to page id 3 after page id 2 to "
                                   "page id 1, out of (page_id_from, page_id_to) order"),
        ([(1, 2), (1, 3), (1, 3)], "row 4 repeats the link from page id 1 to page id 3"),
    ])
    def test_load_graph_file_refuses_edges_out_of_order(self, tmp_path, edges, message):
        edge_path, node_path = graph_files(tmp_path, edges, [1, 2, 3])
        with pytest.raises(DataFormatError, match=re.escape(f"{edge_path}: {message}")):
            load_graph_file(edge_path, node_path)

    @pytest.mark.parametrize("nodes, message", [
        ([1, 3, 2], "row 4 lists page id 2 after page id 3, out of page-id order"),
        ([1, 2, 3, 1], "row 5 lists page id 1 after page id 3, out of page-id order"),
        ([1, 2, 2, 1], "page id 2 is listed twice"),  # the first fault in file order
    ])
    def test_load_graph_file_refuses_nodes_out_of_order(self, tmp_path, nodes, message):
        edge_path, node_path = graph_files(tmp_path, [(1, 2)], nodes)
        with pytest.raises(DataFormatError, match=re.escape(f"{node_path}: {message}")):
            load_graph_file(edge_path, node_path)

    def test_load_graph_file_reports_the_first_of_unlisted_and_out_of_order_edges(
        self, tmp_path
    ):
        # Both are found only after every row is checked, in row order, in
        # the same block or in later ones.
        text = "".join(f"1,A,{t},T\n" for t in range(2, 70_002))
        for tail, message in [
            ("1,A,3,C\n1,A,70005,X\n", "row 70002 links page id 1 to page id 3 after"),
            ("1,A,70001,T\n1,A,70005,X\n", "row 70002 repeats the link"),
        ]:
            edge_path, node_path = raw_graph_files(
                tmp_path, text + tail, "".join(f"{i},T\n" for i in range(1, 70_002)))
            with pytest.raises(DataFormatError, match=message):
                load_graph_file(edge_path, node_path)

    def test_load_graph_file_refuses_an_endpoint_missing_from_the_nodes(self, tmp_path):
        edge_path, node_path = graph_files(tmp_path, [(1, 2), (1, 3), (3, 1)], [1, 2])
        with pytest.raises(DataFormatError, match="row 3 links a page"):
            load_graph_file(edge_path, node_path)

    def test_load_graph_file_refuses_an_id_past_int64(self, tmp_path):
        edge_path, node_path = graph_files(tmp_path, [(1, 2), (1, 2**63)], [1, 2])
        with pytest.raises(DataFormatError, match="row 3 has an id past"):
            load_graph_file(edge_path, node_path)

    @pytest.mark.parametrize("edge_error", [
        ("1,A,2,B\n1,A,3,C\nx,A,2,B\n", "row 4 column page_id_from is not an id"),
        ("1,A,3,C\n1,A,9223372036854775808,B\n", "row 3 has an id past"),
    ])
    @pytest.mark.parametrize("node_text", [
        "1,A\nx,B\n",  # a bad row
        "1,A\n2,B\n2,B\n",  # a duplicate id
        "1,A\n2,B\n",  # no 3, which the edge file links before its bad row
    ])
    def test_load_graph_file_reports_edge_row_errors_first(self, tmp_path, edge_error, node_text):
        edge_text, message = edge_error
        edge_path, node_path = raw_graph_files(tmp_path, edge_text, node_text)
        with pytest.raises(DataFormatError, match=message) as raised:
            load_graph_file(edge_path, node_path)
        assert str(raised.value).startswith(f"{edge_path}: ")

    @pytest.mark.parametrize("node_text, message", [
        ("1,A\n1,A\nx,B\n", "row 4 column page_id is not an id"),  # after a duplicate
        ("1,A\n1,A\n9223372036854775808,B\n", "row 4 has an id past"),
        ("1,A\n2,B\n2,B\n", "page id 2 is listed twice"),  # before an unlisted endpoint
    ])
    def test_load_graph_file_reports_node_errors_before_unlisted_endpoints(
        self, tmp_path, node_text, message
    ):
        edge_path, node_path = raw_graph_files(tmp_path, "1,A,2,B\n1,A,3,C\n", node_text)
        with pytest.raises(DataFormatError, match=message) as raised:
            load_graph_file(edge_path, node_path)
        assert str(raised.value).startswith(f"{node_path}: ")

    def test_load_graph_file_reports_the_first_unlisted_endpoint(self, tmp_path):
        edge_path, node_path = raw_graph_files(
            tmp_path, "".join(f"1,A,{t},T\n" for t in range(2, 70_002)) + "70004,D,1,A\n1,A,3,C\n",
            "".join(f"{i},T\n" for i in range(1, 70_002)),
        )
        with pytest.raises(DataFormatError, match="row 70002 links a page"):
            load_graph_file(edge_path, node_path)

    @pytest.mark.parametrize(
        "bad_row", ["x,A,2,B", "1,A,2", "1,A,-2,B", "\u0661,A,2,B", "\u00b2,A,2,B"]
    )
    def test_load_graph_file_checks_rows_as_stats_does(self, tmp_path, bad_row):
        import gzip

        edge_path = tmp_path / "bad.csv.gz"
        with gzip.open(edge_path, "wt", encoding="utf-8") as f:
            f.write("page_id_from,page_title_from,page_id_to,page_title_to\n")
            f.write("1,A,2,B\n")
            f.write(bad_row + "\n")
        node_path = tmp_path / "n.csv.gz"
        emit_nodes([], node_path)
        with pytest.raises(DataFormatError, match="row 3"):
            load_graph_file(edge_path, node_path)
        with pytest.raises(DataFormatError, match="row 3"):
            compute_stats(edge_path, node_path)


EDGE_HEADER = b"page_id_from,page_title_from,page_id_to,page_title_to\n"
NODE_HEADER = b"page_id,page_title\n"
# Titles with a comma, quotes, two- and three-byte UTF-8 and an empty one,
# as DatasetWriter quotes them.
GOOD_TITLES = ("Plain", '"Comma, title"', '"Say ""hi"""', "Café €", "")


def good_edges(rings: int = 1) -> bytes:
    """Edge rows of ``rings`` rings of five nodes, the k-th ring of ids
    5k + 1 to 5k + 5 titled GOOD_TITLES: one link from each node, so the
    rows ascend by (page_id_from, page_id_to) as graph writes them."""
    return "".join(
        f"{5 * ring + k + 1},{GOOD_TITLES[k]},{5 * ring + (k + 1) % 5 + 1},"
        f"{GOOD_TITLES[(k + 1) % 5]}\n"
        for ring in range(rings) for k in range(5)
    ).encode()


def good_nodes(rings: int = 1) -> bytes:
    """The node rows of :func:`good_edges`' rings, in id order."""
    return "".join(
        f"{5 * ring + k + 1},{GOOD_TITLES[k]}\n" for ring in range(rings) for k in range(5)
    ).encode()


GOOD_EDGES = good_edges()
GOOD_NODES = good_nodes()
LIMIT = csv.field_size_limit()
# Block sizes that cut GOOD_EDGES' rows inside "é" (6) and "€" (9, 10, 23).
BLOCK_SIZES = (1, 2, 3, 6, 9, 10, 17, 23, 1 << 20)


def write_file(path, data: bytes):
    if path.suffix == ".gz":
        with gzip.GzipFile(path, "wb", mtime=0) as f:
            f.write(data)
    else:
        path.write_bytes(data)
    return path


def read_summary(edge_path, node_path):
    """compute_stats and load_graph_file of the files, each as its result
    or its error's type and message."""
    outcomes = []
    for read in (compute_stats, load_graph_file):
        try:
            result = read(edge_path, node_path)
        except Exception as err:
            outcomes.append((type(err), str(err)))
            continue
        if read is load_graph_file:
            links = result[0]
            result = (links.targets.tolist(), links.out_degree.tolist(), links.ids.tolist(),
                      list(titles_of(result)))
        outcomes.append(result)
    return outcomes


def assert_blocks_read_as_csv(monkeypatch, edge_path, node_path, sizes=BLOCK_SIZES):
    """At each block size, and with csv batches of the default size, 1 and
    3 rows, the files read as they do with the block path forced off and
    batches of the default size, results and errors alike; returns what
    they read as."""
    never = re.compile(rb"(?!)")
    with monkeypatch.context() as m:
        m.setattr(storage, "rows_pattern", lambda width, id_columns: never)
        by_csv = read_summary(edge_path, node_path)
    for batch_rows in (analytics._BATCH_ROWS, 1, 3):
        monkeypatch.setattr(analytics, "_BATCH_ROWS", batch_rows)
        with monkeypatch.context() as m:
            m.setattr(storage, "rows_pattern", lambda width, id_columns: never)
            assert read_summary(edge_path, node_path) == by_csv, batch_rows
        for size in sizes:
            monkeypatch.setattr(analytics, "_BLOCK_BYTES", size)
            assert read_summary(edge_path, node_path) == by_csv, (batch_rows, size)
    return by_csv


class TestBlockReading:
    """Graph files are read in blocks; from the first block the block path
    does not take, csv reads the rest. Both give the same counts, ids,
    titles and errors as csv alone."""

    @pytest.mark.parametrize("edge_data, node_data", [
        pytest.param(EDGE_HEADER + good_edges(9), NODE_HEADER + good_nodes(9), id="valid"),
        pytest.param(EDGE_HEADER, NODE_HEADER, id="header-only"),
        pytest.param(b"", NODE_HEADER, id="empty-file"),
        pytest.param(EDGE_HEADER[:-1], NODE_HEADER, id="header-without-newline"),
        pytest.param(b'"page_id_from",page_title_from,page_id_to,page_title_to\n' + GOOD_EDGES,
                     NODE_HEADER + GOOD_NODES, id="quoted-header"),
        pytest.param(EDGE_HEADER + GOOD_EDGES, b"\xef\xbb\xbf" + NODE_HEADER + GOOD_NODES,
                     id="bom"),
        pytest.param(EDGE_HEADER + good_edges(4) + b"1,\xff,2,B\n", NODE_HEADER + good_nodes(4),
                     id="invalid-utf8"),
        pytest.param(EDGE_HEADER + GOOD_EDGES, NODE_HEADER + GOOD_NODES + b"6,\xed\xa0\x80\n",
                     id="encoded-surrogate"),
        pytest.param(EDGE_HEADER + good_edges(3) + b"15,A\x00,12,B\n", NODE_HEADER + good_nodes(3),
                     id="nul"),
        pytest.param(EDGE_HEADER + good_edges(3) + b'15,"A,\x00",12,B\n',
                     NODE_HEADER + good_nodes(3),
                     id="nul-in-quoted-title"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b"5,A,2,B", NODE_HEADER + GOOD_NODES,
                     id="no-final-newline"),
        pytest.param(EDGE_HEADER + GOOD_EDGES.replace(b"\n", b"\r\n"),
                     NODE_HEADER + GOOD_NODES, id="crlf"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b'"5",A,2,B\n', NODE_HEADER + GOOD_NODES,
                     id="quoted-id"),
        pytest.param(EDGE_HEADER + good_edges(2) + b'10,"two\nlines",7,B\n',
                     NODE_HEADER + good_nodes(2), id="newline-in-title"),
        pytest.param(EDGE_HEADER + good_edges(3) + b"\n" + good_edges(4)[len(good_edges(3)):],
                     NODE_HEADER + good_nodes(4),
                     id="blank-line"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b"9223372036854775807,A,1,B\n",
                     NODE_HEADER + GOOD_NODES + b"9223372036854775807,A\n", id="int64-max"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b"9223372036854775808,A,1,B\n",
                     NODE_HEADER + GOOD_NODES, id="past-int64"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b"5,A,0000000000000000000000005,B\n",
                     NODE_HEADER + GOOD_NODES, id="25-character-id"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b"5,A,18446744073709551621,B\n",
                     NODE_HEADER + GOOD_NODES, id="2**64-plus-5"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b"5,A,%s,B\n" % (b"1" * (LIMIT + 1)),
                     NODE_HEADER + GOOD_NODES, id="id-past-limit"),
        pytest.param(EDGE_HEADER + good_edges(40) + b"1,A,2\n", NODE_HEADER + good_nodes(40),
                     id="width-fault-late"),
        pytest.param(EDGE_HEADER + good_edges(40) + b"1,A,x,B\n", NODE_HEADER + good_nodes(40),
                     id="digit-fault-late"),
        pytest.param(EDGE_HEADER + good_edges(40) + b"1,A,-2,B\n", NODE_HEADER + good_nodes(40),
                     id="negative-id-late"),
        pytest.param(EDGE_HEADER + good_edges(20) + b"1,A,2\n",
                     NODE_HEADER + good_nodes(20) + b"x,B\n", id="edge-fault-before-node-fault"),
        pytest.param(EDGE_HEADER + good_edges(20), NODE_HEADER + good_nodes(20) + b"7\n",
                     id="node-fault"),
        pytest.param(EDGE_HEADER + GOOD_EDGES, NODE_HEADER + GOOD_NODES + b"5,\n",
                     id="duplicate-node"),
        pytest.param(EDGE_HEADER + GOOD_EDGES, NODE_HEADER + GOOD_NODES * 2,
                     id="nodes-out-of-order"),
        pytest.param(EDGE_HEADER + good_edges(8) + b"40,,41,\n" + GOOD_EDGES,
                     NODE_HEADER + good_nodes(8), id="unlisted-endpoint"),
        pytest.param(EDGE_HEADER + good_edges(8) + b"40,,36,\n" + GOOD_EDGES,
                     NODE_HEADER + good_nodes(8), id="repeated-edge"),
        pytest.param(EDGE_HEADER + good_edges(8) + GOOD_EDGES, NODE_HEADER + good_nodes(8),
                     id="edges-out-of-order"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b"5,%s,2,B\n" % (b"x" * LIMIT),
                     NODE_HEADER + GOOD_NODES, id="field-at-limit"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b"5,%s,2,B\n" % (b"x" * (LIMIT + 1)),
                     NODE_HEADER + GOOD_NODES, id="field-past-limit"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + b'5,"%s",2,B\n' % (b'""' * (LIMIT + 1)),
                     NODE_HEADER + GOOD_NODES, id="quoted-field-past-limit"),
        pytest.param(EDGE_HEADER + GOOD_EDGES + "5,{},2,B\n".format("é" * LIMIT).encode(),
                     NODE_HEADER + GOOD_NODES, id="field-at-limit-past-it-in-bytes"),
    ])
    def test_blocks_read_as_csv(self, tmp_path, monkeypatch, edge_data, node_data):
        edge_path = write_file(tmp_path / "g.csv.gz", edge_data)
        node_path = write_file(tmp_path / "g.nodes.csv.gz", node_data)
        assert_blocks_read_as_csv(monkeypatch, edge_path, node_path)

    @pytest.mark.parametrize("suffix", [".csv.gz", ".csv"])
    def test_cuts_at_every_offset(self, tmp_path, monkeypatch, suffix):
        edge_path = write_file(tmp_path / f"g{suffix}", EDGE_HEADER + good_edges(3))
        node_path = write_file(tmp_path / f"g.nodes{suffix}", NODE_HEADER + good_nodes(3))
        assert_blocks_read_as_csv(monkeypatch, edge_path, node_path, range(1, 34))

    @pytest.mark.parametrize("tail", [b"20,A,17,B", b"1,\xff,2,B\n", b"1,A,x,B\n"])
    def test_plain_files(self, tmp_path, monkeypatch, tail):
        edge_path = write_file(tmp_path / "g.csv", EDGE_HEADER + good_edges(4) + tail)
        node_path = write_file(tmp_path / "g.nodes.csv", NODE_HEADER + good_nodes(4))
        assert_blocks_read_as_csv(monkeypatch, edge_path, node_path)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_files_read_as_csv(self, tmp_path, monkeypatch, seed):
        rng = random.Random(seed)
        titles = ["Plain", "Comma, title", 'Say "hi"', "Café €", "", "𝄞", ",", '"']
        ids = sorted(rng.sample(range(1, 10**6), 6))
        nodes = [(i, rng.choice(titles)) for i in ids]
        edges = sorted({(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 60))})
        edge_path, node_path = tmp_path / "g.csv.gz", tmp_path / "g.nodes.csv.gz"
        emit_edges([(str(s), f"T{s}", str(t), dict(nodes)[t]) for s, t in edges], edge_path)
        emit_nodes(nodes, node_path)
        faults = [b"1,A,2\n", b"1,A,x,B\n", b'"1",A,2,B\n', b"1,A,2,B\r\n", b"\n",
                  b"1,\xc3,2,B\n", b"1,A\x00,2,B\n", b"1,A,%d,B\n" % 2**63, None]
        for path in (edge_path, node_path):
            data = gzip.decompress(path.read_bytes()).splitlines(keepends=True)
            fault = rng.choice(faults)
            if fault is not None:
                if path == node_path:
                    fault = fault.replace(b",2,B", b"")
                data.insert(rng.randint(1, len(data)), fault)
            write_file(path, b"".join(data))
        assert_blocks_read_as_csv(monkeypatch, edge_path, node_path)

    def test_a_late_fault_names_its_row(self, tmp_path, monkeypatch):
        edge_path = write_file(tmp_path / "g.csv.gz", EDGE_HEADER + good_edges(40) + b"1,A,x,B\n")
        node_path = write_file(tmp_path / "g.nodes.csv.gz", NODE_HEADER + good_nodes(40))
        message = f"{edge_path}: row 202 column page_id_to is not an id: 'x'"
        assert assert_blocks_read_as_csv(monkeypatch, edge_path, node_path) == [
            (DataFormatError, message)
        ] * 2

    @pytest.mark.parametrize("kind", ["edges", "nodes"])
    def test_an_undecodable_byte_names_its_line(self, tmp_path, monkeypatch, kind):
        # A 20-row file with 0xff in data row 18, line 19 counting the
        # header: csv, decoded 8 KB ahead, stands at row 0 when it fails.
        edges = good_edges(4).splitlines(keepends=True)
        nodes = good_nodes(4).splitlines(keepends=True)
        if kind == "edges":
            edges[17] = b"1,\xff,2,B\n"
        else:
            nodes[17] = b"6,\xff\n"
        edge_path = write_file(tmp_path / "g.csv.gz", EDGE_HEADER + b"".join(edges))
        node_path = write_file(tmp_path / "g.nodes.csv.gz", NODE_HEADER + b"".join(nodes))
        path = edge_path if kind == "edges" else node_path
        message = (f"{path}: line 19 is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                   "in position 2: invalid start byte")
        assert assert_blocks_read_as_csv(monkeypatch, edge_path, node_path) == [
            (DataFormatError, message)
        ] * 2

    @pytest.mark.parametrize("kind", ["edges", "nodes"])
    @pytest.mark.parametrize("id_first", [True, False], ids=["id-then-short", "short-then-id"])
    def test_fault_precedence(self, tmp_path, monkeypatch, kind, id_first):
        # Rows 2-16 are valid; rows 17 and 18 hold an id past 2**63 - 1 and
        # a short row. compute_stats never parses the id, so it reports the
        # short row; load_graph_file reports whichever fault comes first.
        if kind == "edges":
            past, short = b"9223372036854775808,A,1,B\n", b"1,A,2\n"
            edges = EDGE_HEADER + good_edges(3) + (past + short if id_first else short + past)
            nodes = NODE_HEADER + good_nodes(3)
            width = "3 columns, expected 4"
        else:
            past, short = b"9223372036854775808,A\n", b"7\n"
            valid = b"".join(b"%d,T%d\n" % (i, i) for i in range(1, 16))
            edges = EDGE_HEADER + GOOD_EDGES
            nodes = NODE_HEADER + valid + (past + short if id_first else short + past)
            width = "1 columns, expected 2"
        edge_path = write_file(tmp_path / "g.csv.gz", edges)
        node_path = write_file(tmp_path / "g.nodes.csv.gz", nodes)
        path = edge_path if kind == "edges" else node_path
        short_row = f"{path}: row {18 if id_first else 17} has {width}"
        past_row = f"{path}: row 17 has an id past 2**63 - 1"
        assert assert_blocks_read_as_csv(monkeypatch, edge_path, node_path) == [
            (DataFormatError, short_row), (DataFormatError, past_row if id_first else short_row)
        ]

    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
    def test_damaged_gzip_member(self, tmp_path, monkeypatch, damage):
        edge_path = write_file(tmp_path / "g.csv.gz", EDGE_HEADER + good_edges(60))
        node_path = write_file(tmp_path / "g.nodes.csv.gz", NODE_HEADER + good_nodes(60))
        data = bytearray(edge_path.read_bytes())
        if damage == "truncated":
            del data[len(data) // 2:]
        else:
            data[len(data) // 2] ^= 0x10
        edge_path.write_bytes(bytes(data))
        outcomes = assert_blocks_read_as_csv(monkeypatch, edge_path, node_path)
        assert all(type_ is DataFormatError for type_, _ in outcomes)

    def test_stale_file(self, tmp_path, monkeypatch):
        edge_path = write_file(tmp_path / "g.csv.gz", EDGE_HEADER + GOOD_EDGES)
        node_path = write_file(tmp_path / "g.nodes.csv.gz", NODE_HEADER + GOOD_NODES)
        partial_path(edge_path).write_bytes(b"")
        assert [message for _, message in assert_blocks_read_as_csv(
            monkeypatch, edge_path, node_path)] == [
            f"{edge_path}: stale, the run that rebuilt it failed and left g.csv.gz.partial"
        ] * 2

    def test_missing_file(self, tmp_path, monkeypatch):
        node_path = write_file(tmp_path / "g.nodes.csv.gz", NODE_HEADER + GOOD_NODES)
        assert_blocks_read_as_csv(monkeypatch, tmp_path / "g.csv.gz", node_path)

    def test_lowered_field_size_limit(self, tmp_path, monkeypatch):
        edge_path = write_file(tmp_path / "g.csv.gz", EDGE_HEADER + GOOD_EDGES)
        node_path = write_file(tmp_path / "g.nodes.csv.gz", NODE_HEADER + GOOD_NODES)
        old = csv.field_size_limit(8)
        try:
            outcomes = assert_blocks_read_as_csv(monkeypatch, edge_path, node_path)
        finally:
            csv.field_size_limit(old)
        assert "field larger than field limit (8)" in outcomes[0][1]

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="the block path needs Python 3.11")
    def test_dataset_writer_files_take_the_block_path_for_every_block(
        self, tmp_path, monkeypatch
    ):
        fallbacks = count_csv_reads(monkeypatch)
        titles = {
            1: "Plain", 2: "Comma, title", 3: 'Say "hi"', 4: "Café €", 5: "", 6: '"', 7: ",",
            8: "𝄞 astral", 9: '"Quoted", then "twice"', 1_000_000_000_000_000_000: "19 digits",
            9_223_372_036_854_775_807: "2**63 - 1",
        }
        ids = list(titles)
        rng = random.Random(16)
        edges = sorted({(rng.choice(ids), rng.choice(ids)) for _ in range(400)})
        edge_path, node_path = tmp_path / "g.csv.gz", tmp_path / "g.nodes.csv.gz"
        emit_edges([(str(s), titles[s], str(t), titles[t]) for s, t in edges], edge_path)
        emit_nodes(titles.items(), node_path)
        for size in (1, 5, 29, 1 << 20):
            monkeypatch.setattr(analytics, "_BLOCK_BYTES", size)
            assert compute_stats(edge_path, node_path) == GraphStats("", "", len(ids), len(edges))
            graph = load_graph_file(edge_path, node_path)
            assert decoded_pairs(graph[0]) == edges
            assert (graph[0].ids.tolist(), list(titles_of(graph))) == (ids, list(titles.values()))
        assert fallbacks == []

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="the block path needs Python 3.11")
    def test_graph_stage_files_take_the_block_path_for_every_block(
        self, tmp_path, monkeypatch
    ):
        from conftest import FIXTURE_DATES, run_pipeline

        out = tmp_path / "out"
        out.mkdir()
        run_pipeline(out)
        fallbacks = count_csv_reads(monkeypatch)
        for size in (1, 64, 1 << 20):
            monkeypatch.setattr(analytics, "_BLOCK_BYTES", size)
            for date in FIXTURE_DATES:
                edge_path = out / f"enwiki.wikilinkgraph.{date}.csv.gz"
                node_path = out / f"enwiki.wikilinkgraph.nodes.{date}.csv.gz"
                stats = compute_stats(edge_path, node_path)
                links, _ = load_graph_file(edge_path, node_path)
                assert (len(links), len(links.ids)) == (stats.edge_count, stats.node_count) != (0, 0)
        assert fallbacks == []


def count_csv_reads(monkeypatch) -> list[list]:
    """Wraps ``storage.iter_rows``, through which graph files are read as
    csv, so that each call is listed in the list returned as the file's name
    and the number of rows it has yielded."""
    calls = []
    read = storage.iter_rows

    def counted(path, *args):
        call = [Path(path).name, 0]
        calls.append(call)
        for row in read(path, *args):
            call[1] += 1
            yield row

    monkeypatch.setattr(storage, "iter_rows", counted)
    return calls


def node_reading(node_path):
    """A node file's ids, as ``load_graph_file`` reads them, and its title
    buffer and title bounds, as ``read_titles`` reads them, or the error's
    type and message."""
    try:
        node_file = analytics.NodeFile.of(node_path)
        ids = analytics._read_node_ids(node_path)
        titles = read_titles(node_file, ids)
    except Exception as err:
        return type(err), str(err)
    return ids.tolist(), bytes(titles._data), titles._bounds.tolist()


def random_node_text(rng: random.Random, rows: int) -> bytes:
    """Node rows as csv.writer writes them: ids of 1-19 digits, titles bare,
    quoted, with commas, doubled quotes, non-ASCII text, or empty."""
    import io

    pieces = ["Plain", "a,b", 'Say "hi"', '"', ",", "Café €", "𝄞", "日本", " ", "x" * 40, ""]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    for _ in range(rows):
        digits = rng.randint(1, 19)
        page_id = rng.randrange(10 ** (digits - 1) if digits > 1 else 0, min(10**digits, 2**63))
        title = "".join(rng.choices(pieces, k=rng.randint(0, 3)))
        writer.writerow((str(page_id), title))
    return text.getvalue().encode()


class TestNodeBlocks:
    """The node file's block path returns what csv alone reads: the same
    ids, title bytes and bounds, or the same error on the same row."""

    # Rows that send their block to csv.
    FAULTS = [
        b"12345678901234567890,Twenty digits\n",
        b"00000000000000000007,Twenty digits that fit\n",
        b"9223372036854775808,Past 2**63 - 1\n",
        b"x,Bad id\n",
        b"7\n",
        b"7,Carriage\rreturn\n",
        b"7,%s\n" % (b"x" * (LIMIT + 1)),
        b'7,"%s"\n' % (b'""' * (LIMIT + 1)),
    ]
    FAULT_IDS = ["20-digits", "20-digits-fit", "past-int64", "bad-id", "narrow", "cr",
                 "overlong", "overlong-quoted"]

    @pytest.mark.parametrize("seed", range(16))
    def test_random_node_files_read_as_csv(self, tmp_path, monkeypatch, seed):
        rng = random.Random(seed)
        lines = random_node_text(rng, rng.randint(0, 120)).splitlines(keepends=True)
        for fault in rng.sample(self.FAULTS, rng.randint(0, 2)):
            lines.insert(rng.randint(0, len(lines)), fault)
        node_path = write_file(tmp_path / f"n{rng.choice(['.csv', '.csv.gz'])}",
                               NODE_HEADER + b"".join(lines))
        with monkeypatch.context() as m:
            m.setattr(storage, "rows_pattern", lambda width, id_columns: re.compile(rb"(?!)"))
            by_csv = node_reading(node_path)
        for size in (1, 7, 64, 512, 1 << 20):
            monkeypatch.setattr(analytics, "_BLOCK_BYTES", size)
            assert node_reading(node_path) == by_csv, size

    @pytest.mark.parametrize("fault", FAULTS, ids=FAULT_IDS)
    def test_a_fault_in_a_later_block(self, tmp_path, monkeypatch, fault):
        rows = random_node_text(random.Random(3), 200)
        node_path = write_file(tmp_path / "n.csv.gz", NODE_HEADER + rows + fault + rows)
        with monkeypatch.context() as m:
            m.setattr(storage, "rows_pattern", lambda width, id_columns: re.compile(rb"(?!)"))
            csv_reads = count_csv_reads(m)
            by_csv = node_reading(node_path)
        monkeypatch.setattr(analytics, "_BLOCK_BYTES", 256)
        fallbacks = count_csv_reads(monkeypatch)
        assert node_reading(node_path) == by_csv
        # Only the node file goes to csv, for its ids and, if they are read,
        # again for its titles; the rows the block path took pass through
        # iter_rows again, as the rows csv alone reads do.
        assert fallbacks == csv_reads and 1 <= len(fallbacks) <= 2
        assert all(name == "n.csv.gz" and rows >= 200 for name, rows in fallbacks)
