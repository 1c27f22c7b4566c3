from __future__ import annotations

import random
from collections import Counter

import pytest

from wikilinks.errors import DataFormatError
from wikilinks.graph import EDGE_FIELDS, build_graph, emit_edges, emit_nodes
from wikilinks.snapshot import (
    RESOLUTION_ARTICLE,
    RESOLUTION_CYCLE,
    RESOLUTION_DANGLING,
    RESOLUTION_RESOLVED,
    read_resolved_redirects,
    write_resolved_redirects,
)
from wikilinks.storage import iter_rows, sha256_of


def article(page_id, title):
    """A resolvedredirects row."""
    return (str(page_id), title, "0", "", "", RESOLUTION_ARTICLE)


def redirect(page_id, title, immediate, final, resolution=RESOLUTION_RESOLVED):
    """A resolvedredirects row."""
    return (str(page_id), title, "1", immediate, final, resolution)


def link(page_id, title, target, active=True):
    """A wikilinksnapshot row."""
    return (str(page_id), title, target, "", "", "", "0", "0", "1" if active else "0")


def edges_of(links, resolved, **kwargs):
    edge_iter, _nodes = build_graph(iter(links), resolved, **kwargs)
    return list(edge_iter)


class TestBuildGraph:
    def test_link_to_redirect_resolves_and_redirect_keeps_own_edge(self):
        resolved = {
            "P": article(1, "P"),
            "NYC": redirect(2, "NYC", "New York City", "New York City"),
            "New York City": article(3, "New York City"),
        }
        edges = edges_of([link(1, "P", "NYC")], resolved)
        assert edges == [
            ("1", "P", "3", "New York City"),
            ("2", "NYC", "3", "New York City"),
        ]

    def test_duplicate_links_collapse(self):
        resolved = {"P": article(1, "P"), "A": article(2, "A")}
        edges = edges_of([link(1, "P", "A"), link(1, "P", "A")], resolved)
        assert edges == [("1", "P", "2", "A")]

    def test_duplicates_after_resolution_collapse(self):
        resolved = {
            "P": article(1, "P"),
            "R": redirect(2, "R", "A", "A"),
            "A": article(3, "A"),
        }
        edges = edges_of([link(1, "P", "R"), link(1, "P", "A")], resolved)
        assert edges == [
            ("1", "P", "3", "A"),
            ("2", "R", "3", "A"),
        ]

    def test_red_link_only_page_is_an_isolated_node(self):
        resolved = {"P": article(1, "P")}
        edge_iter, nodes = build_graph(iter([link(1, "P", "Gone", active=False)]), resolved)
        assert list(edge_iter) == []
        assert nodes == [(1, "P")]

    def test_inactive_and_dangling_links_dropped(self):
        resolved = {
            "P": article(1, "P"),
            "R": redirect(2, "R", "Gone", "Gone", RESOLUTION_DANGLING),
        }
        edges = edges_of([link(1, "P", "R"), link(1, "P", "X", active=False)], resolved)
        assert edges == []  # dangling redirect contributes no edge either

    def test_redirect_body_links_ignored(self):
        resolved = {
            "R": redirect(1, "R", "A", "A"),
            "A": article(2, "A"),
            "B": article(3, "B"),
        }
        # the redirect page's wikitext links B, but only the resolution edge counts
        edges = edges_of([link(1, "R", "B"), link(1, "R", "A")], resolved)
        assert edges == [("1", "R", "2", "A")]

    def test_direct_self_link_dropped(self):
        resolved = {"P": article(1, "P"), "A": article(2, "A")}
        edges = edges_of([link(1, "P", "P"), link(1, "P", "A")], resolved)
        assert edges == [("1", "P", "2", "A")]

    def test_self_loop_via_redirect_retained(self):
        resolved = {
            "P": article(1, "P"),
            "R": redirect(2, "R", "P", "P"),
        }
        edges = edges_of([link(1, "P", "R")], resolved)
        assert ("1", "P", "1", "P") in edges

    def test_drop_self_loops_flag(self):
        resolved = {
            "P": article(1, "P"),
            "R": redirect(2, "R", "P", "P"),
        }
        edges = edges_of([link(1, "P", "R")], resolved, drop_self_loops=True)
        assert ("1", "P", "1", "P") not in edges
        assert ("2", "R", "1", "P") in edges

    def test_cycle_members_link_each_other(self):
        resolved = {
            "A": redirect(1, "A", "B", "B", RESOLUTION_CYCLE),
            "B": redirect(2, "B", "A", "A", RESOLUTION_CYCLE),
        }
        edges = edges_of([], resolved)
        assert edges == [("1", "A", "2", "B"), ("2", "B", "1", "A")]

    def test_link_into_cycle_uses_fallback_target(self):
        resolved = {
            "P": article(1, "P"),
            "A": redirect(2, "A", "B", "B", RESOLUTION_CYCLE),
            "B": redirect(3, "B", "A", "A", RESOLUTION_CYCLE),
        }
        edges = edges_of([link(1, "P", "A")], resolved)
        assert ("1", "P", "3", "B") in edges

    def test_unknown_target_title_is_fatal(self):
        resolved = {"P": article(1, "P")}
        with pytest.raises(DataFormatError, match="inconsistent"):
            edges_of([link(1, "P", "Ghost")], resolved)

    def test_missing_final_target_is_fatal(self):
        resolved = {"P": article(1, "P"), "R": redirect(2, "R", "Ghost", "Ghost")}
        # a link into the redirect, then the redirect's own edge
        with pytest.raises(DataFormatError, match="'R' resolves to 'Ghost'"):
            edges_of([link(1, "P", "R")], resolved)
        with pytest.raises(DataFormatError, match="'R' resolves to 'Ghost'"):
            edges_of([], resolved)

    def test_unknown_source_title_is_fatal(self):
        resolved = {"A": article(2, "A")}
        with pytest.raises(DataFormatError, match="inconsistent"):
            edges_of([link(1, "Ghost", "A")], resolved)

    def test_source_title_of_another_page_is_fatal(self):
        resolved = {"P": article(1, "P"), "Q": article(2, "Q"), "A": article(3, "A")}
        assert edges_of([link(1, "P", "A"), link(2, "Q", "A")], resolved) == [
            ("1", "P", "3", "A"), ("2", "Q", "3", "A"),
        ]
        with pytest.raises(DataFormatError, match="page id 2 has the title 'P' of page id 1"):
            edges_of([link(1, "P", "A"), link(2, "P", "A")], resolved)

    def test_nodes_include_redirects_and_are_sorted(self):
        # Redirect page ids lie between article ids, so each redirect edge
        # must be merged in among the article links by page id.
        resolved = {
            "A": article(1, "A"),
            "R": redirect(2, "R", "B", "B"),
            "B": article(3, "B"),
            "S": redirect(4, "S", "A", "A"),
            "C": article(5, "C"),
        }
        links = [link(1, "A", "C"), link(3, "B", "A"), link(5, "C", "S")]
        edge_iter, nodes = build_graph(iter(links), resolved)
        assert nodes == [(1, "A"), (2, "R"), (3, "B"), (4, "S"), (5, "C")]
        assert [(int(e[0]), int(e[2])) for e in edge_iter] == [
            (1, 5), (2, 3), (3, 1), (4, 1), (5, 1),
        ]

    def test_pages_out_of_id_order_are_refused(self, tmp_path):
        path = tmp_path / "resolved.csv.gz"
        write_resolved_redirects(path, [
            article(2, "B"),
            redirect(3, "R", "B", "B"),
            article(1, "A"),
        ])
        with pytest.raises(DataFormatError, match="page id 1 comes after page id 3"):
            read_resolved_redirects(path)

    def test_a_page_listed_twice_is_refused(self, tmp_path):
        path = tmp_path / "resolved.csv.gz"
        write_resolved_redirects(path, [article(1, "A"), article(2, "B"), article(2, "B")])
        with pytest.raises(DataFormatError, match="page id 2 comes after page id 2"):
            read_resolved_redirects(path)

    def test_edges_sorted_by_id_pair(self):
        resolved = {t: article(i + 1, t) for i, t in enumerate("ABCD")}
        # In page-id order, but each page's targets are not, and A repeats B.
        links = [
            link(1, "A", "D"),
            link(1, "A", "B"),
            link(1, "A", "C"),
            link(1, "A", "B"),
            link(2, "B", "D"),
            link(2, "B", "A"),
            link(4, "D", "C"),
            link(4, "D", "A"),
        ]
        edges = edges_of(links, resolved)
        keys = [(int(e[0]), int(e[2])) for e in edges]
        assert keys == sorted(set(keys))
        assert len(keys) == 7

    def test_link_rows_out_of_page_id_order_are_refused(self):
        resolved = {t: article(i + 1, t) for i, t in enumerate("ABCD")}
        links = [
            link(4, "D", "A"),
            link(2, "B", "C"),
            link(2, "B", "A"),
            link(1, "A", "D"),
        ]
        with pytest.raises(DataFormatError, match="page id 2 comes after page id 4"):
            edges_of(links, resolved)

    def test_dedup_never_increases_edges(self):
        resolved = {t: article(i + 1, t) for i, t in enumerate("ABC")}
        links = [link(1, "A", "B"), link(1, "A", "B"), link(2, "B", "C")]
        active = [l for l in links if l[8] == "1"]
        edges = edges_of(links, resolved)
        assert len(edges) <= len(active)


def random_snapshot(rng: random.Random):
    """A random snapshot in page-id order: resolvedredirects rows keyed by
    title, with resolved, dangling and cycle redirects (some cycling to
    themselves), and wikilinksnapshot rows with repeated pairs, direct
    self-links, self-loops through redirects, inactive links and redirect
    body links."""
    ids = sorted(rng.sample(range(1, 60), rng.randint(1, 14)))
    titles = [f"T{page_id}" for page_id in ids]
    is_redirect = {title: rng.random() < 0.4 for title in titles}
    articles = [t for t in titles if not is_redirect[t]]
    redirects = [t for t in titles if is_redirect[t]]
    resolved = {}
    for page_id, title in zip(ids, titles):
        if not is_redirect[title]:
            resolved[title] = article(page_id, title)
            continue
        kind = rng.choice([RESOLUTION_RESOLVED, RESOLUTION_DANGLING, RESOLUTION_CYCLE])
        if kind == RESOLUTION_RESOLVED and articles:
            final = rng.choice(articles)
        elif kind == RESOLUTION_CYCLE:
            final = rng.choice(redirects)
        else:
            kind, final = RESOLUTION_DANGLING, "Gone"
        resolved[title] = redirect(page_id, title, rng.choice(titles + ["Gone"]), final, kind)
    links = []
    for page_id, title in zip(ids, titles):
        for _ in range(rng.choice([0, 1, 2, 4, 7])):
            target = rng.choice(titles + [title])
            active = rng.random() < 0.85
            links.append(link(page_id, title, target if active else "Missing", active))
            if rng.random() < 0.2:
                links.append(links[-1])
    return links, resolved


def sort_unique_reference(links, resolved, drop_self_loops):
    """Every candidate edge, sorted by (int(from), int(to)) and deduplicated."""

    def receiver(title):
        page = resolved[title]
        if page[2] == "0":
            return page
        return None if page[5] == RESOLUTION_DANGLING else resolved[page[4]]

    candidates = {
        (row[0], row[1], final[0], final[1])
        for row in links
        if row[8] == "1" and resolved[row[1]][2] == "0" and row[2] != row[1]
        and (final := receiver(row[2])) is not None
    }
    candidates |= {(page[0], page[1], final[0], final[1])
                   for page in resolved.values()
                   if page[2] == "1" and (final := receiver(page[1])) is not None}
    return sorted((e for e in candidates if not (drop_self_loops and e[0] == e[2])),
                  key=lambda e: (int(e[0]), int(e[2])))


class TestAgainstSortUnique:
    @pytest.mark.parametrize("drop_self_loops", [False, True])
    def test_random_snapshots(self, drop_self_loops):
        for seed in range(250):
            links, resolved = random_snapshot(random.Random(seed))
            edge_iter, nodes = build_graph(
                iter(links), resolved, drop_self_loops=drop_self_loops)
            assert list(edge_iter) == sort_unique_reference(
                links, resolved, drop_self_loops), f"seed {seed}"
            assert nodes == sorted((int(p[0]), p[1]) for p in resolved.values())


class TestOrphanRedirectProperty:
    def test_acyclic_redirects_have_indegree_zero_outdegree_one(self):
        resolved = {
            "Art1": article(1, "Art1"),
            "Art2": article(2, "Art2"),
            "R1": redirect(3, "R1", "Art1", "Art1"),
            "R2": redirect(4, "R2", "R1", "Art1"),
            "C1": redirect(5, "C1", "C2", "C2", RESOLUTION_CYCLE),
            "C2": redirect(6, "C2", "C1", "C1", RESOLUTION_CYCLE),
        }
        links = [
            link(1, "Art1", "R1"),
            link(1, "Art1", "R2"),
            link(1, "Art1", "Art2"),
            link(2, "Art2", "R2"),
            link(2, "Art2", "C1"),
        ]
        edges = edges_of(links, resolved)
        indeg = Counter(int(e[2]) for e in edges)
        outdeg = Counter(int(e[0]) for e in edges)
        for page in resolved.values():
            if page[2] == "1" and page[5] == RESOLUTION_RESOLVED:
                assert indeg[int(page[0])] == 0
                assert outdeg[int(page[0])] == 1


class TestEmit:
    def test_two_edges_three_lines(self, tmp_path):
        path = tmp_path / "edges.csv.gz"
        emit_edges(
            [("1", "A", "2", "B"), ("2", "B", "1", "A")], path
        )
        import gzip

        lines = gzip.open(path, "rt", encoding="utf-8").read().splitlines()
        assert lines == [
            "page_id_from,page_title_from,page_id_to,page_title_to",
            "1,A,2,B",
            "2,B,1,A",
        ]

    def test_empty_graph_header_only(self, tmp_path):
        path = tmp_path / "edges.csv.gz"
        assert emit_edges([], path) == 0
        import gzip

        assert gzip.open(path, "rt", encoding="utf-8").read() == (
            "page_id_from,page_title_from,page_id_to,page_title_to\n"
        )

    def test_byte_identical_across_reruns(self, tmp_path):
        digests = set()
        for name in ("a.csv.gz", "b.csv.gz"):
            path = tmp_path / name
            emit_edges([("1", "A", "2", "B")], path)
            digests.add(sha256_of(path))
        assert len(digests) == 1

    def test_read_back(self, tmp_path):
        path = tmp_path / "edges.csv.gz"
        edges = [("1", "A", "2", "B")]
        emit_edges(edges, path)
        assert [tuple(row) for row in iter_rows(path, EDGE_FIELDS)] == edges

    def test_emit_nodes(self, tmp_path):
        path = tmp_path / "nodes.csv.gz"
        assert emit_nodes([(1, "A"), (2, "B")], path) == 2
