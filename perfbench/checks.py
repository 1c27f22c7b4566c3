"""Checks of one round's outputs against the cached expected results.

Outputs are read with ``gzip`` and ``csv`` directly, never through the
package under test. Each check is ``(name, passed, detail)``; every round of
a workload makes the same checks, in the same order.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from pathlib import Path

from prepare import rows_digest
from workloads import LANG, PAGERANK_DATE

# A printed score has 6 significant digits ("%.5e"), so rounding moves it by
# at most half a unit in the 6th digit: 5e-6 of its value. Both the program
# (L1 change < 1e-12) and the reference (< 1e-13) stop short of the fixed
# point by at most change * d / (1 - d) < 5.7e-12 in L1 norm at d = 0.85;
# 2e-11 covers both with room for summation order.
SCORE_REL_TOL = 5e-6
SCORE_ABS_TOL = 2e-11


def _name(kind: str, date: str | None = None, shard: int | None = None) -> str:
    name = f"{LANG}wiki.{kind}"
    if shard is not None:
        name += f".{shard:04d}"
    if date is not None:
        name += f".{date}"
    return name + ".csv.gz"


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of a dataset file (header dropped)."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return rows[1:]


def count_rows(path: Path) -> int:
    return len(read_rows(path))


def output_digests(out: Path, skip: frozenset[str] = frozenset()) -> dict[str, str]:
    """sha256 of every file the round wrote (``skip`` names its inputs)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name not in skip
    }


def _tolerance(score: float) -> float:
    return SCORE_REL_TOL * abs(score) + SCORE_ABS_TOL


def check_pagerank(path: Path, reference: dict[str, float]) -> list[tuple[str, bool, str]]:
    rows = read_rows(path)
    titles = [row[1] for row in rows]
    scores = [float(row[2]) for row in rows]
    ranks_ok = [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    same_titles = len(titles) == len(reference) and set(titles) == set(reference)
    checks = [("pagerank-titles", ranks_ok and same_titles,
               f"{len(titles)} ranked, {len(reference)} expected")]
    worst = max(
        (abs(s - reference.get(t, math.inf)) - _tolerance(reference.get(t, 0.0))
         for t, s in zip(titles, scores)),
        default=0.0,
    )
    checks.append(("pagerank-scores", worst <= 0.0, f"worst excess {worst:.3g}"))
    total = math.fsum(scores)
    checks.append(("pagerank-sum", abs(total - 1.0) <= SCORE_REL_TOL + 1e-9, f"sum {total!r}"))
    checks.append(("pagerank-order", all(a >= b for a, b in zip(scores, scores[1:])),
                   "scores non-increasing"))
    ordered = sorted(reference.items(), key=lambda item: -item[1])
    if len(ordered) > 10 and (
        ordered[9][1] - ordered[10][1] <= _tolerance(ordered[9][1]) + _tolerance(ordered[10][1])
    ):
        checks.append(("pagerank-top10", True, "10th and 11th within tolerance"))
    else:
        top = {title for title, _ in ordered[:10]}
        checks.append(("pagerank-top10", set(titles[:10]) == top, "top-10 set"))
    return checks


def _growth_checks(out: Path, dates: dict) -> list[tuple[str, bool, str]]:
    rows = read_rows(out / f"{LANG}wiki.growth.csv")
    want = [[LANG, d, str(v["nodes"]), str(v["edges"])] for d, v in sorted(dates.items())]
    nodes = [int(row[2]) for row in rows]
    return [
        ("growth", rows == want, f"{len(rows)} rows"),
        ("growth-monotone", all(a <= b for a, b in zip(nodes, nodes[1:])), "nodes never fall"),
    ]


def check_dump_round(expected: dict, reference: dict[str, float], out: Path) -> list[tuple[str, bool, str]]:
    checks = []
    manifest = json.loads((out / f"{LANG}wiki.extract.manifest.json").read_text("utf-8"))
    got = (manifest["pages"], manifest["revisions"], manifest["links"])
    want = (expected["pages"], expected["revisions"], expected["raw_links"])
    checks.append(("manifest-totals", got == want, f"{got} vs {want}"))
    raw = count_rows(out / _name("rawwikilinks", shard=0))
    checks.append(("raw-link-rows", raw == expected["raw_links"], f"{raw}"))
    history = count_rows(out / _name("redirecthistory", shard=0))
    checks.append(("redirect-history-rows", history == expected["revisions"], f"{history}"))
    for date, want in expected["dates"].items():
        resolved = count_rows(out / _name("resolvedredirects", date))
        checks.append((f"resolved-rows-{date}", resolved == want["nodes"], f"{resolved}"))
        links = count_rows(out / _name("wikilinksnapshot", date))
        checks.append((f"snapshot-rows-{date}", links == want["snapshot_links"], f"{links}"))
        edges = [[int(r[0]), r[1], int(r[2]), r[3]]
                 for r in read_rows(out / _name("wikilinkgraph", date))]
        checks.append((f"edges-{date}", rows_digest(edges) == want["edge_digest"],
                       f"{len(edges)} edges, oracle {want['edges']}"))
        nodes = [[int(r[0]), r[1]] for r in read_rows(out / _name("wikilinkgraph.nodes", date))]
        checks.append((f"nodes-{date}", rows_digest(nodes) == want["node_digest"],
                       f"{len(nodes)} nodes, oracle {want['nodes']}"))
    checks += _growth_checks(out, expected["dates"])
    checks += check_pagerank(out / _name("pagerank", PAGERANK_DATE), reference)
    return checks


def check_graph_round(expected: dict, reference: dict[str, float], out: Path) -> list[tuple[str, bool, str]]:
    checks = _growth_checks(out, expected["dates"])
    checks += check_pagerank(out / _name("pagerank", PAGERANK_DATE), reference)
    return checks


def check_round(expected: dict, reference: dict[str, float], out: Path) -> list[tuple[str, bool, str]]:
    """Every check of one round, common ones included."""
    check = check_dump_round if expected["kind"] == "dump" else check_graph_round
    try:
        checks = check(expected, reference, out)
    except (OSError, ValueError, KeyError, IndexError, csv.Error) as err:
        checks = [("outputs-readable", False, f"{type(err).__name__}: {err}")]
    partial = sorted(p.name for p in out.glob("*.partial"))
    checks.append(("no-partial-markers", not partial, ", ".join(partial) or "none"))
    return checks

