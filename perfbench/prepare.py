"""Build one workload's inputs and expected results for one seed, and cache them.

Everything expected is computed apart from the program under test:

* edge and node lists of every date come from ``tests/bruteforce.py``,
  loaded from its file unmodified (only its whole-file XML parse is
  memoised, so the 18 dates of a series share one parse);
* row counts come from the literal link regex and a plain selection of the
  last revision before each date;
* PageRank scores come from :func:`reference_pagerank`, a power iteration
  written here with ``numpy.bincount`` instead of the program's scipy
  matrix.

The cache lives in ``perfbench/.cache/<workload>-s<seed>-<key>/``, where the
key hashes the generator and oracle sources, so a changed generator never
reuses stale inputs. Rebuild one entry with
``python3 perfbench/prepare.py --workload deep-history --seed 1`` (add
``--force`` to rebuild it even if present).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import gen_dump
import gen_graph
from workloads import LANG, PAGERANK_DATE, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
ORACLE = ROOT / "tests" / "bruteforce.py"
DAMPING = 0.85
REFERENCE_TOLERANCE = 1e-13


def rows_digest(rows) -> str:
    """Order-sensitive digest of rows of ids and titles."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(list(row), ensure_ascii=False).encode("utf-8") + b"\n")
    return digest.hexdigest()


def cache_key() -> str:
    digest = hashlib.sha256()
    for name in ("gen_dump.py", "gen_graph.py", "prepare.py", "workloads.py"):
        digest.update((HERE / name).read_bytes())
    digest.update(ORACLE.read_bytes())
    return digest.hexdigest()[:12]


def cache_dir(workload: str, seed: int) -> Path:
    return CACHE / f"{workload}-s{seed}-{cache_key()}"


def load_oracle():
    spec = importlib.util.spec_from_file_location("bruteforce", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.load_articles = functools.lru_cache(maxsize=1)(module.load_articles)
    return module


def reference_pagerank(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """PageRank by power iteration: uniform teleport and dangling mass."""
    out_degree = np.bincount(src, minlength=n).astype(np.float64)
    dangling = out_degree == 0
    share = np.divide(1.0, out_degree, out=np.zeros(n), where=~dangling)
    edge_share = share[src]
    x = np.full(n, 1.0 / n)
    for _ in range(10_000):
        spread = np.bincount(dst, weights=x[src] * edge_share, minlength=n)
        new = (1.0 - DAMPING) / n + DAMPING * (spread + x[dangling].sum() / n)
        delta = np.abs(new - x).sum()
        x = new
        if delta < REFERENCE_TOLERANCE:
            return x
    raise RuntimeError("reference PageRank did not converge")


def _scores(node_ids, titles, edges) -> dict[str, float]:
    index = {node: i for i, node in enumerate(node_ids)}
    src = np.fromiter((index[s] for s, _ in edges), dtype=np.int64, count=len(edges))
    dst = np.fromiter((index[d] for _, d in edges), dtype=np.int64, count=len(edges))
    scores = reference_pagerank(len(node_ids), src, dst)
    return dict(zip(titles, scores.tolist()))


def dump_expectations(dump_path: Path, workload: Workload) -> tuple[dict, dict]:
    bf = load_oracle()
    articles = bf.load_articles(dump_path)
    revisions = sum(len(revs) for _, revs in articles.values())
    raw_links = sum(
        sum(1 for _ in bf.LINK.finditer(text))
        for _, revs in articles.values()
        for _, _, text in revs
    )
    dates = {}
    pagerank = {}
    for date in workload.dates:
        boundary = date + "T00:00:00Z"
        snapshot_links = 0
        for _, revs in articles.values():
            before = [rev for rev in revs if rev[0] < boundary]
            if before:
                text = max(before)[2]
                snapshot_links += sum(
                    1 for m in bf.LINK.finditer(text)
                    if bf.normalize(m.group("link").split("#", 1)[0]) is not None
                )
        edges, nodes = bf.snapshot_edges(dump_path, date)
        dates[date] = {
            "snapshot_links": snapshot_links,
            "nodes": len(nodes),
            "edges": len(edges),
            "node_digest": rows_digest(nodes),
            "edge_digest": rows_digest(edges),
        }
        if date == PAGERANK_DATE:
            pagerank = _scores(
                [page_id for page_id, _ in nodes],
                [title for _, title in nodes],
                [(e[0], e[2]) for e in edges],
            )
    expected = {
        "kind": "dump",
        "input_bytes": dump_path.stat().st_size,
        "pages": len(articles),
        "revisions": revisions,
        "raw_links": raw_links,
        "dates": dates,
    }
    return expected, pagerank


def graph_expectations(out: Path, workload: Workload, seed: int) -> tuple[dict, dict]:
    nodes, edges = workload.graph
    ids, src, dst = gen_graph.make_graph(nodes, edges, seed)
    gen_graph.write_graph(out, ids, src, dst, date=PAGERANK_DATE, lang=LANG)
    scores = reference_pagerank(nodes, np.searchsorted(ids, src), np.searchsorted(ids, dst))
    pagerank = {gen_graph.title_of(i): s for i, s in zip(ids.tolist(), scores.tolist())}
    expected = {
        "kind": "graph",
        "input_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "dates": {PAGERANK_DATE: {"nodes": nodes, "edges": edges}},
    }
    return expected, pagerank


def prepare(workload_name: str, seed: int, force: bool = False) -> Path:
    """Return the cache directory of (workload, seed), building it if needed."""
    final = cache_dir(workload_name, seed)
    if final.is_dir() and not force:
        return final
    workload = WORKLOADS[workload_name]
    building = final.with_name(final.name + ".building")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    if workload.dump is not None:
        dump_path = building / "dump.xml"
        gen_dump.write_dump(dump_path, workload.dump, seed)
        expected, pagerank = dump_expectations(dump_path, workload)
    else:
        inputs = building / "inputs"
        inputs.mkdir()
        expected, pagerank = graph_expectations(inputs, workload, seed)
    (building / "pagerank.json").write_text(json.dumps(pagerank), encoding="utf-8")
    (building / "expected.json").write_text(json.dumps(expected, indent=1), encoding="utf-8")
    shutil.rmtree(final, ignore_errors=True)
    building.rename(final)
    return final


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()
    print(prepare(args.workload, args.seed, args.force))


if __name__ == "__main__":
    sys.exit(main())
