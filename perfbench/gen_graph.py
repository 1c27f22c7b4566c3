"""Seeded synthetic snapshot graph in the documented ``wikilinkgraph`` format.

Writes ``<lang>wiki.wikilinkgraph.<date>.csv.gz`` (edges sorted by
``(page_id_from, page_id_to)``, deduplicated) and
``<lang>wiki.wikilinkgraph.nodes.<date>.csv.gz`` (every node, sorted by id),
each with its ``.sha256`` sidecar. The graph has exactly the requested node
and edge counts for every seed, a heavy-tailed (Zipf) in-degree, dangling
nodes (no out-links), isolated nodes (no links at all, listed only in the
node file) and small closed rings of 3-30 nodes. Node ids have gaps.
"""

from __future__ import annotations

import gzip
import hashlib
from pathlib import Path

import numpy as np

EDGE_HEADER = "page_id_from,page_title_from,page_id_to,page_title_to\n"
NODE_HEADER = "page_id,page_title\n"
WORDS = (
    "river", "battle", "county", "album", "station", "church", "school", "party",
    "island", "bridge", "league", "film", "novel", "treaty", "valley", "tower",
)
ISOLATED_SHARE = 0.05
DANGLING_SHARE = 0.15
RING_SHARE = 0.02
ZIPF_EXPONENT = 1.0


def title_of(page_id: int) -> str:
    first = WORDS[page_id % len(WORDS)].capitalize()
    second = WORDS[(page_id // len(WORDS)) % len(WORDS)]
    return f"{first} {second} {page_id}"


def make_graph(nodes: int, edges: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted node ids, edge sources, edge targets), edges sorted by pair."""
    rng = np.random.default_rng(seed)
    ids = np.cumsum(rng.integers(1, 4, size=nodes)).astype(np.int64)
    order = rng.permutation(nodes)
    isolated = int(nodes * ISOLATED_SHARE)
    ringed = int(nodes * RING_SHARE)
    # Closed rings keep their mass apart from the rest of the graph, so
    # PageRank converges at the damping rate, as on real link graphs.
    ring_nodes = order[isolated:isolated + ringed]
    rings, start = [], 0
    while ringed - start >= 6:  # every ring, the last included, keeps >= 3 nodes
        size = int(rng.integers(3, min(30, ringed - start - 3) + 1))
        rings.append(ring_nodes[start:start + size])
        start += size
    rings.append(ring_nodes[start:])
    pairs = np.concatenate([ring * nodes + np.roll(ring, -1) for ring in rings])
    ring_edges = len(pairs)
    linked = order[isolated + ringed:]
    sources = linked[int(len(linked) * DANGLING_SHARE):]
    # Zipf weights over a random ranking of the linked nodes.
    weights = 1.0 / np.arange(1, len(linked) + 1) ** ZIPF_EXPONENT
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    main = np.empty(0, dtype=np.int64)
    while len(main) < edges - ring_edges:
        draw = int((edges - ring_edges - len(main)) * 1.3) + 1000
        src = sources[rng.integers(0, len(sources), size=draw)]
        dst = linked[np.searchsorted(cumulative, rng.random(draw))]
        main = np.unique(np.concatenate([main, src.astype(np.int64) * nodes + dst]))
    main = rng.choice(main, size=edges - ring_edges, replace=False)
    pairs = np.sort(np.concatenate([pairs, main]))
    return ids, ids[pairs // nodes], ids[pairs % nodes]


def _write(path: Path, header: str, lines) -> None:
    with open(path, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0, compresslevel=6) as out:
            out.write(header.encode())
            for chunk in lines:
                out.write(chunk.encode("utf-8"))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    Path(str(path) + ".sha256").write_text(f"{digest}  {path.name}\n", encoding="utf-8")


def write_graph(out_dir: Path, ids: np.ndarray, src: np.ndarray, dst: np.ndarray,
                date: str = "2018-03-01", lang: str = "en") -> tuple[Path, Path]:
    """Write the edge and node files of :func:`make_graph`'s graph."""
    titles = {int(i): title_of(int(i)) for i in ids}
    edge_path = out_dir / f"{lang}wiki.wikilinkgraph.{date}.csv.gz"
    node_path = out_dir / f"{lang}wiki.wikilinkgraph.nodes.{date}.csv.gz"
    step = 100_000

    def edge_lines():
        for lo in range(0, len(src), step):
            yield "".join(
                f"{s},{titles[s]},{d},{titles[d]}\n"
                for s, d in zip(src[lo:lo + step].tolist(), dst[lo:lo + step].tolist())
            )

    _write(edge_path, EDGE_HEADER, edge_lines())
    _write(node_path, NODE_HEADER, (f"{i},{titles[i]}\n" for i in ids.tolist()))
    return edge_path, node_path

