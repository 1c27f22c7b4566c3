"""Tests of the benchmark itself, on tiny inputs (about 20 seconds in all)."""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen_dump  # noqa: E402
import gen_graph  # noqa: E402
import prepare  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


def test_dump_generator_is_seeded(tmp_path):
    paths = [tmp_path / f"{i}.xml" for i in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        gen_dump.write_dump(path, gen_dump.TINY, seed)
    first = paths[0].read_text("utf-8")
    assert first == paths[1].read_text("utf-8")
    assert first != paths[2].read_text("utf-8")


def test_dump_has_every_feature(tmp_path):
    path = tmp_path / "dump.xml"
    gen_dump.write_dump(path, gen_dump.DEEP_HISTORY, 1)
    text = path.read_text("utf-8")
    features = ("<ns>1</ns>", "#redirect [[", "#Redirect[[", "[[#", "|thumb|", "\n== ",
                "-03-01T00:00:00Z", "[[:", "[[ ")
    assert [f for f in features if f not in text] == []
    revisions = re.findall(
        r"<revision>\s*<id>(\d+)</id>\s*(?:<parentid>\d+</parentid>\s*)?"
        r"<timestamp>([^<]+)</timestamp>", text)
    assert any(a[1] == b[1] and int(a[0]) > int(b[0]) for a, b in zip(revisions, revisions[1:]))


def test_generated_sizes_do_not_depend_on_the_seed():
    counts = [sorted(gen_dump._spread(random.Random(s), 90, 10, 30)) for s in (1, 2)]
    assert counts[0] == counts[1]


def test_graph_generator_is_sorted_deduplicated_and_exact():
    ids, src, dst = gen_graph.make_graph(300, 2000, seed=1)
    assert len(ids) == 300 and np.all(np.diff(ids) > 0)
    pairs = src * (ids[-1] + 1) + dst
    assert len(src) == 2000 and np.all(np.diff(pairs) > 0)
    isolated = set(ids.tolist()) - set(src.tolist()) - set(dst.tolist())
    assert len(isolated) >= 300 * gen_graph.ISOLATED_SHARE


def test_reference_pagerank_matches_a_dense_solve():
    rng = np.random.default_rng(3)
    n = 40
    src = rng.integers(0, n, 150)
    dst = rng.integers(0, n, 150)
    pairs = np.unique(src * n + dst)
    src, dst = pairs // n, pairs % n
    transition = np.zeros((n, n))
    out = np.bincount(src, minlength=n)
    for s, d in zip(src, dst):
        transition[s, d] = 1.0 / out[s]
    transition[out == 0, :] = 1.0 / n
    dense = np.linalg.solve(np.eye(n) - 0.85 * transition.T, np.full(n, 0.15 / n))
    np.testing.assert_allclose(prepare.reference_pagerank(n, src, dst), dense, atol=1e-12)


def test_pagerank_check_rejects_a_wrong_score(tmp_path):
    path = tmp_path / "enwiki.pagerank.csv"
    path.write_text("rank,title,score\n1,A,6.00000e-01\n2,B,4.00000e-01\n", encoding="utf-8")
    good = {name for name, ok, _ in checks.check_pagerank(path, {"A": 0.6, "B": 0.4}) if ok}
    bad = {name for name, ok, _ in checks.check_pagerank(path, {"A": 0.59, "B": 0.41}) if ok}
    assert "pagerank-scores" in good and "pagerank-scores" not in bad


def _run(workload: str, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("workload,trace,key", [
    ("tiny-dump", 1, "per_layer"),
    ("tiny-graph", 0, "end_to_end"),
])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace, key):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[key]]
    units = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _run("tiny-dump", 0, cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
