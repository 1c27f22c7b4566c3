"""Seeded dump-to-graph benchmark of the ``wikilinks`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload deep-history --seed 1 --seconds 35 --trace 0

One round runs the workload's stages the way a user does: one
``python -m wikilinks.cli <stage>`` process per stage, one after another,
``--jobs 1``, ``--lang en``, into an empty output directory. Every round's
outputs are checked against results computed apart from the program (see
``prepare.py`` and ``checks.py``) and against the first round's bytes; a
round whose bytes equal the first round's shares its check results.
Rounds repeat while another one fits in ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over the rounds). With ``--trace 1`` the same
untraced rounds run, then one round whose stages run under
``traced_stage.py``, and the JSON object holds the per-layer metrics. Progress
goes to standard error. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_round, output_digests
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable
SETUP_SAMPLES_FIRST = 2  # extra set-up samples before the first round


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Launcher:
    """The small process that starts stages (see launcher.py)."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.proc = subprocess.Popen(
            [PYTHON, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, argvs: list[list[str]], logs: list[Path]) -> list[dict]:
        request = {"argvs": argvs, "logs": [str(p) for p in logs], "env": self.env}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited early")
        return json.loads(reply)["runs"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Round:
    """One pass over the workload's stages in a fresh output directory."""

    def __init__(self, workload: Workload, cache: Path, work: Path, index: int):
        self.workload = workload
        self.cache = cache
        self.dir = work / f"round-{index}"
        self.out = self.dir / "out"
        self.out.mkdir(parents=True)
        self.inputs = frozenset()
        if workload.graph is not None:
            # stats and pagerank read the graph from the output directory.
            for src in (cache / "inputs").iterdir():
                os.link(src, self.out / src.name)
            self.inputs = frozenset(p.name for p in self.out.iterdir())

    def commands(self, traced: bool) -> tuple[list[list[str]], list[Path]]:
        argvs, logs = [], []
        for stage in self.workload.stages:
            args = self.workload.stage_args(stage, str(self.cache / "dump.xml"), str(self.out))
            if traced:
                argvs.append([PYTHON, str(HERE / "traced_stage.py"), str(self.trace_path(stage))]
                             + args)
            else:
                argvs.append([PYTHON, "-m", "wikilinks.cli"] + args)
            logs.append(self.dir / f"{stage}.log")
        return argvs, logs

    def trace_path(self, stage: str) -> Path:
        return self.dir / f"{stage}.trace.json"


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Seeded dump-to-graph benchmark of wikilinks.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def round_costs(runs: list[dict], stages: tuple[str, ...]) -> dict:
    return {
        "total_s": runs[-1]["exit"] - runs[0]["launch"],
        "cpu_s": sum(r["utime"] + r["stime"] for r in runs),
        "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024,
        "stage_s": {s: r["exit"] - r["launch"] for s, r in zip(stages, runs)},
        "stage_rss_mb": {s: r["maxrss_kb"] / 1024 for s, r in zip(stages, runs)},
    }


class Tally:
    """Operations attempted and failed: stage processes and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def processes(self, names, runs) -> None:
        for name, run in zip(names, runs):
            self.attempted += 1
            if run["code"] != 0:
                self.failed += 1
                self.correct = False
                log(f"FAILED process {name}: exit code {run['code']}")

    def checks(self, checks) -> None:
        for name, passed, detail in checks:
            self.attempted += 1
            if not passed:
                self.failed += 1
                self.correct = False
                log(f"FAILED check {name}: {detail}")


def layer_metrics(workload: Workload, expected: dict, rounds: list[dict],
                  traced_runs: list[dict], traces: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the untraced rounds and the traced round's spans."""
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    unexplained = 0.0
    exits = {stage: run["exit"] for stage, run in zip(workload.stages, traced_runs)}
    for stage, trace in traces.items():
        for name, (calls, total, self_s, items) in trace["spans"].items():
            record = spans.setdefault(name, [0, 0.0, 0.0, 0])
            record[0] += calls
            record[1] += total
            record[2] += self_s
            record[3] += items
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        covered = sum(record[2] for record in trace["spans"].values())
        unexplained += exits[stage] - trace["main_start"] - covered

    def self_s(*names):
        return sum(spans.get(n, [0, 0.0, 0.0, 0])[2] for n in names)

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0, 0])[0]

    def items(name):
        return spans.get(name, [0, 0.0, 0.0, 0])[3]

    def ratio(a, b):
        return a / b if b else 0.0

    def stage_median(key, stage):
        if stage not in workload.stages:
            return 0.0
        return statistics.median(r[key][stage] for r in rounds)

    m: dict[str, tuple[float, str]] = {}
    for stage in ("extract", "snapshot", "graph", "stats", "pagerank", "verify"):
        m[f"cli.{stage}_s"] = (stage_median("stage_s", stage), "s")
    for stage in ("extract", "snapshot", "graph", "pagerank"):
        m[f"cli.{stage}_rss_mb"] = (stage_median("stage_rss_mb", stage), "MB")
    m["cli.unexplained_s"] = (unexplained, "s")

    read_pages_s = self_s("dump.read_pages")
    dump_mb = expected["input_bytes"] / 1e6 if expected["kind"] == "dump" else 0.0
    m["dump.read_pages_s"] = (read_pages_s, "s")
    m["dump.pages"] = (items("dump.read_pages"), "count")
    m["dump.revisions"] = (counts.get("dump.revisions", 0), "count")
    m["dump.input_mb_per_s"] = (ratio(dump_mb, read_pages_s), "MB/s")

    m["wikitext.extract_links_s"] = (self_s("wikitext.extract_links"), "s")
    m["wikitext.detect_redirect_s"] = (self_s("wikitext.detect_redirect"), "s")
    m["wikitext.normalize_title_s"] = (self_s("wikitext.normalize_title"), "s")
    m["wikitext.normalize_title_calls"] = (calls("wikitext.normalize_title"), "count")
    m["wikitext.links"] = (counts.get("wikitext.links", 0), "count")

    raw_read = items("pipeline.read_raw_records")
    m["pipeline.extract_all_self_s"] = (self_s("pipeline.extract_all"), "s")
    m["pipeline.read_raw_records_s"] = (self_s("pipeline.read_raw_records"), "s")
    m["pipeline.read_redirect_events_s"] = (self_s("pipeline.read_redirect_events"), "s")
    m["pipeline.raw_records_read"] = (raw_read, "count")
    m["pipeline.redirect_events_read"] = (items("pipeline.read_redirect_events"), "count")

    written = counts.get("storage.rows_written", 0)
    m["storage.write_s"] = (self_s("storage.write"), "s")
    m["storage.read_s"] = (self_s("storage.read"), "s")
    m["storage.rows_written"] = (written, "count")
    m["storage.rows_read"] = (items("storage.read"), "count")
    m["storage.mb_written"] = (counts.get("storage.bytes_written", 0) / 1e6, "MB")
    m["storage.useful_write_ratio"] = (
        ratio(counts.get("storage.rows_outliving_stage", 0), written), "ratio")

    m["extsort.external_sort_s"] = (self_s("extsort.external_sort"), "s")
    m["extsort.unique_justseen_s"] = (self_s("extsort.unique_justseen"), "s")
    m["extsort.rows_sorted"] = (items("extsort.external_sort"), "count")

    kept = counts.get("snapshot.links_kept", 0)
    m["snapshot.select_s"] = (self_s("snapshot.select"), "s")
    m["snapshot.resolve_s"] = (self_s("snapshot.resolve"), "s")
    m["snapshot.filter_s"] = (self_s("snapshot.filter"), "s")
    m["snapshot.write_s"] = (self_s("snapshot.write"), "s")
    m["snapshot.links_kept"] = (kept, "count")
    m["snapshot.kept_ratio"] = (ratio(kept, raw_read), "ratio")

    candidates = items("graph.candidates")
    edges = counts.get("graph.edges", 0)
    m["graph.read_s"] = (self_s("graph.read"), "s")
    m["graph.build_s"] = (self_s("graph.build", "graph.candidates"), "s")
    m["graph.candidate_edges"] = (candidates, "count")
    m["graph.edges"] = (edges, "count")
    m["graph.dedup_ratio"] = (ratio(edges, candidates), "ratio")

    loaded = counts.get("analytics.edges_loaded", 0)
    m["analytics.load_graph_s"] = (self_s("analytics.load_graph"), "s")
    m["analytics.pagerank_s"] = (self_s("analytics.pagerank"), "s")
    m["analytics.rank_s"] = (self_s("analytics.rank"), "s")
    m["analytics.write_rankings_s"] = (self_s("analytics.write_rankings"), "s")
    m["analytics.compute_stats_s"] = (self_s("analytics.compute_stats"), "s")
    m["analytics.iterations"] = (counts.get("analytics.iterations", 0), "count")
    m["analytics.edges_loaded"] = (loaded, "count")
    m["analytics.rss_bytes_per_edge"] = (
        ratio(m["cli.pagerank_rss_mb"][0] * 2**20, loaded), "B/edge")

    traced_total = traced_runs[-1]["exit"] - traced_runs[0]["launch"]
    m["trace.overhead_s"] = (
        traced_total - statistics.median(r["total_s"] for r in rounds), "s")
    return m


def main() -> int:
    args = parse_args()
    workload = WORKLOADS[args.workload]
    missing = [p for p in (SRC / "wikilinks" / "cli.py", ROOT / "tests" / "bruteforce.py")
               if not p.is_file()]
    if missing:
        log(f"not a wikilinks checkout, missing: {', '.join(map(str, missing))}")
        return 2

    prepared = subprocess.run(
        [PYTHON, str(HERE / "prepare.py"), "--workload", workload.name, "--seed", str(args.seed)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
    )
    cache = Path(prepared.stdout.strip().splitlines()[-1])
    expected = json.loads((cache / "expected.json").read_text("utf-8"))
    reference = json.loads((cache / "pagerank.json").read_text("utf-8"))

    work = HERE / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
    launcher = Launcher(env)
    tally = Tally()
    try:
        setup_argv = [PYTHON, "-c", "import wikilinks.cli"]
        setup_log = work / "setup.log"
        launcher.run([setup_argv], [setup_log])  # warm-up: bytecode and file caches
        setup_samples: list[float] = []
        rounds: list[dict] = []
        digests = first_checks = None
        started = time.monotonic()
        while True:
            extra = SETUP_SAMPLES_FIRST if not rounds else 0
            runs = launcher.run([setup_argv] * (1 + extra), [setup_log] * (1 + extra))
            tally.processes(["setup"] * len(runs), runs)
            setup_samples += [r["exit"] - r["launch"] for r in runs]

            rnd = Round(workload, cache, work, len(rounds))
            argvs, logs = rnd.commands(traced=False)
            runs = launcher.run(argvs, logs)
            tally.processes(workload.stages, runs)
            round_digests = output_digests(rnd.out, rnd.inputs)
            if digests is None:
                digests = round_digests
                first_checks = check_round(expected, reference, rnd.out)
            # The checks are a function of the output bytes, so a round whose
            # bytes equal the first round's has the first round's results.
            same = round_digests == digests
            tally.checks(first_checks if same else check_round(expected, reference, rnd.out))
            tally.checks([("byte-determinism", same, f"{len(round_digests)} files")])
            rounds.append(round_costs(runs, workload.stages))
            shutil.rmtree(rnd.dir)
            elapsed = time.monotonic() - started
            log(f"round {len(rounds)}: total {rounds[-1]['total_s']:.3f} s, "
                f"elapsed {elapsed:.1f} s")
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break

        if args.trace:
            rnd = Round(workload, cache, work, len(rounds))
            argvs, logs = rnd.commands(traced=True)
            runs = launcher.run(argvs, logs)
            tally.processes(workload.stages, runs)
            tally.checks(check_round(expected, reference, rnd.out))
            tally.checks([("traced-byte-determinism",
                           output_digests(rnd.out, rnd.inputs) == digests, "traced round")])
            traces = {s: json.loads(rnd.trace_path(s).read_text("utf-8"))
                      for s, r in zip(workload.stages, runs) if r["code"] == 0}
            metrics = layer_metrics(workload, expected, rounds, runs, traces)
        else:
            metrics = {
                "total_s": (statistics.median(r["total_s"] for r in rounds), "s"),
                "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
                "setup_s": (statistics.median(setup_samples), "s"),
            }
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    log(f"{len(rounds)} rounds, {len(setup_samples)} set-up samples")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
