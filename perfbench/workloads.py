"""The benchmark's workloads: inputs, dates and the stages of one round."""

from __future__ import annotations

from dataclasses import dataclass

from gen_dump import DEEP_HISTORY, TINY, YEARLY_SERIES, DumpShape

LANG = "en"
PAGERANK_DATE = "2018-03-01"
YEARLY_DATES = tuple(f"{year}-03-01" for year in range(2001, 2019))


@dataclass(frozen=True)
class Workload:
    name: str
    dates: tuple[str, ...]
    stages: tuple[str, ...]
    dump: DumpShape | None = None  # dump workloads
    graph: tuple[int, int] | None = None  # graph workloads: (nodes, edges)
    date_args: bool = True  # pass --date to snapshot/graph/stats

    def stage_args(self, stage: str, dump_path: str, out_dir: str) -> list[str]:
        """CLI arguments (after ``python -m wikilinks.cli``) of one stage."""
        args = [stage, "--lang", LANG, "--output-dir", out_dir]
        if stage == "extract":
            return args + ["--jobs", "1", dump_path]
        if stage == "pagerank":
            return args + ["--date", PAGERANK_DATE]
        if stage in ("snapshot", "graph", "stats") and self.date_args:
            for date in self.dates:
                args += ["--date", date]
        return args


DUMP_STAGES = ("extract", "snapshot", "graph", "stats", "pagerank", "verify")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep-history", (PAGERANK_DATE,), DUMP_STAGES, dump=DEEP_HISTORY),
        Workload("yearly-series", YEARLY_DATES, DUMP_STAGES, dump=YEARLY_SERIES,
                 date_args=False),
        Workload("large-graph", (PAGERANK_DATE,), ("stats", "pagerank"),
                 graph=(100_000, 800_000)),
        # Small versions of both kinds, for the benchmark's own tests.
        Workload("tiny-dump", ("2010-03-01", PAGERANK_DATE), DUMP_STAGES, dump=TINY),
        Workload("tiny-graph", (PAGERANK_DATE,), ("stats", "pagerank"), graph=(300, 2000)),
    )
}
