"""Turn MediaWiki full-revision-history XML dumps into temporal link datasets.

Pipeline stages (each also available as a CLI subcommand):

1. extract  - stream dumps; emit raw per-revision link records and the
              per-revision redirect history;
2. snapshot - for every date at once, select the last revision of each
              page strictly before the instant
              (select_snapshot_revisions), resolve redirect chains into
              resolvedredirects rows, and emit the links that existed at
              that moment (build_link_snapshot); one pass over each input
              serves all dates, holding one entry per selected revision
              and per title;
3. graph    - resolve and deduplicate the active links of each date's
              snapshot rows into an edge list;
4. analytics - node/edge counts, growth series, PageRank rankings; import
              ``wikilinks.analytics`` for these, since only the ``stats``
              and ``pagerank`` stages load it.

Links and redirects leave the wikitext scanner as the string columns that
extract writes (see :func:`extract_links` and :func:`detect_redirect`).
"""

from .dump import PageHistory, Revision, filter_namespace, open_dump
from .errors import ConfigurationError, DataFormatError, DumpFormatError
from .graph import build_graph, emit_edges
from .pipeline import RunSummary, extract_all
from .snapshot import SnapshotDate, build_link_snapshot, select_snapshot_revisions
from .wikitext import (
    LanguageProfile,
    detect_redirect,
    extract_links,
    get_profile,
    normalize_title,
    section_scan,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DataFormatError",
    "DumpFormatError",
    "LanguageProfile",
    "PageHistory",
    "Revision",
    "RunSummary",
    "SnapshotDate",
    "build_graph",
    "build_link_snapshot",
    "detect_redirect",
    "emit_edges",
    "extract_all",
    "extract_links",
    "filter_namespace",
    "get_profile",
    "normalize_title",
    "open_dump",
    "section_scan",
    "select_snapshot_revisions",
]
