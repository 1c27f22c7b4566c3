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
4. analytics - node/edge counts, growth series, PageRank rankings.

``import wikilinks`` loads no stage, and each CLI stage imports only the
modules it runs. The API lives in the submodules: ``wikilinks.dump``
(reading dumps), ``wikilinks.wikitext`` (the link scanner:
:func:`extract_links`, :func:`detect_redirect`, :func:`normalize_title`),
``wikilinks.pipeline`` (extract), ``wikilinks.snapshot``,
``wikilinks.graph``, ``wikilinks.analytics``, ``wikilinks.storage`` (dataset
files) and ``wikilinks.errors``.
"""

__version__ = "0.1.0"
