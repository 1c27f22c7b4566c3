from __future__ import annotations

import json
import random
import re
import datetime

import pytest

from wikilinks import cli, pipeline, storage
from wikilinks.errors import DataFormatError
from wikilinks.pipeline import RAW_LINK_FIELDS, REDIRECT_FIELDS, redirect_sort_key
from wikilinks.snapshot import (
    RESOLUTION_ARTICLE,
    RESOLUTION_CYCLE,
    RESOLUTION_DANGLING,
    RESOLUTION_RESOLVED,
    RESOLVED_FIELDS,
    SNAPSHOT_LINK_FIELDS,
    SnapshotDate,
    build_link_snapshot,
    read_resolved_redirects,
    read_snapshot_links,
    resolve_snapshot,
    select_snapshot_revisions,
    write_resolved_redirects,
    write_snapshot_links,
    yearly_snapshot_dates,
)
from wikilinks.storage import DatasetWriter

MARCH_2018 = SnapshotDate.of("2018-03-01")

# Columns of a resolvedredirects row.
IS_REDIRECT, IMMEDIATE, FINAL, RESOLUTION = (
    RESOLVED_FIELDS.index(name)
    for name in ("is_redirect", "immediate_target", "final_target", "resolution")
)


def ts(value: str) -> str:
    """A dump timestamp: midnight UTC of a YYYY-MM-DD day, or a full timestamp."""
    return value if len(value) > 10 else value + "T00:00:00Z"


def event(page_id, title, rev_id, when, target=None, tosection=None):
    """A redirect-history row."""
    return (str(page_id), title, str(rev_id), ts(when), target or "", tosection or "")


def raw(page_id, title, rev_id, link, when="2016-01-01"):
    """A raw link row."""
    return (
        str(page_id), title, str(rev_id), "", ts(when), "registered", "U", "1", "0",
        link, "", "", "", "0", "0",
    )


def select_at(events, date=MARCH_2018):
    """The selection of one date from redirect-history rows in any order."""
    return select_snapshot_revisions(sorted(events, key=redirect_sort_key), [date])


def selected_at(events, date=MARCH_2018):
    """page_id -> (revision_id, title, target, fragment) selected at one date."""
    selection = select_at(events, date)
    assert set(selection.revisions.values()) <= {range(0, 1)}
    (starting,) = selection.starting
    pages = {page_id: (title, *state) for title, (page_id, *state) in starting}
    return {page_id: (revision_id, *pages[page_id]) for page_id, revision_id in selection.revisions}


def redirects_at(events, date=MARCH_2018):
    """title -> immediate target of the redirect pages at one date."""
    rows = resolve_snapshot(next(select_at(events, date).states()))
    return {row[1]: row[IMMEDIATE].partition("#")[0] for row in rows if row[IS_REDIRECT] == "1"}


def resolve(redirects, pages):
    """title -> resolvedredirects row, for a date where ``pages`` maps every
    title to its page id and ``redirects`` maps redirect titles to targets."""
    state = {title: (page_id, redirects.get(title), None) for title, page_id in pages.items()}
    return {row[1]: row for row in resolve_snapshot(state)}


class TestSnapshotDate:
    def test_label_and_parsing(self):
        assert MARCH_2018.label == "2018-03-01"
        assert SnapshotDate.of("2018-03-01T00:00:00Z") == MARCH_2018
        assert SnapshotDate.march_first(2018) == MARCH_2018

    def test_strictly_before(self):
        # A revision belongs to the snapshot iff its timestamp sorts before the cutoff.
        assert "2018-02-28T23:59:59Z" < MARCH_2018.cutoff
        assert not "2018-03-01T00:00:00Z" < MARCH_2018.cutoff

    def test_yearly_defaults(self):
        dates = yearly_snapshot_dates()
        assert len(dates) == 18
        assert dates[0].label == "2001-03-01"
        assert dates[-1].label == "2018-03-01"


class TestSelectSnapshotRevisions:
    def test_latest_before_date(self):
        events = [
            event(1, "P", 10, "2017-06-01"),
            event(1, "P", 11, "2018-02-28"),
        ]
        assert selected_at(events)[1][0] == 11

    def test_created_at_instant_is_absent(self):
        # strictly-before boundary: midnight of the snapshot day is outside
        events = [event(1, "P", 10, "2018-03-01")]
        assert selected_at(events) == {}

    def test_equal_timestamps_higher_revision_wins(self):
        events = [
            event(1, "P", 11, "2017-06-01"),
            event(1, "P", 10, "2017-06-01"),
        ]
        assert selected_at(events)[1][0] == 11

    def test_redirect_target_normalized(self):
        events = [event(1, "P", 10, "2017-06-01", target="new_york  city")]
        assert selected_at(events)[1] == (10, "P", "New york city", None)
        assert redirects_at(events) == {"P": "New york city"}

    def test_every_selection_is_before_instant_and_unique(self):
        events = [
            event(1, "P", 10, "2016-01-01"),
            event(1, "P", 11, "2017-06-01"),
            event(1, "P", 12, "2019-01-01"),
            event(2, "Q", 20, "2017-01-01"),
            event(2, "Q", 21, "2018-06-01"),
        ]
        selection = select_at(events)
        page_ids = [page_id for page_id, _ in selection.revisions]
        assert sorted(page_ids) == [1, 2]  # one revision per page
        stamps = {int(e[2]): e[3] for e in events}
        for _, revision_id in selection.revisions:
            assert stamps[revision_id] < MARCH_2018.cutoff
        assert {p: page[0] for p, page in selected_at(events).items()} == {1: 11, 2: 20}

    def test_fractional_second_instant_includes_that_second(self):
        events = [
            event(1, "P", 10, "2017-06-01"),
            event(1, "P", 11, "2018-03-01T00:00:00Z"),
        ]
        fractional = SnapshotDate.of("2018-03-01T00:00:00.5Z")
        assert fractional.cutoff == "2018-03-01T00:00:01Z"
        assert selected_at(events, fractional)[1][0] == 11
        assert selected_at(events)[1][0] == 10


class TestSelectRevisions:
    DATES = [SnapshotDate.of(d) for d in ("2016-03-01", "2017-03-01", "2018-03-01")]

    def test_spans_of_dates_per_revision(self):
        events = [
            event(1, "P", 10, "2015-01-01"),
            event(1, "P", 11, "2015-06-01"),  # replaces 10 before the first date
            event(1, "P", 12, "2017-03-01"),  # stamped exactly at the second date
            event(2, "Q", 20, "2017-05-01", target="p"),
            event(3, "R", 30, "2019-01-01"),  # after every date
        ]
        selection = select_snapshot_revisions(events, self.DATES)
        assert selection.revisions == {(1, 11): range(0, 2), (1, 12): range(2, 3),
                                       (2, 20): range(2, 3)}
        # R exists at no date; P and Q exist from their first date on.
        assert selection.first == {"P": 0, "Q": 2}
        assert selection.starting == [
            [("P", (1, None, None))],
            [],
            [("P", (1, None, None)), ("Q", (2, "P", None))],
        ]

    def test_every_date_agrees_with_its_one_date_selection(self):
        events = [
            event(1, "P", 10, "2015-01-01"),
            event(1, "P", 12, "2016-06-01", target="Q"),
            event(1, "P", 11, "2016-06-01"),
            event(1, "P", 13, "2018-01-01"),
            event(2, "Q", 20, "2016-01-01"),
        ]
        selection = select_snapshot_revisions(sorted(events, key=redirect_sort_key), self.DATES)
        states = [dict(state) for state in selection.states()]
        assert [len(state) for state in states] == [2, 2, 2]
        assert states[1] == {"P": (1, "Q", None), "Q": (2, None, None)}
        for state, date in zip(states, self.DATES):
            assert state == next(select_at(events, date).states())

    def test_a_state_for_every_date_when_nothing_is_selected(self):
        selection = select_snapshot_revisions([event(1, "P", 10, "2019-01-01")], self.DATES)
        assert [dict(state) for state in selection.states()] == [{}, {}, {}]

    def test_states_share_one_live_dict(self):
        events = [event(1, "P", 10, "2015-01-01"), event(2, "Q", 20, "2016-06-01")]
        states = select_snapshot_revisions(events, self.DATES).states()
        first = next(states)
        assert first == {"P": (1, None, None)}
        assert next(states) is first
        assert first == {"P": (1, None, None), "Q": (2, None, None)}

    def test_states_empty_each_bucket_once_applied(self):
        events = [event(1, "P", 10, "2015-01-01"), event(2, "Q", 20, "2016-06-01")]
        selection = select_snapshot_revisions(events, self.DATES)
        states = selection.states()
        next(states)
        assert selection.starting == [[], [("Q", (2, None, None))], []]
        assert list(states)[-1] == {"P": (1, None, None), "Q": (2, None, None)}
        assert selection.starting == [[], [], []]

    def test_a_title_exists_from_its_pages_first_revision_on(self):
        # Redirect revisions count, and so do revisions no date selects.
        events = [event(1, "P", 10, "2016-06-01", target="Q"), event(1, "P", 11, "2017-06-01"),
                  event(2, "Q", 20, "2015-01-01"), event(2, "Q", 21, "2015-02-01")]
        assert select_snapshot_revisions(events, self.DATES).first == {"P": 1, "Q": 0}

    def test_out_of_order_history_is_refused(self):
        events = [event(1, "P", 11, "2016-01-01"), event(1, "P", 10, "2015-01-01")]
        with pytest.raises(DataFormatError):
            select_snapshot_revisions(events, self.DATES)

    def test_a_revision_listed_twice_is_refused(self):
        # Its raw links would be listed twice too, so every link doubles.
        events = [event(1, "P", 10, "2015-01-01"), event(2, "Q", 20, "2016-01-01"),
                  event(2, "Q", 20, "2016-01-01")]
        with pytest.raises(DataFormatError, match="page 2 lists revision 20 twice"):
            select_snapshot_revisions(events, self.DATES)

    @pytest.mark.parametrize("between", [[], [event(1, "P", 12, "2016-01-15")]])
    def test_a_revision_listed_at_two_timestamps_is_refused(self, between):
        # In (page_id, timestamp, revision_id) order, but the raw links of
        # revision 11 would still come twice.
        events = [event(1, "P", 11, "2016-01-01"), *between, event(1, "P", 11, "2016-02-01")]
        with pytest.raises(DataFormatError, match="page 1 lists revision 11 twice"):
            select_snapshot_revisions(events, self.DATES)

    def test_one_revision_id_on_two_pages_is_kept(self):
        # Revisions are keyed by (page_id, revision_id).
        events = [event(1, "P", 11, "2016-01-01"), event(2, "Q", 11, "2016-02-01")]
        selection = select_snapshot_revisions(events, self.DATES)
        assert selection.revisions == {(1, 11): range(0, 3), (2, 11): range(0, 3)}


class TestBuildRedirectMap:
    def test_unredirected_page_absent(self):
        # redirect at rev 1, un-redirected at rev 2, both before the date
        events = [
            event(1, "P", 10, "2016-01-01", target="X"),
            event(1, "P", 11, "2017-01-01"),
        ]
        assert redirects_at(events) == {}

    def test_redirect_created_after_date_absent(self):
        events = [event(1, "P", 10, "2019-01-01", target="X")]
        assert redirects_at(events) == {}

    def test_normal_redirect_present(self):
        events = [event(1, "P", 10, "2016-01-01", target="X")]
        assert redirects_at(events) == {"P": "X"}


class TestResolveChains:
    PAGES = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 5}

    def test_single_step(self):
        resolved = resolve({"A": "B"}, self.PAGES)
        assert resolved["A"][FINAL] == "B"
        assert resolved["A"][RESOLUTION] == RESOLUTION_RESOLVED

    def test_chain_of_two(self):
        resolved = resolve({"A": "B", "B": "C"}, self.PAGES)
        assert resolved["A"][FINAL] == "C"
        assert resolved["B"][FINAL] == "C"
        assert resolved["A"][RESOLUTION] == RESOLUTION_RESOLVED

    def test_two_node_cycle(self):
        resolved = resolve({"A": "B", "B": "A"}, self.PAGES)
        assert resolved["A"][RESOLUTION] == RESOLUTION_CYCLE
        assert resolved["B"][RESOLUTION] == RESOLUTION_CYCLE
        # fallback keeps the single outgoing edge
        assert resolved["A"][FINAL] == "B"
        assert resolved["B"][FINAL] == "A"

    def test_self_redirect_is_a_cycle(self):
        resolved = resolve({"A": "A"}, self.PAGES)
        assert resolved["A"][RESOLUTION] == RESOLUTION_CYCLE
        assert resolved["A"][FINAL] == "A"

    def test_chain_into_cycle(self):
        resolved = resolve({"C": "A", "A": "B", "B": "A"}, self.PAGES)
        assert resolved["C"][RESOLUTION] == RESOLUTION_CYCLE
        assert resolved["C"][FINAL] == "A"

    def test_dangling_target(self):
        resolved = resolve({"A": "Nowhere"}, self.PAGES)
        assert resolved["A"][RESOLUTION] == RESOLUTION_DANGLING
        assert resolved["A"][FINAL] == "Nowhere"

    def test_articles_resolved_as_articles(self):
        resolved = resolve({}, {"A": 1})
        assert resolved["A"][RESOLUTION] == RESOLUTION_ARTICLE
        assert resolved["A"][IS_REDIRECT] == "0"
        assert resolved["A"][IMMEDIATE] == ""
        assert resolved["A"][FINAL] == ""

    def test_depth_cap_falls_back_like_cycle(self):
        titles = [f"N{i}" for i in range(40)]
        pages = {t: i + 1 for i, t in enumerate(titles)} | {"End": 99}
        chain = {titles[i]: titles[i + 1] for i in range(39)} | {titles[39]: "End"}
        resolved = resolve(chain, pages)
        assert resolved[titles[0]][RESOLUTION] == RESOLUTION_CYCLE
        assert resolved[titles[0]][FINAL] == titles[1]
        # near the end of the chain the cap is not hit
        assert resolved[titles[38]][RESOLUTION] == RESOLUTION_RESOLVED

    def test_final_target_never_a_redirect_for_acyclic_chains(self):
        redirects = {"A": "B", "B": "C", "D": "E"}
        resolved = resolve(redirects, self.PAGES)
        for page in resolved.values():
            if page[RESOLUTION] == RESOLUTION_RESOLVED:
                assert page[FINAL] not in redirects

    def test_idempotent(self):
        redirects = {"A": "B", "B": "C", "D": "A"}
        resolved = resolve(redirects, self.PAGES)
        final_map = {
            title: page[FINAL]
            for title, page in resolved.items()
            if page[RESOLUTION] == RESOLUTION_RESOLVED
        }
        again = resolve(final_map, self.PAGES)
        for title, target in final_map.items():
            assert again[title][FINAL] == target
            assert again[title][RESOLUTION] == RESOLUTION_RESOLVED

    def test_rows_sorted_by_page_id(self):
        # Page 1 joins the state after page 2, at the second date.
        dates = [SnapshotDate.of("2016-03-01"), MARCH_2018]
        events = [event(1, "P", 10, "2017-01-01"), event(2, "Q", 20, "2016-01-01")]
        selection = select_snapshot_revisions(events, dates)
        states = [dict(state) for state in selection.states()]
        assert list(states[1]) == ["Q", "P"]
        assert [row[0] for row in resolve_snapshot(states[1])] == ["1", "2"]


class TestBuildLinkSnapshot:
    EVENTS = [
        event(1, "P", 10, "2016-01-01"),
        event(2, "NYC", 20, "2016-01-01", target="New York City"),
        event(3, "New York City", 30, "2016-01-01"),
    ]

    def links(self, records):
        """The wikilinksnapshot rows of ``records`` at MARCH_2018."""
        indexed = list(build_link_snapshot(records, select_at(self.EVENTS)))
        assert {index for index, _ in indexed} <= {0}
        return [row for _, row in indexed]

    def test_link_to_redirect_page_is_active(self):
        (link,) = self.links([raw(1, "P", 10, "NYC")])
        assert link[8] == "1"  # the redirect page itself exists

    def test_red_link_inactive(self):
        (link,) = self.links([raw(1, "P", 10, "Never Created")])
        assert link[8] == "0"

    def test_empty_normalized_target_dropped(self):
        assert self.links([raw(1, "P", 10, "")]) == []

    def test_unselected_revisions_filtered_out(self):
        records = [raw(1, "P", 10, "NYC"), raw(1, "P", 99, "NYC")]
        assert len(self.links(records)) == 1

    def test_target_normalization(self):
        (link,) = self.links([raw(1, "P", 10, "new_york city")])
        assert link[2] == "New york city"
        assert link[8] == "0"  # case differs beyond the first letter


class TestRoundTrip:
    def test_resolved_redirects_file(self, tmp_path):
        events = [
            event(1, "A", 10, "2016-01-01", target="B", tosection="Sec"),
            event(2, "B", 20, "2016-01-01"),
        ]
        rows = resolve_snapshot(next(select_at(events).states()))
        path = tmp_path / "resolved.csv.gz"
        assert write_resolved_redirects(path, rows) == 2
        loaded = read_resolved_redirects(path)
        assert loaded == {row[1]: list(row) for row in rows}
        assert loaded["A"][IMMEDIATE] == "B#Sec"  # the immediate target keeps its fragment
        assert loaded["A"][FINAL] == "B"
        assert loaded["A"][RESOLUTION] == RESOLUTION_RESOLVED
        assert loaded["B"][RESOLUTION] == RESOLUTION_ARTICLE

    def test_snapshot_links_file(self, tmp_path):
        events = [event(1, "P", 10, "2016-01-01"), event(2, "Q", 20, "2016-01-01")]
        indexed = list(build_link_snapshot([raw(1, "P", 10, "Q")], select_at(events)))
        path = tmp_path / "links.csv.gz"
        with DatasetWriter(path, SNAPSHOT_LINK_FIELDS) as writer:
            assert write_snapshot_links([writer], indexed) == 1
        assert [tuple(row) for row in read_snapshot_links(path)] == [
            ("1", "P", "Q", "", "", "", "0", "0", "1")
        ]

    def test_snapshot_links_files_of_two_dates(self, tmp_path):
        dates = [SnapshotDate.of("2016-03-01"), MARCH_2018]
        events = [event(1, "P", 10, "2016-01-01"), event(2, "Q", 20, "2017-01-01")]
        selection = select_snapshot_revisions(events, dates)
        indexed = build_link_snapshot([raw(1, "P", 10, "Q")], selection)
        paths = [tmp_path / f"links.{date.label}.csv.gz" for date in dates]
        with DatasetWriter(paths[0], SNAPSHOT_LINK_FIELDS) as first, \
                DatasetWriter(paths[1], SNAPSHOT_LINK_FIELDS) as second:
            assert write_snapshot_links([first, second], indexed) == 2
        # Q exists only from 2017 on, so the link turns active at the second date.
        assert [row[8] for path in paths for row in read_snapshot_links(path)] == ["0", "1"]


# Fields that need quoting, padding, empty strings and 1- to 4-byte UTF-8.
RAW_TEXTS = ("", " lead", "trail ", "a,b", 'say "hi"', "é", "€uro", "𝄞 clef", '"', ",")
RAW_DATES = ("2016-03-01", "2017-03-01", "2018-03-01")


def raw_history(seed: int, line_feeds: bool) -> tuple[list[list[tuple]], list[list[tuple]]]:
    """Raw-link and redirect-history rows of a random history in two sorted
    shards, page 7 split across them: titles with commas and quotes, ids
    with leading zeros in some raw rows, revisions with no links, some
    redirect revisions, and, with ``line_feeds``, a few anchors holding a
    line feed. Most revisions are selected at none of :data:`RAW_DATES`."""
    rng = random.Random(seed)
    titles = {page: f"Page {page}" for page in range(1, 13)}
    titles[3], titles[5] = 'Comma, "Quoted"', "Ünïcode 𝄞"
    raw_shards: list[list[tuple]] = [[], []]
    redirect_shards: list[list[tuple]] = [[], []]
    for page, title in titles.items():
        days = sorted(rng.sample(range(0, 5 * 365), rng.randint(1, 8)))
        for number, day in enumerate(days):
            shard = 0 if page < 7 or (page == 7 and number < len(days) // 2) else 1
            when = f"{datetime.date(2014, 1, 1) + datetime.timedelta(day)}T00:00:00Z"
            revision = page * 100 + number
            target = rng.choice(list(titles.values())) if rng.random() < 0.2 else ""
            redirect_shards[shard].append((str(page), title, str(revision), when, target, ""))
            for _ in range(rng.choice((0, 1, 3, 9))):
                anchor = rng.choice(RAW_TEXTS)
                if line_feeds and rng.random() < 0.02:
                    anchor += "\n" + anchor
                raw_shards[shard].append((
                    rng.choice((str(page), f"{page:03d}")), title,
                    rng.choice((str(revision), f"0{revision}")), "", when, "registered",
                    rng.choice(RAW_TEXTS), "1", "0", rng.choice(list(titles.values()) + ["Red"]),
                    rng.choice(RAW_TEXTS), anchor, rng.choice(RAW_TEXTS), "2", "1",
                ))
    return raw_shards, redirect_shards


def write_extract(out, raw_shards, redirect_shards) -> list:
    """Writes the shards and an extract manifest listing them; returns the
    raw shards' paths."""
    out.mkdir(exist_ok=True)
    files = []
    for shard, (raw_rows, redirect_rows) in enumerate(zip(raw_shards, redirect_shards)):
        names = [f"enwiki.rawwikilinks.{shard:04d}.csv.gz",
                 f"enwiki.redirecthistory.{shard:04d}.csv.gz"]
        for name, fields, rows in zip(names, (RAW_LINK_FIELDS, REDIRECT_FIELDS),
                                      (raw_rows, redirect_rows)):
            with storage.DatasetWriter(out / name, fields) as writer:
                writer.write_rows(rows)
        files.append(names)
    (out / "enwiki.extract.manifest.json").write_text(
        json.dumps({"shards": [{"files": names} for names in files]}), encoding="utf-8")
    return [out / names[0] for names in files]


def run_snapshot(out, monkeypatch, block_bytes=None, by_csv=False) -> tuple[int, dict]:
    """The exit code of ``snapshot`` at :data:`RAW_DATES`, and the bytes of
    every file it wrote, which are then deleted; with ``by_csv``, the
    block path is forced off."""
    with monkeypatch.context() as m:
        if by_csv:
            m.setattr(storage, "rows_pattern", lambda width, id_columns: re.compile(rb"(?!)"))
        if block_bytes is not None:
            m.setattr(pipeline, "_BLOCK_BYTES", block_bytes)
        dates = [arg for date in RAW_DATES for arg in ("--date", date)]
        code = cli.main(["snapshot", "--lang", "en", "--output-dir", str(out), *dates])
    written = {}
    for path in out.glob("*.20*"):
        written[path.name] = path.read_bytes()
        path.unlink()
    return code, written


class TestRawBlockReading:
    """Snapshot reads the raw shards in blocks and hands csv only the runs
    of selected revisions; its files are those of csv alone."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("line_feeds", [False, True])
    def test_files_equal_those_of_csv_alone(self, tmp_path, monkeypatch, seed, line_feeds):
        raw_paths = write_extract(tmp_path, *raw_history(seed, line_feeds))
        code, expected = run_snapshot(tmp_path, monkeypatch, by_csv=True)
        assert code == 0
        assert len(expected) == 2 * 3 * len(RAW_DATES)  # three files and sidecars per date
        read_by_csv = []
        iter_rows = storage.iter_rows
        monkeypatch.setattr(storage, "iter_rows",
                            lambda path, *args: read_by_csv.append(path) or iter_rows(path, *args))
        for block_bytes in (1, 2, 7, 100, 4096, 1 << 20):
            assert run_snapshot(tmp_path, monkeypatch, block_bytes) == (0, expected), block_bytes
        if not line_feeds:  # every block took the block path
            assert not set(map(str, raw_paths)) & set(map(str, read_by_csv))

    @pytest.mark.parametrize("block_bytes", [1, 300, 1 << 20])
    def test_a_bad_row_of_an_unselected_revision_stops_the_stage(
        self, tmp_path, monkeypatch, capsys, block_bytes
    ):
        raw_shards, redirect_shards = raw_history(1, line_feeds=False)
        # Page 2's revision 1 precedes every date, and revision 2 replaces it
        # before the first one, so no date selects revision 1.
        redirect_shards[0] = [row for row in redirect_shards[0] if row[0] != "2"] + [
            ("2", "Page 2", "1", "2015-01-01T00:00:00Z", "", ""),
            ("2", "Page 2", "2", "2015-06-01T00:00:00Z", "", ""),
        ]
        redirect_shards[0].sort(key=redirect_sort_key)
        bad = ("2", "Page 2", "1", "", "2015-01-01T00:00:00Z", "registered", "U", "1", "0",
               "Page 1", "", "anchor", "", "2")
        raw_shards[0] = [row for row in raw_shards[0] if int(row[0]) != 2]
        at = next(n for n, row in enumerate(raw_shards[0]) if int(row[0]) > 2)
        raw_shards[0].insert(at, bad)
        raw_paths = write_extract(tmp_path, raw_shards, redirect_shards)
        capsys.readouterr()
        assert run_snapshot(tmp_path, monkeypatch, block_bytes)[0] == 1
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
            {"event": "fatal",
             "detail": f"{raw_paths[0]}: row {at + 2} has 14 columns, expected 15"}]


def redirect_history_lines(pages: int, revisions: int, seed: int = 5) -> list[str]:
    """Redirect-history rows as comma-joined lines, in (page_id, timestamp,
    revision_id) order: ``revisions`` per page, stamped across 2000-2019, about
    a third of them redirects."""
    rng = random.Random(seed)
    lines = []
    for page_id in range(1, pages + 1):
        stamps = sorted(rng.randrange(946_684_800, 1_577_836_800) for _ in range(revisions))
        for number, stamp in enumerate(stamps):
            when = datetime.datetime.fromtimestamp(stamp, datetime.timezone.utc)
            target = f"Page {rng.randrange(pages)}" if rng.random() < 0.3 else ""
            lines.append(f"{page_id},Page {page_id},{page_id * 100 + number},"
                         f"{when:%Y-%m-%dT%H:%M:%SZ},{target},")
    return lines


def test_selection_memory_per_selected_revision():
    # Selection and every date's state, with each row parsed while selecting,
    # as the reader parses it, on 18 dates. With a first date per title, one
    # shared range per span of dates, one title and page id per page, and
    # buckets filled while selecting and emptied as applied, this reads
    # 290-300 B per selected revision. A bit mask per title, a 5-tuple per
    # revision and buckets built by states() read 439-459 B.
    import tracemalloc

    lines = redirect_history_lines(pages=3000, revisions=12)
    tracemalloc.start()
    try:
        selection = select_snapshot_revisions(
            (line.split(",") for line in lines), yearly_snapshot_dates())
        for state in selection.states():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    selected = len(selection.revisions)
    assert len(state) == 3000 and selected > 15_000
    assert peak / selected <= 360, f"{peak / selected:.0f} B per selected revision"
