from __future__ import annotations

import random
import time
from collections import Counter

import pytest

import bruteforce
from wikilinks.errors import ConfigurationError
from wikilinks.wikitext import (
    LanguageProfile,
    blank_inert_spans,
    detect_redirect,
    extract_links,
    get_profile,
    load_profiles,
    normalize_title,
    section_scan,
)

# Inputs that stress every branch of the link grammar.
ADVERSARIAL = [
    "",
    "a",
    "[[",
    "]]",
    "[[]]",
    "[[]]]]",
    "[[[[]]]]",
    "[" * 300,
    "]" * 300,
    "|" * 100,
    "[]" * 200,
    "[[a",
    "[[a|",
    "[[a|b",
    "[[a|b]",
    "[[a]]",
    "[[a]]]",
    "[[a]b]]",
    "[[a|b]]",
    "[[a|b|c]]",
    "[[a|b]c]]",
    "[[a|]]",
    "[[|]]",
    "[[|a]]",
    "[[#x]]",
    "[[a#b#c|d]]",
    "[[" + "a" * 255 + "]]",
    "[[" + "a" * 256 + "]]",
    "[[" + "a" * 257 + "]]",
    "[[" + "a" * 256 + "|b]]",
    "[[" + "a" * 257 + "|b]]",
    "[[a\nb]]",
    "[[a|b\nc]]",
    "[[a<b]]",
    "[[a{b}]]",
    "[[a[b]]",
    "[[ [[a]] ]]",
    "[[a]][[b]]",
    "[[a|[[b]]",
    "[[a|b[[c]]",
    "[[a|b]]c]]",
    "x[[a]]y",
    "[[a| ]]",
    "[[ ]]",
    "[[__a__]]",
    "[[日本|にほん]]",
    "[[а|б]]",
    "#REDIRECT [[X]]",
    "== [[h]] ==",
    "<!--[[c]]-->",
    "[[a||b]]",
    "[[a|b|]]",
    "[[a|" + "x" * 1000,
    "[[a|" + "x" * 50 + "]]" + "]]",
    "[[x]][[",
]


def reference_rows(text: str):
    """Link rows of ``text`` built from the oracle's ``bruteforce.LINK``
    pattern and section_scan alone.

    The target is split at its first ``#``, an absent fragment or anchor is
    ``""``, and each link takes the section whose span holds its start.
    """
    sections = section_scan(text)
    rows = []
    for m in bruteforce.LINK.finditer(text):
        sec = next(s for s in sections if s.start <= m.start() < s.end)
        link, _, tosection = m.group("link").partition("#")
        rows.append((link, tosection, m.group("anchor") or "",
                     sec.name, str(sec.level), str(sec.number)))
    return rows


def random_wikitext(rng: random.Random, max_len: int = 200) -> str:
    alphabet = "[]|#=<>{}\n abXYZ領é"
    weights = [14, 14, 8, 4, 4, 2, 2, 2, 2, 5, 8, 10, 6, 2, 2, 2, 1, 1]
    return "".join(
        rng.choices(alphabet, weights=weights, k=rng.randrange(max_len))
    )


def random_sectioned_wikitext(rng: random.Random, lines: int = 8) -> str:
    """Random lines dense in link markup, about a third of them headers."""
    out = []
    for _ in range(rng.randrange(1, lines)):
        body = "".join(
            rng.choice(("[[", "]]", "|", "#", " ")) + random_wikitext(rng, 12)
            for _ in range(rng.randrange(8))
        ).replace("\n", " ")
        if rng.random() < 0.35:
            marks = "=" * rng.randrange(2, 8)
            body = marks + body + marks
        out.append(body)
    return "\n".join(out)


class TestScanLinks:
    @pytest.mark.parametrize("text", ADVERSARIAL, ids=range(len(ADVERSARIAL)))
    def test_matches_reference_engine_on_adversarial(self, text):
        assert extract_links(text) == reference_rows(text)

    def test_matches_reference_engine_on_random_inputs(self):
        rng = random.Random(20180301)
        for _ in range(2000):
            text = random_wikitext(rng)
            assert extract_links(text) == reference_rows(text), repr(text)
        for _ in range(2000):
            text = random_sectioned_wikitext(rng)
            assert extract_links(text) == reference_rows(text), repr(text)

    @pytest.mark.parametrize(
        "text,row",
        [
            ("[[A#]]", ("A", "", "", "", "0", "0")),
            ("[[A|]]", ("A", "", "", "", "0", "0")),
            ("[[#top]]", ("", "top", "", "", "0", "0")),
            ("[[a#b#c]]", ("a", "b#c", "", "", "0", "0")),
            ("x\n=== [[h|i]] ===\ny", ("h", "", "i", "[[h|i]]", "3", "1")),
        ],
    )
    def test_rows_of_hand_cases(self, text, row):
        assert reference_rows(text) == [row]
        assert extract_links(text) == [row]

    def test_linear_time_on_bracket_flood(self):
        # Runtime on adversarial input must stay within 10x uniform text.
        # The last two make a backtracking engine work hardest per attempt:
        # a 256-character target that nothing closes backs off character by
        # character, and a lazy anchor steps over every lone "]".
        size = 1 << 20
        uniform = ("lorem ipsum [[dolor]] sit amet, qui [[minim|labore]] x. " * 40000)[:size]
        floods = [
            "[" * size,
            ("[[a|" + "x" * 60) * (size // 64),
            "[[a|" + "x" * size,
            ("[[" + "a" * 256) * (size // 258),
            "[[a|" + "]x" * (size // 2),
        ]

        def best_of(text, runs=3):
            times = []
            for _ in range(runs):
                start = time.perf_counter()
                extract_links(text)
                times.append(time.perf_counter() - start)
            return min(times)

        baseline = best_of(uniform)
        for flood in floods:
            assert best_of(flood) < 10 * baseline


class TestExtractLinks:
    def test_anchor(self):
        assert extract_links("[[New York City|The Big Apple]]") == [
            ("New York City", "", "The Big Apple", "", "0", "0")
        ]

    def test_plain_link(self):
        assert extract_links("[[NYC]]") == [("NYC", "", "", "", "0", "0")]

    def test_fragment_split_at_first_pound(self):
        assert extract_links("[[A#History|see]]") == [("A", "History", "see", "", "0", "0")]
        assert extract_links("[[a#b#c]]") == [("a", "b#c", "", "", "0", "0")]

    def test_empty_target_is_still_a_match(self):
        # Oracle: the reference engine admits a zero-length target.
        assert reference_rows("[[]]") == extract_links("[[]]") == [("", "", "", "", "0", "0")]

    def test_anchor_admits_pipes(self):
        # Oracle: the reference engine puts everything after the first | in the anchor.
        rows = [("a", "", "b|c", "", "0", "0")]
        assert reference_rows("[[a|b|c]]") == extract_links("[[a|b|c]]") == rows

    def test_red_links_are_reported(self):
        assert [row[0] for row in extract_links("[[No Such Page]]")] == ["No Such Page"]

    def test_section_coordinates(self):
        text = "intro [[a]]\n== One ==\n[[b]]\n=== Two ===\n[[c]] [[d]]"
        assert [(row[0], *row[3:]) for row in extract_links(text)] == [
            ("a", "", "0", "0"),
            ("b", "One", "2", "1"),
            ("c", "Two", "3", "2"),
            ("d", "Two", "3", "2"),
        ]

    def test_section_numbers_non_decreasing(self):
        rng = random.Random(7)
        for _ in range(300):
            text = random_wikitext(rng, max_len=400)
            numbers = [int(row[5]) for row in extract_links(text)]
            assert numbers == sorted(numbers)

    def test_link_in_header_line_belongs_to_that_section(self):
        links = extract_links("before\n== [[h]] ==\nafter")
        assert links == [("h", "", "", "[[h]]", "2", "1")]

    def test_strip_inert_spans(self):
        text = "[[keep]] <!-- [[gone]] --> <nowiki>[[gone2]]</nowiki> [[kept2]]"
        assert [row[0] for row in extract_links(text)] == ["keep", "gone", "gone2", "kept2"]
        stripped = [row[0] for row in extract_links(blank_inert_spans(text))]
        assert stripped == ["keep", "kept2"]

    def test_blanking_preserves_offsets_and_headers(self):
        text = "a<!--x\n== H ==\ny-->b"
        blanked = blank_inert_spans(text)
        assert len(blanked) == len(text)
        assert blanked.count("\n") == text.count("\n")
        assert section_scan(blanked)[-1].number == 0  # commented header does not count


class TestSectionScan:
    def test_no_headers(self):
        (incipit,) = section_scan("no headers here")
        assert (incipit.name, incipit.level, incipit.number) == ("", 0, 0)
        assert (incipit.start, incipit.end) == (0, len("no headers here"))

    def test_numbering_ignores_levels(self):
        sections = section_scan("intro\n== A ==\nx\n=== B ===\ny")
        assert [(s.name, s.level, s.number) for s in sections] == [
            ("", 0, 0),
            ("A", 2, 1),
            ("B", 3, 2),
        ]

    def test_unbalanced_header_takes_min_level(self):
        (_, header) = section_scan("text\n== A ===\n")
        assert (header.name, header.level) == ("A =", 2)

    def test_level_capped_at_six(self):
        (_, header) = section_scan("x\n======= deep =======\n")
        assert header.level == 6

    def test_single_equals_is_not_a_header(self):
        assert len(section_scan("x\n= nope =\ny")) == 1

    def test_mid_line_markers_are_not_headers(self):
        assert len(section_scan("x == not a header == y")) == 1
        assert len(section_scan("== not at line end == y")) == 1

    def test_header_at_start_gives_empty_incipit(self):
        sections = section_scan("== A ==\nbody")
        assert sections[0].start == sections[0].end == 0
        assert sections[1].number == 1


class TestDetectRedirect:
    def test_english(self):
        redirect = detect_redirect("#REDIRECT [[New York City]]", get_profile("en"))
        assert redirect == ("New York City", "")

    def test_german(self):
        assert detect_redirect("#WEITERLEITUNG [[Berlin]]", get_profile("de")) == ("Berlin", "")

    @pytest.mark.parametrize(
        "language,keyword",
        [
            ("es", "#REDIRECCIÓN"),
            ("es", "#REDIRECCION"),
            ("fr", "#REDIRECTION"),
            ("it", "#RINVIA"),
            ("it", "#RINVIO"),
            ("it", "#RIMANDO"),
            ("nl", "#DOORVERWIJZING"),
            ("pl", "#PATRZ"),
            ("pl", "#PRZEKIERUJ"),
            ("pl", "#TAM"),
            ("ru", "#ПЕРЕНАПРАВЛЕНИЕ"),
            ("ru", "#ПЕРЕНАПР"),
            ("sv", "#OMDIRIGERING"),
        ],
    )
    def test_language_keywords(self, language, keyword):
        assert detect_redirect(f"{keyword} [[X]]", get_profile(language)) == ("X", "")

    @pytest.mark.parametrize("language", ["de", "en", "es", "fr", "it", "nl", "pl", "ru", "sv"])
    def test_redirect_keyword_valid_everywhere(self, language):
        profile = get_profile(language)
        assert "#REDIRECT" in profile.redirect_keywords
        assert detect_redirect("#REDIRECT [[X]]", profile) is not None

    def test_not_first_token(self):
        assert detect_redirect("Some text #REDIRECT [[X]]", get_profile("en")) is None

    def test_case_insensitive_and_leading_whitespace(self):
        assert detect_redirect("  \n#redirect [[x]]", get_profile("en")) == ("x", "")

    def test_optional_colon(self):
        assert detect_redirect("#REDIRECT: [[X]]", get_profile("en")) == ("X", "")

    def test_target_fragment(self):
        assert detect_redirect("#REDIRECT [[X#Sec]]", get_profile("en")) == ("X", "Sec")
        assert detect_redirect("#REDIRECT [[X#]]", get_profile("en")) == ("X", "")

    def test_keyword_without_target_counts_diagnostic(self):
        diagnostics = Counter()
        assert detect_redirect("#REDIRECT but no link", get_profile("en"), diagnostics) is None
        assert diagnostics["redirect-keyword-without-target"] == 1

    def test_keyword_prefix_of_longer_word_is_not_a_redirect(self):
        # en has no #REDIRECTION keyword; the prefix must not fire.
        assert detect_redirect("#REDIRECTION [[X]]", get_profile("en")) is None

    def test_russian_prefix_keyword_resolution(self):
        profile = get_profile("ru")
        assert detect_redirect("#ПЕРЕНАПРАВЛЕНИЕ [[Москва]]", profile) == ("Москва", "")
        assert detect_redirect("#ПЕРЕНАПР [[Москва]]", profile) == ("Москва", "")

    def test_matches_oracle_on_random_redirect_like_texts(self):
        rng = random.Random(20190301)
        profile = get_profile("en")
        # Half the keywords are #REDIRECT; the rest are near-misses.
        keywords = ("#REDIRECT",) * 5 + (
            "#REDIRECTION", "#REDIREC", "REDIRECT", "#RE DIRECT", "x#REDIRECT"
        )
        targets = (
            "Target", "Target", " a_b ", "a#b", "#b", "", ":a", "a|b", "a]b", "a\nb", "a" * 257
        )
        redirects = 0
        for _ in range(10_000):
            keyword = "".join(
                c.swapcase() if rng.random() < 0.5 else c for c in rng.choice(keywords)
            )
            text = (
                "".join(rng.choices("\ufeff \t\r\n\v\f\xa0", k=rng.randrange(4)))
                + keyword
                + rng.choice(("", " ", ":", " : ", "\t:\n", "::", ":\xa0", "\n\n"))
                + rng.choice(("[[", "[[", "[[", "[[ ", "[", ""))
                + rng.choice(targets + (random_wikitext(rng, 12),))
                + rng.choice(("]]", "]]", "]]", "]", ""))
                + random_wikitext(rng, 40)
            )
            found = detect_redirect(text, profile)
            target = None if found is None else normalize_title(found[0])
            assert target == bruteforce.redirect_target(text), repr(text)
            redirects += target is not None
        assert redirects > 500

    def test_redirect_target_is_first_extracted_link(self):
        rng = random.Random(99)
        profile = get_profile("en")
        for _ in range(200):
            text = "#REDIRECT [[Target here]] " + random_wikitext(rng)
            redirect = detect_redirect(text, profile)
            links = extract_links(text)
            assert redirect is not None
            assert links[0][:2] == redirect

    def test_unknown_language_raises(self):
        with pytest.raises(ConfigurationError):
            get_profile("xx")


class TestProfiles:
    def test_load_profiles(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text('{"eo": ["#ALIDIREKTU"]}', encoding="utf-8")
        profiles = load_profiles(path)
        assert detect_redirect("#ALIDIREKTU [[X]]", profiles["eo"]) == ("X", "")
        # REDIRECT is valid on all languages, so it is always included.
        assert "#REDIRECT" in profiles["eo"].redirect_keywords

    def test_load_profiles_rejects_junk(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text('{"eo": "not-a-list"}', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_profiles(path)

    def test_profile_always_contains_redirect(self):
        profile = LanguageProfile("zz", frozenset({"#FOO"}))
        assert profile.redirect_keywords == frozenset({"#FOO", "#REDIRECT"})


class TestNormalizeTitle:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("new_York  City", "New York City"),
            (":NYC", "NYC"),
            ("", None),
            ("   ", None),
            (":", None),
            (": _ ", None),
            ("a", "A"),
            ("_a_b_", "A b"),
            ("Tab\there", "Tab here"),
            (" spaced ", "Spaced"),
            ("élan", "Élan"),
            ("многое", "Многое"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_title(raw) == expected

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(300):
            normalized = normalize_title(random_wikitext(rng, 60))
            if normalized is not None:
                assert normalize_title(normalized) == normalized
