"""Wikitext link, section, and redirect extraction.

Internal links look like ``[[target|anchor]]``. The grammar accepted here is
exactly the one matched by :data:`LINK_RE`: a target of up to 256 characters
drawn from anything except newline and ``| ] [ < > { }``, then an optional
pipe-separated anchor that may contain anything except ``[`` (matched
non-greedily), closed by ``]]``. Targets that contain ``#`` are split at the
first ``#`` into (link, tosection) after matching, since ``#`` cannot occur
in page titles.

:data:`LINK_RE` is also the scanner, and it runs in time linear in the
input, adversarial inputs such as megabyte-long bracket runs included: an
attempt at a ``[[`` reads at most 256 target characters and stops at the
next ``[``, which neither the target nor the anchor may contain.

Links and redirects come back as the string columns extract writes: a link
is a 6-tuple ``(link, tosection, anchor, section_name, section_level,
section_number)`` and a redirect a ``(target, tosection)`` pair, with ``""``
for an absent fragment or anchor.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigurationError

LINK_RE = re.compile(
    r"""
    \[\[
    (?P<link>
       [^\n\|\]\[\<\>\{\}]{0,256}
    )
    (?:
      \|
      (?P<anchor>
          [^\[]*?
      )
    )?
    \]\]
    """,
    re.VERBOSE,
)

# The link columns of a raw link row, as extract_links returns them.
LinkRow = tuple[str, str, str, str, str, str]


class Section(NamedTuple):
    """A section of wikitext: ``[start, end)`` offsets into the source string.

    Section 0 is the incipit (everything before the first header); numbering
    then increases by one per header line regardless of header level.
    """

    name: str
    level: int
    number: int
    start: int
    end: int


def _parse_header(line: str) -> tuple[str, int] | None:
    """Parse one line as a ``== title ==`` header, or return None.

    Header markers are 2..6 ``=`` on each side; an unbalanced line takes the
    smaller marker count as its level and folds the surplus into the name.
    """
    body = line.rstrip()
    if len(body) < 4 or not (body.startswith("==") and body.endswith("==")):
        return None
    lead = len(body) - len(body.lstrip("="))
    if lead == len(body):
        # Line is '=' throughout; read the shortest marker pair off each end.
        level = min(6, len(body) // 2)
    else:
        trail = len(body) - len(body.rstrip("="))
        level = min(lead, trail, 6)
    return body[level : len(body) - level].strip(), level


def section_scan(text: str) -> list[Section]:
    """Sections of ``text`` in order, starting with the incipit as section 0."""
    sections = []
    name, level, start = "", 0, 0  # of the section being scanned
    offset = 0
    for line in text.splitlines(keepends=True):
        header = _parse_header(line)
        if header is not None:
            sections.append(Section(name, level, len(sections), start, offset))
            (name, level), start = header, offset
        offset += len(line)
    sections.append(Section(name, level, len(sections), start, len(text)))
    return sections


_INERT_SPAN_RE = re.compile(
    r"<!--.*?(?:-->|\Z)|<nowiki>.*?(?:</nowiki>|\Z)",
    re.DOTALL | re.IGNORECASE,
)


def blank_inert_spans(text: str) -> str:
    """Blank out HTML comments and <nowiki> spans, preserving offsets.

    Every character of the span except newlines becomes a space, so link and
    section positions in the remaining text are unchanged.
    """

    def blank(match: re.Match) -> str:
        return "".join("\n" if c == "\n" else " " for c in match.group())

    return _INERT_SPAN_RE.sub(blank, text)


def extract_links(wikitext: str) -> list[LinkRow]:
    """Every wikilink of ``wikitext`` in document order, as link columns.

    Each link is ``(link, tosection, anchor, section_name, section_level,
    section_number)``: the target split at its first ``#``, the anchor, and
    the enclosing section's name, level and number, all strings, with
    ``""`` for an absent fragment or anchor. Links are reported even when
    their target page does not exist (red links), and regardless of
    surrounding markup; to suppress links inside HTML comments and <nowiki>
    spans, pass the text through :func:`blank_inert_spans` first.
    """
    sections = section_scan(wikitext)
    # Each section's three columns are built once, shared by its links.
    columns = [(s.name, str(s.level), str(s.number)) for s in sections]
    starts = [s.start for s in sections]
    last = len(sections) - 1
    rows: list[LinkRow] = []
    si = 0
    for match in LINK_RE.finditer(wikitext):
        start = match.start()
        while si < last and starts[si + 1] <= start:
            si += 1
        target, anchor = match.groups()
        link, _, tosection = target.partition("#")
        rows.append((link, tosection, anchor or "") + columns[si])
    return rows


# Redirect keywords per language edition. #REDIRECT works everywhere, so the
# profile constructor adds it unconditionally.
DEFAULT_REDIRECT_KEYWORDS: dict[str, tuple[str, ...]] = {
    "de": ("#WEITERLEITUNG",),
    "en": (),
    "es": ("#REDIRECCIÓN", "#REDIRECCION"),
    "fr": ("#REDIRECTION",),
    "it": ("#RINVIA", "#RINVIO", "#RIMANDO"),
    "nl": ("#DOORVERWIJZING",),
    "pl": ("#PATRZ", "#PRZEKIERUJ", "#TAM"),
    "ru": ("#ПЕРЕНАПРАВЛЕНИЕ", "#ПЕРЕНАПР"),
    "sv": ("#OMDIRIGERING",),
}


class LanguageProfile:
    """Per-language parsing configuration (currently just redirect keywords)."""

    __slots__ = ("language", "redirect_keywords", "_ordered")

    def __init__(self, language: str, redirect_keywords: frozenset[str] = frozenset()) -> None:
        self.language = language
        self.redirect_keywords = frozenset(redirect_keywords) | {"#REDIRECT"}
        # Longest first, so a keyword that prefixes another is tried last.
        self._ordered = tuple(
            sorted((kw.casefold() for kw in self.redirect_keywords), key=len, reverse=True)
        )


def get_profile(language: str) -> LanguageProfile:
    try:
        keywords = DEFAULT_REDIRECT_KEYWORDS[language]
    except KeyError:
        raise ConfigurationError(
            f"no built-in profile for language {language!r}; "
            f"known: {sorted(DEFAULT_REDIRECT_KEYWORDS)}"
        ) from None
    return LanguageProfile(language, frozenset(keywords))


def load_profiles(path: str | Path) -> dict[str, LanguageProfile]:
    """Load language profiles from a JSON file: {"xx": ["#KEYWORD", ...], ...}."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise ConfigurationError(f"cannot load profiles from {path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object of language -> keywords")
    profiles = {}
    for language, keywords in data.items():
        if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
            raise ConfigurationError(f"{path}: keywords for {language!r} must be strings")
        profiles[language] = LanguageProfile(language, frozenset(keywords))
    return profiles


# Old dumps occasionally carry a BOM before the directive.
_LEADING_WHITESPACE_RE = re.compile("[﻿ \t\r\n\v\f]*")
_AFTER_KEYWORD_RE = re.compile(r"[ \t]*:?\s*")


def detect_redirect(
    wikitext: str,
    profile: LanguageProfile,
    diagnostics: Counter | None = None,
) -> tuple[str, str] | None:
    """``(target, tosection)`` if ``wikitext`` is a redirect page, else None.

    The target is split at its first ``#``; ``tosection`` is ``""`` without
    a fragment. A page is a redirect iff its first non-whitespace token is
    one of the profile's keywords (case-insensitive), followed by an
    optional colon and a ``[[target]]`` link. A keyword without a parsable
    target is not a redirect; it is tallied in ``diagnostics`` if given.
    """
    start = _LEADING_WHITESPACE_RE.match(wikitext).end()
    keyword_seen = False
    for keyword in profile._ordered:
        end = start + len(keyword)
        if wikitext[start:end].casefold() != keyword:
            continue
        keyword_seen = True
        match = LINK_RE.match(wikitext, _AFTER_KEYWORD_RE.match(wikitext, end).end())
        if match is None:
            continue
        link, _, tosection = match["link"].partition("#")
        return link, tosection
    if keyword_seen and diagnostics is not None:
        diagnostics["redirect-keyword-without-target"] += 1
    return None


_UNDERSCORE_RUN = re.compile(r"_+")
_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_title(raw: str) -> str | None:
    """Normalize a link target into canonical page-title form.

    Trims whitespace, strips one leading ``:``, turns underscore runs into
    single spaces, collapses internal whitespace, and capitalizes the first
    character (all nine supported wikis use first-letter capitalization).
    Returns None when nothing is left.
    """
    s = raw.strip()
    if s.startswith(":"):
        s = s[1:]
    s = _UNDERSCORE_RUN.sub(" ", s)
    s = _WHITESPACE_RUN.sub(" ", s).strip()
    if not s:
        return None
    return s[0].upper() + s[1:]
