"""Brute-force recomputation of snapshot edge lists straight from a dump.

Deliberately independent of the package under test: whole-file XML parse,
the literal link regex, and plain dict/set logic. Slow and memory-hungry,
but obviously correct; the acceptance suite compares the pipeline's output
against it.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

LINK = re.compile(
    r"\[\[(?P<link>[^\n\|\]\[\<\>\{\}]{0,256})(?:\|(?P<anchor>[^\[]*?))?\]\]"
)
REDIRECT_WORDS = ("#REDIRECT",)  # fixture is English


def _local(tag):
    return tag.rpartition("}")[2]


def normalize(raw):
    s = raw.strip()
    if s.startswith(":"):
        s = s[1:]
    s = re.sub(r"_+", " ", s)
    s = re.sub(r"\s+", " ", s).strip()
    if not s:
        return None
    return s[0].upper() + s[1:]


def redirect_target(text):
    s = text.lstrip("﻿ \t\r\n\v\f")
    for word in REDIRECT_WORDS:
        if s[: len(word)].casefold() == word.casefold():
            rest = s[len(word):]
            offset = re.match(r"[ \t]*:?\s*", rest).end()
            m = LINK.match(rest, offset)
            if m is not None:
                return normalize(m.group("link").split("#", 1)[0])
    return None


def load_articles(xml_path):
    """{page_id: (title, [(timestamp, revision_id, text), ...])} for ns0,
    without the pages whose title holds a control character or is longer
    than 255 UTF-8 bytes."""
    root = ET.parse(xml_path).getroot()
    pages = {}
    for page in root:
        if _local(page.tag) != "page":
            continue
        fields = {}
        revisions = []
        for child in page:
            tag = _local(child.tag)
            if tag == "revision":
                rev = {_local(c.tag): c for c in child}
                text = rev["text"].text or "" if "text" in rev else ""
                # MediaWiki saves texts with "\n" line endings.
                text = text.replace("\r\n", "\n").replace("\r", "\n")
                revisions.append((rev["timestamp"].text, int(rev["id"].text), text))
            else:
                fields[tag] = child.text
        if int(fields.get("ns") or 0) != 0:
            continue
        title = fields["title"].strip()
        if re.search(r"[\x00-\x1f\x7f]", title) or len(title.encode()) > 255:
            continue  # MediaWiki titles hold no control character, and 255 bytes at most
        pages[int(fields["id"])] = (fields["title"], revisions)
    return pages


def snapshot_edges(xml_path, date_label, drop_self_loops=False):
    """(sorted edge list, sorted node list) at midnight UTC of date_label."""
    boundary = date_label + "T00:00:00Z"
    pages = load_articles(xml_path)

    selected = {}  # page_id -> (title, text)
    for page_id, (title, revisions) in pages.items():
        before = [r for r in revisions if r[0] < boundary]
        if before:
            before.sort()  # timestamps share a fixed-width format
            selected[page_id] = (title, before[-1][2])

    ids = {title: page_id for page_id, (title, _) in selected.items()}
    redirects = {}
    for page_id, (title, text) in selected.items():
        target = redirect_target(text)
        if target is not None:
            redirects[title] = target

    def resolve(title):
        """final title or None (dangling); cycles fall back to the first hop."""
        if title not in redirects:
            return title if title in ids else None
        first_hop = redirects[title]
        seen = {title}
        current = title
        for _ in range(32):
            current = redirects[current]
            if current not in redirects:
                return current if current in ids else None
            if current in seen:
                return first_hop
            seen.add(current)
        return first_hop

    edges = set()
    for page_id, (title, text) in selected.items():
        if title in redirects:
            continue
        for match in LINK.finditer(text):
            target = normalize(match.group("link").split("#", 1)[0])
            if target is None or target not in ids:
                continue
            final = resolve(target)
            if final is None:
                continue
            if ids[final] == page_id and (target == title or drop_self_loops):
                continue
            edges.add((page_id, title, ids[final], final))
    for title in redirects:
        final = resolve(title)
        if final is None:
            continue
        if drop_self_loops and ids[final] == ids[title]:
            continue
        edges.add((ids[title], title, ids[final], final))

    nodes = sorted((page_id, title) for page_id, (title, _) in selected.items())
    return sorted(edges, key=lambda e: (e[0], e[2])), nodes
