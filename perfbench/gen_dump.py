"""Seeded synthetic pages-meta-history dump.

The dump follows the MediaWiki export schema 0.10 and exercises every rule
of the README's "Snapshot semantics" and "Link extraction rules":

* articles with sections, anchors, ``#fragment`` links, pure-fragment links,
  red links and link targets spelled so that they agree with a title only
  after ``normalize_title`` (lower-case first letter, underscores, extra
  spaces, a leading colon);
* talk pages (namespace 1), which every stage must ignore;
* same-second revision ties listed out of order, and revisions stamped
  exactly at a March-1st midnight;
* redirects written as ``#REDIRECT`` in varied case and spacing: chains,
  cycles, chains longer than the depth cap of 32, dangling redirects, and
  redirects that turn back into articles.

Only ``#REDIRECT`` is used, because that is the only keyword the brute-force
oracle in ``tests/bruteforce.py`` knows. Titles never carry surrounding
whitespace, because the oracle does not strip them.
"""

from __future__ import annotations

import calendar
import random
import time
from dataclasses import dataclass
from xml.sax.saxutils import escape

SYLLABLES = (
    "ka", "lo", "mi", "ne", "ta", "ru", "si", "vo", "pe", "da", "gri", "sto",
    "bal", "mar", "ten", "qu", "lin", "zé", "ör", "ła", "cho", "vin", "del", "ax",
)
SECTION_NAMES = (
    "History", "Early years", "Geography", "Economy", "Culture", "See also",
    "References", "Legacy", "Reception", "Notes",
)
REDIRECT_FORMS = (
    "#REDIRECT [[{}]]",
    "#redirect [[{}]]",
    "#Redirect[[{}]]",
    "#REDIRECT: [[{}]]",
    "  #REDIRECT  [[{}]]\n\n{{{{R from move}}}}",
    "\n#ReDiReCt\n[[{}]]",
    "#REDIRECT [[{}]] [[Category:Redirects]]",
)

START = calendar.timegm((2001, 1, 15, 0, 0, 0))
END = calendar.timegm((2019, 6, 30, 0, 0, 0))


@dataclass(frozen=True)
class DumpShape:
    """Sizes of one synthetic dump."""

    articles: int
    revisions: tuple[int, int]  # per article, inclusive range
    links: tuple[int, int]  # per article text, inclusive range
    words_per_link: int  # filler words between links
    talk_share: float
    chains: int  # redirect chains of 2-4 hops
    cycles: int
    dangling: int
    flip_flops: int  # articles that become redirects and back


DEEP_HISTORY = DumpShape(
    articles=70, revisions=(10, 30), links=(20, 40), words_per_link=14,
    talk_share=0.05, chains=6, cycles=2, dangling=3, flip_flops=4,
)
YEARLY_SERIES = DumpShape(
    articles=600, revisions=(1, 3), links=(1, 4), words_per_link=8,
    talk_share=0.05, chains=40, cycles=6, dangling=12, flip_flops=12,
)
TINY = DumpShape(
    articles=12, revisions=(2, 4), links=(3, 6), words_per_link=4,
    talk_share=0.2, chains=1, cycles=1, dangling=1, flip_flops=1,
)

LONG_CHAIN = 36  # hops, past the depth cap of 32


def _spread(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` counts covering ``lo..hi`` evenly, in seeded order.

    Sizes drawn this way sum to the same total for every seed, so the work
    of a workload does not depend on the seed.
    """
    counts = [lo + (i * (hi - lo + 1)) // n for i in range(n)]
    rng.shuffle(counts)
    return counts


def _stamp(seconds: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(seconds))


def _march_first(year: int) -> int:
    return calendar.timegm((year, 3, 1, 0, 0, 0))


class _Titles:
    """Distinct canonical titles: capitalised, single-spaced, no underscores."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: set[str] = set()

    def word(self) -> str:
        return "".join(self._rng.choice(SYLLABLES) for _ in range(self._rng.randint(2, 3)))

    def new(self) -> str:
        while True:
            words = [self.word() for _ in range(self._rng.randint(1, 3))]
            title = " ".join(words)
            title = title[0].upper() + title[1:]
            if title not in self._used:
                self._used.add(title)
                return title


def _spelling(rng: random.Random, title: str) -> str:
    """A link target that normalises to ``title``."""
    form = rng.random()
    if form < 0.70:
        return title
    if form < 0.78:
        return title[0].lower() + title[1:]
    if form < 0.86:
        return title.replace(" ", "_")
    if form < 0.92:
        return " " + title.replace(" ", "  ") + " "
    return ":" + title


class _Article:
    """Mutable article body: a list of text and link tokens."""

    def __init__(self, gen: "_Generator", links: int):
        self.gen = gen
        self.tokens: list[str] = []
        for _ in range(links):
            self.tokens.append(gen.filler())
            self.tokens.append(gen.link())
        self.tokens.append(gen.filler())

    def edit(self) -> None:
        rng = self.gen.rng
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(self.tokens) + 1)
            if rng.random() < 0.35 and len(self.tokens) > 4:
                del self.tokens[min(pos, len(self.tokens) - 1)]
            else:
                self.tokens.insert(pos, self.gen.link() if rng.random() < 0.6 else self.gen.filler())

    def text(self) -> str:
        return "".join(self.tokens)


class _Generator:
    def __init__(self, shape: DumpShape, seed: int):
        self.shape = shape
        self.rng = random.Random(seed)
        self.titles = _Titles(self.rng)
        self.words = [self.titles.word() for _ in range(300)]
        self.red = [self.titles.new() for _ in range(max(10, shape.articles // 10))]
        self.targets: list[str] = []
        self.cum_weights: list[float] = []

    def filler(self) -> str:
        rng = self.rng
        words = rng.choices(self.words, k=rng.randint(1, 2 * self.shape.words_per_link))
        text = " " + " ".join(words) + "."
        roll = rng.random()
        if roll < 0.06:
            level = rng.choice((2, 2, 3))
            name = rng.choice(SECTION_NAMES)
            closing = "=" * (level + (1 if rng.random() < 0.1 else 0))
            text += f"\n\n{'=' * level} {name} {closing}\n"
        elif roll < 0.10:
            text += "\n\n"
        return text

    def link(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.03:
            return f"[[#{rng.choice(SECTION_NAMES)}]]"
        if roll < 0.08:
            return f"[[{rng.choice(self.red)}]]"
        if roll < 0.10:
            return f"[[Talk:{rng.choices(self.targets, cum_weights=self.cum_weights)[0]}]]"
        if roll < 0.11:
            caption = " ".join(rng.choices(self.words, k=3))
            inner = rng.choices(self.targets, cum_weights=self.cum_weights)[0]
            return f"[[File:{rng.choice(self.words)}.jpg|thumb|{caption} [[{inner}]] here]]"
        target = _spelling(rng, rng.choices(self.targets, cum_weights=self.cum_weights)[0])
        roll = rng.random()
        if roll < 0.10:
            target += "#" + rng.choice(SECTION_NAMES)
        if roll < 0.35:
            return f"[[{target}|{' '.join(rng.choices(self.words, k=rng.randint(1, 3)))}]]"
        return f"[[{target}]]"

    def redirect_text(self, target: str) -> str:
        rng = self.rng
        spelled = _spelling(rng, target)
        if rng.random() < 0.15:
            spelled += "#" + rng.choice(SECTION_NAMES)
        return rng.choice(REDIRECT_FORMS).format(spelled)

    def created(self, quantile: float | None = None) -> int:
        # Growth: creation times bunch towards the later years.
        u = self.rng.random() if quantile is None else quantile
        return START + int((END - START) * u ** 0.6 * 0.97)

    def stamps(self, created: int, count: int) -> list[int]:
        rng = self.rng
        stamps = sorted(rng.randint(created, END) for _ in range(count - 1))
        stamps.insert(0, created)
        for i in range(1, count):
            if rng.random() < 0.06:
                stamps[i] = stamps[i - 1]  # same-second tie
            elif rng.random() < 0.04:
                year = time.gmtime(stamps[i]).tm_year
                midnight = _march_first(year)
                if stamps[i - 1] <= midnight <= END:
                    stamps[i] = midnight
        stamps.sort()
        return stamps


def _contributor(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return f"<ip>10.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}</ip>"
    user = rng.randint(1, 500)
    return f"<username>Editor{user}</username><id>{user}</id>"


class _Writer:
    def __init__(self, out, rng: random.Random):
        self.out = out
        self.rng = rng
        self.next_rev = 1000

    def page(self, page_id: int, title: str, ns: int, revisions: list[tuple[int, str]]) -> None:
        """Write one page; ``revisions`` are (timestamp, text) in time order."""
        rng = self.rng
        entries = []
        parent = None
        for stamp, text in revisions:
            self.next_rev += rng.randint(1, 5)
            entries.append((stamp, self.next_rev, parent, text))
            parent = self.next_rev
        # Same-second ties are listed with the higher revision id first.
        for i in range(len(entries) - 1):
            if entries[i][0] == entries[i + 1][0]:
                entries[i], entries[i + 1] = entries[i + 1], entries[i]
        parts = [
            f"  <page>\n    <title>{escape(title)}</title>\n    <ns>{ns}</ns>\n"
            f"    <id>{page_id}</id>\n"
        ]
        for stamp, rev_id, parent_id, text in entries:
            parts.append(f"    <revision>\n      <id>{rev_id}</id>\n")
            if parent_id is not None:
                parts.append(f"      <parentid>{parent_id}</parentid>\n")
            parts.append(
                f"      <timestamp>{_stamp(stamp)}</timestamp>\n"
                f"      <contributor>{_contributor(rng)}</contributor>\n"
            )
            if rng.random() < 0.2:
                parts.append("      <minor />\n")
            parts.append(
                "      <model>wikitext</model>\n      <format>text/x-wiki</format>\n"
                f'      <text xml:space="preserve">{escape(text)}</text>\n    </revision>\n'
            )
        parts.append("  </page>\n")
        self.out.write("".join(parts))


HEADER = """<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" \
xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" version="0.10" xml:lang="en">
  <siteinfo>
    <sitename>Wikipedia</sitename>
    <dbname>enwiki</dbname>
    <namespaces>
      <namespace key="0" />
      <namespace key="1">Talk</namespace>
    </namespaces>
  </siteinfo>
"""


def write_dump(path, shape: DumpShape, seed: int) -> None:
    """Write the dump of ``shape`` for ``seed`` to ``path``."""
    gen = _Generator(shape, seed)
    rng = gen.rng
    articles = [gen.titles.new() for _ in range(shape.articles)]
    redirects: list[tuple[str, int, str]] = []  # (title, created, target)

    def redirect_page(target: str, created: int | None = None) -> str:
        title = gen.titles.new()
        redirects.append((title, created or gen.created(), target))
        return title

    for _ in range(shape.chains):
        target = rng.choice(articles)
        for _ in range(rng.randint(2, 4)):
            target = redirect_page(target)
    for _ in range(shape.cycles):
        size = rng.randint(2, 3)
        ring = [gen.titles.new() for _ in range(size)]
        for i, title in enumerate(ring):
            redirects.append((title, gen.created(), ring[(i + 1) % size]))
    for length in (LONG_CHAIN, 31):
        target = rng.choice(articles)
        born = START + (END - START) // 3
        for _ in range(length):
            target = redirect_page(target, born + rng.randint(0, 86400 * 30))
    for _ in range(shape.dangling):
        redirect_page(rng.choice(gen.red))
    flip_flops = set(rng.sample(range(len(articles)), min(shape.flip_flops, len(articles))))

    redirect_titles = [title for title, _, _ in redirects]
    gen.targets = articles + redirect_titles
    weights = [1.0 / (rank + 1) ** 0.9 for rank in range(len(gen.targets))]
    rng.shuffle(weights)
    total = 0.0
    for w in weights:
        total += w
        gen.cum_weights.append(total)

    n = len(articles)
    revision_counts = _spread(rng, n, *shape.revisions)
    link_counts = _spread(rng, n, *shape.links)
    quantiles = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(quantiles)
    pages = [("article", i) for i in range(n)]
    pages += [("redirect", i) for i in range(len(redirects))]
    rng.shuffle(pages)
    page_id = 0
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        writer = _Writer(out, rng)
        out.write(HEADER)
        for kind, index in pages:
            page_id += rng.randint(1, 3)
            if kind == "redirect":
                title, created, target = redirects[index]
                revisions = [(stamp, gen.redirect_text(target))
                             for stamp in gen.stamps(created, rng.randint(1, 3))]
                writer.page(page_id, title, 0, revisions)
                continue
            title = articles[index]
            body = _Article(gen, link_counts[index])
            stamps = gen.stamps(gen.created(quantiles[index]), revision_counts[index])
            revisions = []
            for k, stamp in enumerate(stamps):
                if k:
                    body.edit()
                text = body.text()
                if index in flip_flops and 0 < k < len(stamps) - 1 and k % 2 == 1:
                    text = gen.redirect_text(rng.choice(gen.targets))
                revisions.append((stamp, text))
            writer.page(page_id, title, 0, revisions)
            if rng.random() < shape.talk_share:
                page_id += 1
                talk = [(s + 60, f"Discussion of [[{title}]]. ~~~~") for s in stamps[:2]]
                writer.page(page_id, "Talk:" + title, 1, talk)
        out.write("</mediawiki>\n")
