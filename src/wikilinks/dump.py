"""Streaming reader for MediaWiki "pages-meta-history" XML exports.

Pages are yielded one at a time with their full revision list; the element
tree is cleared after every page, so memory stays proportional to the
largest single page rather than to the file. Export schema versions
0.8-0.11 are accepted; element namespaces are ignored by matching on local
tag names. Line endings in texts and contributor names are made "\n", as
MediaWiki saves them: XML parsing does so, but "&#13;" gives a "\r".
"""

from __future__ import annotations

import re
import zlib
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DumpFormatError
from .storage import open_dump_stream

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

USER_REGISTERED = "registered"
USER_ANONYMOUS = "anonymous"


class Revision(NamedTuple):
    revision_id: int
    parent_id: int | None
    timestamp: str  # fixed-width UTC, YYYY-MM-DDTHH:MM:SSZ
    user_type: str
    user_username: str
    user_id: int | None
    minor: bool
    wikitext: str


class PageHistory(NamedTuple):
    page_id: int
    title: str
    namespace: int
    revisions: tuple[Revision, ...]


class PageIssue(NamedTuple):
    """A non-fatal problem found while reading a dump."""

    kind: str  # "page-skipped" or "missing-text"
    page_id: int | None
    title: str | None
    detail: str


def parse_timestamp(value: str) -> datetime:
    """Parse the dump timestamp format (2001-01-15T19:27:13Z) to aware UTC."""
    try:
        return datetime.strptime(value, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    except ValueError:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            return dt.replace(tzinfo=timezone.utc)
        return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_FIXED_WIDTH = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def normalize_timestamp(value: str) -> str:
    """A dump timestamp in the fixed-width UTC form, which compares as a string.

    Dumps write that form, so it is kept as it is once its fields are known
    to be in range; any other accepted form is converted. Raises ValueError
    for a timestamp that is not a valid instant.
    """
    if _FIXED_WIDTH.fullmatch(value):
        datetime.fromisoformat(value[:-1])  # range check only
        return value
    return format_timestamp(parse_timestamp(value))


def _local(tag: str) -> str:
    return tag.rpartition("}")[2]


class _PageSkip(Exception):
    pass


class _NotAnInteger(Exception):
    """An id or namespace ``int()`` refuses, or an id outside 0 to
    ``2**63 - 1``; its args say which and give its text."""


_CONTROL = re.compile(r"[\x00-\x1f\x7f]")  # never in a MediaWiki title
_TITLE_BYTES = 255  # MediaWiki's limit on a title without its namespace


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _NotAnInteger(f"{what} is not an integer", text) from None


def _id(text: str, what: str) -> int:
    """An id: an integer that the int64 columns of the later stages hold."""
    value = _int(text, what)
    if not 0 <= value <= 2**63 - 1:
        raise _NotAnInteger(f"{what} is not in 0 to 2**63 - 1", text)
    return value


def _lines(text: str) -> str:
    """``text`` with "\r\n" and "\r" made "\n"."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


class _CountingReader:
    """read() wrapper that tracks how many bytes the XML parser consumed."""

    def __init__(self, raw: IO[bytes]):
        self._raw = raw
        self.bytes_read = 0

    def read(self, size: int = -1) -> bytes:
        data = self._raw.read(size)
        self.bytes_read += len(data)
        return data


def _text(elem: ET.Element | None) -> str | None:
    if elem is None or elem.text is None:
        return None
    return elem.text


def _find(elem: ET.Element, name: str) -> ET.Element | None:
    for child in elem:
        if _local(child.tag) == name:
            return child
    return None


def _parse_contributor(elem: ET.Element | None) -> tuple[str, str, int | None]:
    # Deleted/suppressed contributors appear as an empty element; treat them
    # like anonymous editors so the user_id invariant holds.
    if elem is None:
        return USER_ANONYMOUS, "", None
    ip = _text(_find(elem, "ip"))
    if ip is not None:
        return USER_ANONYMOUS, _lines(ip.strip()), None
    username = _text(_find(elem, "username"))
    user_id = _text(_find(elem, "id"))
    if username is None or user_id is None:
        return USER_ANONYMOUS, _lines((username or "").strip()), None
    return USER_REGISTERED, _lines(username), _id(user_id, "contributor id")


def _parse_revision(elem: ET.Element, issue, page_id, title) -> Revision:
    # One pass over the children; reversed, so the first child of each tag
    # wins, as with _find.
    fields = {_local(child.tag): child for child in reversed(elem)}
    rev_id = _text(fields.get("id"))
    timestamp = _text(fields.get("timestamp"))
    if rev_id is None:
        raise _PageSkip("revision without id")
    if timestamp is None:
        raise _PageSkip(f"revision {rev_id} without timestamp")
    try:
        ts = normalize_timestamp(timestamp)
    except ValueError:
        raise _PageSkip(f"revision {rev_id} has unparsable timestamp {timestamp!r}")
    parent = _text(fields.get("parentid"))
    user_type, username, user_id = _parse_contributor(fields.get("contributor"))
    wikitext = _text(fields.get("text"))
    if wikitext is None:
        # Deleted or suppressed revision texts occur in real dumps.
        issue(PageIssue("missing-text", page_id, title, f"revision {rev_id} has no text"))
        wikitext = ""
    return Revision(
        revision_id=_id(rev_id, "revision id"),
        parent_id=_id(parent, "parent id") if parent else None,
        timestamp=ts,
        user_type=user_type,
        user_username=username,
        user_id=user_id,
        minor="minor" in fields,
        wikitext=_lines(wikitext),
    )


def _parse_page(elem: ET.Element, issue) -> PageHistory:
    title = _text(_find(elem, "title"))
    page_id = _text(_find(elem, "id"))
    if title is None or not title.strip():
        raise _PageSkip("page without title")
    if page_id is None:
        raise _PageSkip(f"page {title!r} without id")
    ns = _text(_find(elem, "ns"))
    page_id, title = _id(page_id, "page id"), title.strip()
    if _CONTROL.search(title):
        raise _PageSkip(f"title {title!r} holds a control character")
    namespace = _int(ns, "namespace") if ns is not None else 0
    name = title.partition(":")[2] if namespace else title  # without its namespace
    if len(name.encode()) > _TITLE_BYTES:
        raise _PageSkip(f"title of {len(name.encode())} UTF-8 bytes, past {_TITLE_BYTES}")
    revisions = [
        _parse_revision(child, issue, page_id, title)
        for child in elem
        if _local(child.tag) == "revision"
    ]
    # Imports from pre-MediaWiki software left non-linear parent chains in
    # the oldest histories, so parent ids are ignored; a total temporal
    # order is what snapshot selection needs.
    revisions.sort(key=lambda r: (r.timestamp, r.revision_id))
    return PageHistory(page_id, title, namespace, tuple(revisions))


def read_pages(
    stream: IO[bytes],
    *,
    source: str = "<stream>",
    on_issue: Callable[[PageIssue], None] | None = None,
) -> Iterator[PageHistory]:
    """Parse a decompressed export stream into PageHistory values.

    Pages missing a mandatory element (title, id, or a revision id or
    timestamp), and pages whose title holds a control character or is
    longer than MediaWiki's 255 UTF-8 bytes (its namespace prefix left
    out), are reported through ``on_issue`` with kind "page-skipped" and
    skipped;
    malformed XML, an id or namespace that is not an integer, an id
    outside 0 to ``2**63 - 1``, and a stream its decompressor cannot read
    to its end, raise :class:`DumpFormatError` naming the byte offset
    reached.
    Without ``on_issue``, issues are logged as warnings.
    """
    # Imported here: the snapshot stage loads this module too, but parses no XML.
    import xml.etree.ElementTree as ET

    if on_issue is None:
        import logging

        log = logging.getLogger(__name__)

        def on_issue(i: PageIssue) -> None:
            log.warning("%s: %s (page_id=%s title=%r)", i.kind, i.detail, i.page_id, i.title)

    counting = _CountingReader(stream)
    try:
        for _event, elem in ET.iterparse(counting, events=("end",)):
            if _local(elem.tag) != "page":
                continue
            try:
                yield _parse_page(elem, on_issue)
            except _PageSkip as skip:
                title = _text(_find(elem, "title"))
                page_id = _text(_find(elem, "id"))
                on_issue(
                    PageIssue(
                        "page-skipped",
                        _id(page_id, "page id") if page_id else None,
                        title,
                        str(skip),
                    )
                )
            elem.clear()
    except ET.ParseError as err:
        raise DumpFormatError(
            f"{source}: malformed XML near byte {counting.bytes_read}: {err}"
        ) from err
    except _NotAnInteger as err:
        fault, text = err.args
        raise DumpFormatError(
            f"{source}: {fault} near byte {counting.bytes_read}: {text!r}"
        ) from None
    except (EOFError, OSError, zlib.error) as err:  # a truncated or corrupt compressed dump
        raise DumpFormatError(
            f"{source}: cannot decompress past byte {counting.bytes_read}: {err}"
        ) from err


def open_dump(
    path: str | Path,
    *,
    sevenzip_command: Sequence[str] | None = None,
    on_issue: Callable[[PageIssue], None] | None = None,
) -> Iterator[PageHistory]:
    """Stream one dump file as PageHistory values, decompressed as its first
    bytes say (see :func:`~wikilinks.storage.open_dump_stream`)."""
    stream = open_dump_stream(path, sevenzip_command)
    try:
        yield from read_pages(stream, source=str(path), on_issue=on_issue)
    finally:
        stream.close()


def filter_namespace(pages: Iterable[PageHistory], namespace: int) -> Iterator[PageHistory]:
    """Keep only pages in the given namespace (0 = encyclopedia articles)."""
    return (page for page in pages if page.namespace == namespace)
