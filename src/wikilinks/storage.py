"""File plumbing shared by every stage: compressed input streams and gzip
CSV dataset files with SHA-256 sidecars.

Every dataset file is built under ``<name>.partial`` and renamed to
``<name>`` only once it is complete, so a final name never holds a
half-written file; a ``.partial`` file that outlives a run marks the final
name as stale.

All dataset files are UTF-8 CSV (RFC 4180 quoting, LF line endings), gzipped
when the path ends in ``.gz``. Gzip members are written at the fixed
compression level :data:`GZIP_LEVEL`, with ``mtime=0`` and no embedded
filename, so that reruns produce byte-identical files.

Every stage reads dataset files through :func:`iter_rows`, which checks
the header, each row's width and that each id column (one some stage
parses with ``int()``) is ASCII digits, and turns every read fault into a
:class:`DataFormatError` naming the path and the line or row.
:func:`read_batches` reads graph files and raw-link shards in blocks that a
regular expression accepts: a graph file only as ``graph`` writes it, a
raw-link shard from its first refused row on through :func:`iter_rows`.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import os
import re
import sys
import zlib
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from functools import cache
from itertools import islice
from pathlib import Path
from typing import IO, TypeVar

from .errors import ConfigurationError, DataFormatError, DumpFormatError

DEFAULT_SEVENZIP = ("7z", "e", "-so")
_SEVENZIP_MAGIC = b"7z\xbc\xaf\x27\x1c"
_STDERR_TAIL = 4096  # bytes of a failed decompressor's standard error it reports

PARTIAL_SUFFIX = ".partial"
CHECKSUM_SUFFIX = ".sha256"
# zlib's own default. On the pipeline's CSV it compresses 2.5-3x faster than
# gzip's default of 9, for files under 0.5% larger. A constant, not an
# option: the level is part of the bytes of every .gz output.
GZIP_LEVEL = 6
# The longest field the patterns of rows_pattern take: csv's limit at import.
_FIELD_LIMIT = csv.field_size_limit()
_Batch = TypeVar("_Batch")  # what read_batches' parsers make of rows
_BATCH_ROWS = 1 << 12  # rows per batch of read_batches' parse_rows


class _SubprocessStream:
    """Readable binary stream backed by an external decompressor process,
    whose standard error goes to a temporary file (a pipe nothing reads
    could fill up and stop it) and ends the error raised if it fails."""

    def __init__(self, command: Sequence[str], path: str | Path):
        import subprocess  # only 7z input loads it
        import tempfile

        self._command = list(command) + [str(path)]
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                self._command, stdout=subprocess.PIPE, stderr=self._stderr
            )
        except OSError as err:
            self._stderr.close()
            raise ConfigurationError(
                f"cannot run external decompressor {self._command[0]!r}: {err}"
            ) from err

    def read(self, size: int = -1) -> bytes:
        data = self._proc.stdout.read(size)
        if not data:
            code = self._proc.wait()
            if code != 0:
                self._stderr.seek(max(self._stderr.seek(0, os.SEEK_END) - _STDERR_TAIL, 0))
                said = self._stderr.read().decode(errors="replace").strip()
                raise DumpFormatError(
                    f"external decompressor {' '.join(self._command)!r} exited with {code}"
                    + (f": {said}" if said else "")
                )
        return data

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()
        self._stderr.close()

    def __enter__(self) -> "_SubprocessStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_dump_stream(
    path: str | Path, sevenzip_command: Sequence[str] | None = None
) -> IO[bytes]:
    """Open a dump file as a decompressed binary stream.

    The codec is read from the file's first bytes, whatever its name: gzip
    (``1f 8b``), bzip2 (``BZh``), 7z (``37 7a bc af 27 1c``), and plain XML
    for anything else. 7z content is piped through an external command
    (default ``7z e -so``) because no codec for it ships with the standard
    library.
    """
    with open(path, "rb") as f:
        magic = f.read(len(_SEVENZIP_MAGIC))
    if magic.startswith(b"\x1f\x8b"):
        return gzip.open(path, "rb")
    if magic.startswith(b"BZh"):
        import bz2  # only bzip2 input loads it

        return bz2.open(path, "rb")
    if magic == _SEVENZIP_MAGIC:
        return _SubprocessStream(sevenzip_command or DEFAULT_SEVENZIP, path)
    return open(path, "rb")


def sha256_of(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def checksum_path(path: str | Path) -> Path:
    return Path(str(path) + CHECKSUM_SUFFIX)


def partial_path(path: str | Path) -> Path:
    return Path(str(path) + PARTIAL_SUFFIX)


def write_checksum(path: str | Path, digest: str | None = None) -> Path:
    """Write a sha256sum-compatible sidecar ("<hex>  <filename>")."""
    if digest is None:
        digest = sha256_of(path)
    sidecar = checksum_path(path)
    sidecar.write_text(f"{digest}  {Path(path).name}\n", encoding="utf-8")
    return sidecar


def verify_checksum(path: str | Path) -> bool:
    try:
        recorded = checksum_path(path).read_text(encoding="utf-8").split()
    except UnicodeDecodeError:
        recorded = []
    # A truncated or undecodable sidecar counts as a failure, not a crash.
    return bool(recorded) and recorded[0] == sha256_of(path)


class _HashingWriter(io.RawIOBase):
    """Binary sink that forwards to a file while updating a digest."""

    def __init__(self, raw: IO[bytes], digest):
        self._raw = raw
        self._digest = digest

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self._digest.update(data)
        return self._raw.write(data)


class CsvLines(list):
    """A sink that a ``csv.writer`` in the writers' dialect writes into: one
    string per row, each as :meth:`DatasetWriter.write_row` writes it."""

    write = list.append


class DatasetWriter:
    """CSV writer for one dataset file.

    Rows go to ``<path>.partial``. :meth:`close` finishes the file, keeps the
    digest of the bytes that hit the disk in :attr:`sha256`, writes the
    ``.sha256`` sidecar and only then renames the file to ``<path>``, so the
    final name only ever holds a complete file. Passing ``"-"`` as the path
    writes plain CSV to standard output instead.
    """

    def __init__(self, path: str | Path, header: Sequence[str]):
        self.rows_written = 0
        self.sha256: str | None = None
        self._header = list(header)
        self._stdout = str(path) == "-"
        if self._stdout:
            self._text = sys.stdout
            self._csv = csv.writer(self._text, lineterminator="\n")
            self._csv.writerow(self._header)
            return
        self.path = Path(path)
        self._digest = hashlib.sha256()
        self._raw = open(partial_path(path), "wb")
        sink = _HashingWriter(self._raw, self._digest)
        self._zip = None
        if self.path.suffix == ".gz":
            self._zip = gzip.GzipFile(
                filename="", mode="wb", fileobj=sink, mtime=0, compresslevel=GZIP_LEVEL
            )
            stream = self._zip
        else:
            stream = sink
        self._text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
        self._csv = csv.writer(self._text, lineterminator="\n")
        self._csv.writerow(self._header)

    def write_row(self, row: Sequence) -> None:
        self._csv.writerow(row)
        self.rows_written += 1

    def write_rows(self, rows) -> None:
        for row in rows:
            self.write_row(row)

    def write_text(self, text: str, rows: int) -> None:
        """Write ``rows`` data rows given as one string, each formatted as
        :meth:`write_row` would write it.

        The text goes through the same text stream as the rows, which is
        never flushed: a flush of the gzip member would change its bytes.
        """
        self._text.write(text)
        self.rows_written += rows

    def close(self) -> None:
        """Publish the file under its final name; does nothing after :meth:`abort`."""
        if self._stdout:
            sys.stdout.flush()
            return
        if self._raw.closed:
            return
        self.abort()  # finishes the gzip member and closes the file
        self.sha256 = self._digest.hexdigest()
        write_checksum(self.path, self.sha256)
        os.replace(partial_path(self.path), self.path)

    def abort(self) -> None:
        """Close the file handles and leave the rows in ``.partial``, with no
        sidecar.

        Safe to call again, or after close.
        """
        if self._stdout or self._raw.closed:
            return
        # Detach before closing the gzip member: closing the wrapper would
        # close the member before the trailer had a chance to be written.
        try:
            self._text.flush()
            self._text.detach()
            if self._zip is not None:
                self._zip.close()
        finally:
            self._raw.close()

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def refuse_stale(path: str | Path) -> None:
    """Raise :class:`DataFormatError` while a ``.partial`` file marks ``path`` stale."""
    if partial_path(path).exists():
        raise DataFormatError(
            f"{path}: stale, the run that rebuilt it failed and left {partial_path(path).name}"
        )


def _open_dataset(path: str | Path, mode: str = "rb", **text) -> IO:
    """A dataset file opened for reading, gunzipped when its name ends in ``.gz``."""
    return (gzip.open if str(path).endswith(".gz") else open)(path, mode, **text)


def iter_rows(
    path: str | Path, fields: Sequence[str] | None = None, id_columns: Sequence[int] = ()
) -> Iterator[list[str]]:
    """Yield the data rows of a dataset file, read through csv.

    Every fault of the file raises :class:`DataFormatError` naming the
    path: a ``.partial`` file beside it, left by a failed rebuild, which
    makes it stale; a header other than ``fields``, if given; a row whose
    column count differs from the header's; a field of ``id_columns`` that
    is not ASCII digits, "row N column X is not an id"; a line that is not
    UTF-8, "line N is not UTF-8", counting the header as line 1; and a file
    that cannot be read, such as a truncated or corrupt gzip member or a
    row csv refuses, "unreadable row after N data rows". A file that
    cannot be opened raises its own :class:`OSError`.
    """
    refuse_stale(path)
    number = 1  # the row number of the last row read, the header's is 1
    with _open_dataset(path, "rt", encoding="utf-8", newline="") as f:
        try:
            reader = csv.reader(f)
            header = next(reader, None)
            if fields is not None and header != list(fields):
                raise DataFormatError(f"{path}: expected header {list(fields)}, found {header}")
            width = len(header or ())
            for number, row in enumerate(reader, 2):
                if len(row) != width:
                    raise DataFormatError(f"{path}: row {number} has {len(row)} columns, "
                                          f"expected {width}")
                for column in id_columns:
                    if not (row[column].isascii() and row[column].isdigit()):
                        raise DataFormatError(f"{path}: row {number} column {header[column]} "
                                              f"is not an id: {row[column]!r}")
                yield row
        except (UnicodeDecodeError, OSError, EOFError, zlib.error, csv.Error) as err:
            # The text layer decodes ahead of csv, so csv's row count does not
            # say where a byte that is not UTF-8 is; a scan of the file's lines does.
            found = isinstance(err, UnicodeDecodeError) and _undecodable_line(path)
            if found:
                raise DataFormatError(f"{path}: line {found[0]} is not UTF-8: {found[1]}")
            raise DataFormatError(f"{path}: unreadable row after {number - 1} data rows: {err}")


def _undecodable_line(path: str | Path) -> tuple[int, UnicodeDecodeError] | None:
    """The number of the first line of a dataset file, decompressed, that is
    not UTF-8, counting the header as line 1, and its decoding error; None
    when every line decodes or the file cannot be read that far.

    No UTF-8 sequence holds a "\\n", so line by line finds what decoding the
    whole file finds.
    """
    try:
        with _open_dataset(path) as f:
            for number, line in enumerate(f, 1):
                try:
                    line.decode()
                except UnicodeDecodeError as err:
                    return number, err
    except (OSError, EOFError, zlib.error):
        pass
    return None


@cache
def rows_pattern(width: int, id_columns: tuple[int, ...]) -> re.Pattern[bytes]:
    """A bytes regular expression that matches blocks of whole rows as
    :class:`DatasetWriter` writes them: ``width`` fields and a "\\n" per
    row. The fields in ``id_columns`` are ASCII digits; the others are text,
    bare or quoted, with no "\\r", "\\n" or NUL. No field is longer than
    csv's field size limit when this module was loaded, once unquoted.

    No field holds a "\\n", so every "\\n" of a matched block ends a row,
    and csv reads each matched row as the fields the pattern sees. The
    repeats are possessive, so a match keeps no state per row.
    """
    digits = rb"[0-9]{1,%d}+" % _FIELD_LIMIT
    text = rb'(?:[^,"\r\n\x00]{0,%d}+|"(?:[^"\r\n\x00]|""){0,%d}")' % (
        _FIELD_LIMIT, _FIELD_LIMIT)
    fields = (digits if column in id_columns else text for column in range(width))
    return re.compile(rb"(?:%s\n)*+" % b",".join(fields))


def _line_blocks(path: str | Path, fields: Sequence[str], block_bytes: int) -> Iterator[bytes]:
    """A dataset file after its header, decompressed, in blocks of whole
    lines of about ``block_bytes`` bytes. A header other than ``fields``
    joined by commas raises :class:`ValueError` with the bytes read."""
    header = (",".join(fields) + "\n").encode()
    with _open_dataset(path) as f:
        if (line := f.readline(len(header))) != header:
            raise ValueError(line)
        while block := f.read(block_bytes):
            if not block.endswith(b"\n"):
                block += f.readline()
            yield block


def read_batches(
    path: str | Path,
    fields: Sequence[str],
    id_columns: tuple[int, ...],
    block_bytes: int,
    parse_block: Callable[[bytes], tuple[int, _Batch] | None],
    parse_rows: Callable[[Iterator[list[str]]], tuple[int, _Batch]] | None = None,
    batch_rows: int = _BATCH_ROWS,
) -> Iterator[tuple[int, _Batch]]:
    """The rows of a dataset file in batches, in file order: each batch's
    number of rows and what ``parse_block`` or ``parse_rows`` makes of them.

    The rows of each block of :func:`_line_blocks` up to the first that is
    not UTF-8 or that :func:`rows_pattern` refuses go to ``parse_block``; an
    ``OverflowError(i)`` it raises for an id past ``2**63 - 1`` in their
    row i becomes a :class:`DataFormatError` naming the row. The rest is
    read through :func:`iter_rows`, which names every fault it finds.
    Without ``parse_rows`` (graph files), a row it reads without fault is
    still refused. With it (raw-link shards: anchors may hold line feeds),
    ``parse_rows`` makes batches of at most ``batch_rows`` of those rows,
    and takes the rows of a block ``parse_block`` returns None for, and
    every row while csv's field size limit is below the pattern's.
    """
    refuse_stale(path)
    pattern = rows_pattern(len(fields), id_columns)
    taken = 0
    fault = None  # what a graph file's refused row is, if iter_rows finds no fault
    blocks = _line_blocks(path, fields, block_bytes)
    while parse_rows is None or csv.field_size_limit() >= _FIELD_LIMIT:
        try:
            block = next(blocks, None)
        except ValueError as err:  # the header
            fault = f"{path}: row 1 is not as the pipeline writes rows: {err.args[0]!r}"
            break
        except (OSError, EOFError, zlib.error) as err:
            fault = f"{path}: unreadable row after {taken} data rows: {err}"
            break
        if block is None:
            return  # every row was taken
        matched = pattern.match(block)
        end = matched.end() if matched else 0
        if not block.isascii():
            try:
                block.decode()
            except UnicodeDecodeError as err:
                end = min(end, block.rfind(b"\n", 0, err.start) + 1)
        if end:
            try:
                batch = parse_block(block[:end])
            except OverflowError as err:
                raise DataFormatError(
                    f"{path}: row {taken + 2 + err.args[0]} has an id past 2**63 - 1"
                ) from None
            if batch is None:
                break
            taken += batch[0]
            yield batch
            del batch  # freed before the next block is parsed
        if end < len(block):
            line = block[end:block.find(b"\n", end) + 1 or None][:100]
            fault = f"{path}: row {taken + 2} is not as the pipeline writes rows: {line!r}"
            break
    blocks.close()
    read = iter_rows(path, fields, id_columns)
    if parse_rows is None:
        deque(read, 0)  # raises the fault iter_rows finds, if it finds one
        raise DataFormatError(fault)
    deque(islice(read, taken), 0)
    while (batch := parse_rows(islice(read, batch_rows)))[0]:
        yield batch
