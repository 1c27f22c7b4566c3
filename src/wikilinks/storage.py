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
from pathlib import Path
from typing import IO, Iterator, Sequence

from .errors import ConfigurationError, DataFormatError, DumpFormatError

CODECS = ("plain", "gzip", "bzip2", "7z-external")
DEFAULT_SEVENZIP = ("7z", "e", "-so")

PARTIAL_SUFFIX = ".partial"
CHECKSUM_SUFFIX = ".sha256"
# zlib's own default. On the pipeline's CSV it compresses 2.5-3x faster than
# gzip's default of 9, for files under 0.5% larger. A constant, not an
# option: the level is part of the bytes of every .gz output.
GZIP_LEVEL = 6


def codec_for_path(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".gz":
        return "gzip"
    if suffix in (".bz2", ".bzip2"):
        return "bzip2"
    if suffix == ".7z":
        return "7z-external"
    return "plain"


class _SubprocessStream:
    """Readable binary stream backed by an external decompressor process."""

    def __init__(self, command: Sequence[str], path: str | Path):
        import subprocess  # only 7z input loads it

        self._command = list(command) + [str(path)]
        try:
            self._proc = subprocess.Popen(
                self._command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
            )
        except OSError as err:
            raise ConfigurationError(
                f"cannot run external decompressor {self._command[0]!r}: {err}"
            ) from err

    def read(self, size: int = -1) -> bytes:
        data = self._proc.stdout.read(size)
        if not data:
            code = self._proc.wait()
            if code != 0:
                raise DumpFormatError(
                    f"external decompressor {' '.join(self._command)!r} exited with {code}"
                )
        return data

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "_SubprocessStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_dump_stream(
    path: str | Path,
    codec: str | None = None,
    sevenzip_command: Sequence[str] | None = None,
) -> IO[bytes]:
    """Open a dump file as a decompressed binary stream.

    ``codec`` is one of ``plain``, ``gzip``, ``bzip2``, ``7z-external``;
    ``None`` selects by file extension. 7z content is piped through an
    external command (default ``7z e -so``) because no codec for it ships
    with the standard library.
    """
    if codec is None:
        codec = codec_for_path(path)
    if codec == "plain":
        return open(path, "rb")
    if codec == "gzip":
        return gzip.open(path, "rb")
    if codec == "bzip2":
        import bz2  # only bzip2 input loads it

        return bz2.open(path, "rb")
    if codec == "7z-external":
        return _SubprocessStream(sevenzip_command or DEFAULT_SEVENZIP, path)
    raise ConfigurationError(f"unknown codec {codec!r}; expected one of {CODECS}")


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
    sidecar = checksum_path(path)
    recorded = sidecar.read_text(encoding="utf-8").split()
    if not recorded:
        return False  # truncated sidecar counts as a failure, not a crash
    return recorded[0] == sha256_of(path)


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


def iter_rows(
    path: str | Path, expected_header: Sequence[str] | None = None
) -> Iterator[list[str]]:
    """Yield the data rows of a dataset file, read through csv.

    A file whose ``.partial`` file is still present is stale, because the
    last run that rebuilt it failed, and a header other than
    ``expected_header``, if given, is wrong; both are refused with
    :class:`DataFormatError`. So is a row whose column count differs from
    the header's, which is malformed.
    """
    refuse_stale(path)
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if expected_header is not None and header != list(expected_header):
            raise DataFormatError(
                f"{path}: expected header {list(expected_header)}, found {header}"
            )
        width = len(header or ())
        for number, row in enumerate(reader, 2):
            if len(row) != width:
                raise DataFormatError(
                    f"{path}: row {number} has {len(row)} columns, expected {width}"
                )
            yield row


def undecodable_line(path: str | Path) -> tuple[int, UnicodeDecodeError] | None:
    """The number of the first line of a dataset file, decompressed, that is
    not UTF-8, counting the header as line 1, and its decoding error; None
    when every line decodes or the file cannot be read that far.

    No UTF-8 sequence holds a "\\n", so line by line finds what decoding the
    whole file finds.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as f:
            for number, line in enumerate(f, 1):
                try:
                    line.decode()
                except UnicodeDecodeError as err:
                    return number, err
    except (OSError, EOFError, zlib.error):
        pass
    return None


def rows_pattern(width: int, id_columns: Sequence[int], limit: int) -> bytes:
    """The source of a bytes regular expression that matches blocks of whole
    rows as :class:`DatasetWriter` writes them: ``width`` fields and a "\\n"
    per row. The fields in ``id_columns`` are ASCII digits; the others are
    text, bare or quoted, with no "\\r", "\\n" or NUL. No field is longer
    than ``limit`` bytes once unquoted.

    No field holds a "\\n", so every "\\n" of a matched block ends a row,
    and csv reads each matched row as the fields the pattern sees. The
    repeats are possessive, which needs Python 3.11.
    """
    digits = rb"[0-9]{1,%d}+" % limit
    text = rb'(?:[^,"\r\n\x00]{0,%d}+|"(?:[^"\r\n\x00]|""){0,%d}")' % (limit, limit)
    fields = (digits if column in id_columns else text for column in range(width))
    return rb"(?:%s\n)*+" % b",".join(fields)


def read_blocks(
    path: str | Path, fields: Sequence[str], rows: re.Pattern[bytes], size: int
) -> Iterator[bytes | None]:
    """The data rows of a dataset file, decompressed, in blocks of whole
    lines of about ``size`` bytes, while each block is valid UTF-8 and
    ``rows`` matches all of it.

    A stale file is refused as :func:`iter_rows` refuses it. Otherwise one
    None ends the blocks early, to say that the rest of the file must be read
    through :func:`iter_rows`. It comes in place of the first block that is
    refused, and at once when the header is not ``fields`` as
    :class:`DatasetWriter` writes it. It also comes when the file does not
    end in "\\n" or cannot be read to its end.
    """
    refuse_stale(path)
    header = (",".join(fields) + "\n").encode()
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as f:
            if f.readline(len(header)) == header:
                while block := f.read(size):
                    if not block.endswith(b"\n"):
                        block += f.readline()
                    # decode() raises UnicodeDecodeError, a ValueError, on invalid UTF-8
                    if not (block.endswith(b"\n") and rows.fullmatch(block)
                            and (block.isascii() or block.decode())):
                        break
                    yield block
                else:
                    return
    except (OSError, EOFError, ValueError, zlib.error):
        pass  # csv reads the file again and raises what it raises
    yield None
