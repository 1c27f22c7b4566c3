from __future__ import annotations

import csv
import gzip
import random

import pytest

from wikilinks.errors import DataFormatError
from wikilinks.extsort import external_sort, unique_justseen
from wikilinks.storage import (
    DatasetWriter,
    checksum_path,
    iter_rows,
    read_batches,
    sha256_of,
    verify_checksum,
    write_checksum,
)


class TestDatasetWriter:
    def test_roundtrip_plain_and_gzip(self, tmp_path):
        for name in ("data.csv", "data.csv.gz"):
            path = tmp_path / name
            with DatasetWriter(path, ("a", "b")) as writer:
                writer.write_row(("1", "x,y"))
                writer.write_row(("2", 'quoted "text"\nwith newline'))
            rows = list(iter_rows(path, ("a", "b")))
            assert rows == [["1", "x,y"], ["2", 'quoted "text"\nwith newline']]

    def test_header_validated_on_read(self, tmp_path):
        path = tmp_path / "data.csv"
        with DatasetWriter(path, ("a", "b")):
            pass
        with pytest.raises(DataFormatError, match="header"):
            list(iter_rows(path, ("x", "y")))

    def test_unreadable_row_names_the_rows_read(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,x\n2,y\n3,%s\n" % ("z" * 9), encoding="utf-8")
        old = csv.field_size_limit(8)
        try:
            with pytest.raises(DataFormatError) as raised:
                list(iter_rows(path, ("a", "b")))
        finally:
            csv.field_size_limit(old)
        assert str(raised.value) == (
            f"{path}: unreadable row after 2 data rows: field larger than field limit (8)"
        )

    @pytest.mark.parametrize("name", ["absent.csv", "absent.csv.gz"])
    def test_a_file_that_cannot_be_opened_raises_its_own_error(self, tmp_path, name):
        with pytest.raises(FileNotFoundError):
            list(iter_rows(tmp_path / name, ("a", "b"), (0,)))

    def test_a_block_parser_error_is_not_read_as_a_file_fault(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        with DatasetWriter(path, ("a", "b")) as writer:
            writer.write_rows([("1", "x"), ("2", "y")])

        def parse_block(block):
            raise ValueError("parser fault")

        def parse_rows(rows):
            rows = list(rows)
            return len(rows), rows

        batches = read_batches(path, ("a", "b"), (0,), 1 << 20, parse_block, parse_rows, 10)
        with pytest.raises(ValueError, match="parser fault"):
            list(batches)

    def test_gzip_output_is_deterministic(self, tmp_path):
        digests = set()
        for name in ("one.csv.gz", "two.csv.gz"):
            path = tmp_path / name
            with DatasetWriter(path, ("a",)) as writer:
                writer.write_row(("same",))
            digests.add(sha256_of(path))
        assert len(digests) == 1

    def test_checksum_sidecar_written_and_verifies(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        with DatasetWriter(path, ("a",)) as writer:
            writer.write_row(("1",))
        sidecar = checksum_path(path)
        assert sidecar.exists()
        digest, name = sidecar.read_text().split()
        assert name == path.name
        assert digest == sha256_of(path)
        assert verify_checksum(path)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "data.csv"
        with DatasetWriter(path, ("a",)) as writer:
            writer.write_row(("1",))
        path.write_text("tampered", encoding="utf-8")
        assert not verify_checksum(path)

    def test_truncated_sidecar_is_a_failure_not_a_crash(self, tmp_path):
        path = tmp_path / "data.csv"
        with DatasetWriter(path, ("a",)) as writer:
            writer.write_row(("1",))
        for sidecar in (b"", b"\xff\xfe not UTF-8  data.csv\n"):
            checksum_path(path).write_bytes(sidecar)
            assert not verify_checksum(path)

    def test_partial_marker_lifecycle(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        marker = tmp_path / "data.csv.gz.partial"
        writer = DatasetWriter(path, ("a",))
        assert marker.exists()
        writer.write_row(("1",))
        writer.close()
        assert not marker.exists()
        assert writer.sha256 == sha256_of(path)

    def test_final_name_is_empty_until_close(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        writer = DatasetWriter(path, ("a",))
        writer.write_rows([("1",), ("2",)])
        assert not path.exists() and not checksum_path(path).exists()
        writer.close()
        assert list(iter_rows(path, ("a",))) == [["1"], ["2"]]
        assert verify_checksum(path)

    def test_failed_rebuild_keeps_the_complete_file(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        with DatasetWriter(path, ("a",)) as writer:
            writer.write_row(("old",))
        published = path.read_bytes()
        with pytest.raises(RuntimeError):
            with DatasetWriter(path, ("a",)) as writer:
                writer.write_row(("new",))
                raise RuntimeError("simulated crash")
        writer.close()  # does nothing after the abort
        assert path.read_bytes() == published and verify_checksum(path)
        with pytest.raises(DataFormatError, match="partial"):
            list(iter_rows(path, ("a",)))

    def test_abort_leaves_marker_and_no_checksum(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        marker = tmp_path / "data.csv.gz.partial"
        with pytest.raises(RuntimeError):
            with DatasetWriter(path, ("a",)) as writer:
                writer.write_row(("1",))
                raise RuntimeError("simulated crash")
        assert marker.exists()
        assert not checksum_path(path).exists()

    def test_abort_twice_or_after_close_is_harmless(self, tmp_path):
        writer = DatasetWriter(tmp_path / "data.csv.gz", ("a",))
        writer.abort()
        writer.abort()
        closed = DatasetWriter(tmp_path / "done.csv.gz", ("a",))
        closed.close()
        closed.abort()
        assert verify_checksum(tmp_path / "done.csv.gz")

    def test_half_written_file_is_refused(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        with pytest.raises(RuntimeError):
            with DatasetWriter(path, ("a",)) as writer:
                writer.write_row(("1",))
                raise RuntimeError("simulated crash")
        with pytest.raises(DataFormatError, match="partial"):
            list(iter_rows(path, ("a",)))
        # The aborted rows stay in the .partial file; the final name holds nothing.
        assert not path.exists()
        with gzip.open(tmp_path / "data.csv.gz.partial", "rt", encoding="utf-8") as f:
            assert f.read() == "a\n1\n"

    def test_stdout_mode(self, capsys):
        writer = DatasetWriter("-", ("a", "b"))
        writer.write_row(("1", "2"))
        writer.close()
        assert capsys.readouterr().out == "a,b\n1,2\n"

    def test_rows_written_counts_data_only(self, tmp_path):
        with DatasetWriter(tmp_path / "d.csv", ("a",)) as writer:
            assert writer.rows_written == 0
            writer.write_rows([("1",), ("2",)])
            assert writer.rows_written == 2


class TestChecksumHelpers:
    def test_write_checksum_standalone(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"payload")
        write_checksum(path)
        assert verify_checksum(path)


class TestExternalSort:
    def test_sorts_like_builtin(self):
        rng = random.Random(5)
        rows = [(str(rng.randrange(100)), str(i)) for i in range(5000)]
        out = list(external_sort(iter(rows), lambda r: int(r[0]), chunk_rows=97))
        expected = sorted(rows, key=lambda r: int(r[0]))
        assert [tuple(r) for r in out] == expected

    def test_stable_across_chunks(self):
        # equal keys keep arrival order even when chunks split them
        rows = [("k", str(i)) for i in range(1000)]
        out = list(external_sort(iter(rows), lambda r: r[0], chunk_rows=7))
        assert [r[1] for r in out] == [str(i) for i in range(1000)]

    def test_small_input_stays_in_memory(self):
        rows = [("2", "a"), ("1", "b")]
        assert [tuple(r) for r in external_sort(iter(rows), lambda r: r[0])] == [
            ("1", "b"),
            ("2", "a"),
        ]

    def test_empty(self):
        assert list(external_sort(iter([]), lambda r: r)) == []

    def test_unique_justseen(self):
        rows = [("1", "a"), ("1", "b"), ("2", "c"), ("2", "c"), ("3", "d")]
        out = list(unique_justseen(rows, lambda r: r[0]))
        assert [tuple(r) for r in out] == [("1", "a"), ("2", "c"), ("3", "d")]
