"""Unit tests for the checksummed record envelope and its scanner."""

from pathlib import Path

import pytest

from repro.integrity import (
    ENVELOPE_PREFIX,
    MARKER_KEY,
    RecordCorruption,
    UnknownJournalFormat,
    clock_regressions,
    decode_line,
    encode_line,
    recover_file,
    scan_file,
    sniff_format,
)

pytestmark = pytest.mark.integrity


def _journal_bytes(payloads):
    """Header + payload records, exactly as a journal writes them."""
    header = {"format": "repro-serving-journal", "version": 2,
              "fingerprint": "fp"}
    lines = [encode_line(header, 0)]
    lines += [encode_line(p, seq) for seq, p in enumerate(payloads, start=1)]
    return "".join(lines).encode("utf-8")


class TestEnvelope:
    def test_round_trip(self):
        payload = {"app": "señal#7", "t": 0.0012345678901234, "n": 3}
        line = encode_line(payload, 5)
        assert line.startswith(f"{ENVELOPE_PREFIX} 00000005 ")
        assert line.endswith("\n")
        # decode_line takes the line as splitlines() yields it: no newline.
        raw = line.encode("utf-8").rstrip(b"\n")
        assert decode_line(raw, expected_seq=5) == payload

    def test_deterministic_encoding(self):
        a = encode_line({"b": 1, "a": 2}, 1)
        b = encode_line({"a": 2, "b": 1}, 1)
        assert a == b  # sorted keys: same payload -> same bytes

    def test_utf8_lands_raw_on_disk(self):
        line = encode_line({"app": "ニューラル"}, 1)
        assert "ニューラル" in line  # not \u-escaped

    def test_seq_mismatch_detected(self):
        line = encode_line({"x": 1}, 3).encode("utf-8").rstrip(b"\n")
        with pytest.raises(RecordCorruption, match="sequence"):
            decode_line(line, expected_seq=4)

    def test_every_single_byte_flip_detected(self):
        line = encode_line({"x": 1, "app": "nn#0"}, 1).encode().rstrip(b"\n")
        for off in range(len(line)):
            mutated = bytearray(line)
            mutated[off] ^= 0x01
            with pytest.raises(RecordCorruption):
                decode_line(bytes(mutated), expected_seq=1)

    def test_invalid_utf8_is_corruption_not_unicode_error(self):
        line = bytearray(
            encode_line({"app": "模型"}, 1).encode().rstrip(b"\n")
        )
        # Stomp the first byte of the multi-byte codepoint.
        off = line.index("模".encode("utf-8")[0])
        line[off] = 0xFF
        with pytest.raises(RecordCorruption):
            decode_line(bytes(line), expected_seq=1)


class TestSniff:
    def test_envelope(self):
        assert sniff_format(b"I1 00000000 deadbeef {}") == "envelope"

    def test_legacy(self):
        # Pre-envelope plain JSONL is refused like any other stranger.
        assert sniff_format(b'{"format": "x"}') == "unknown"

    def test_unknown(self):
        assert sniff_format(b"\x00\x01binary") == "unknown"
        assert sniff_format(b"") == "unknown"


class TestScan:
    def test_clean_file(self, tmp_path):
        payloads = [{"i": 0, "t": 0.1}, {"i": 1, "t": 0.2}]
        path = tmp_path / "j.jsonl"
        path.write_bytes(_journal_bytes(payloads))
        header, entries, report, prefix = scan_file(path)
        assert header["fingerprint"] == "fp"
        assert entries == payloads
        assert report.clean
        assert prefix == len(path.read_bytes())

    def test_markers_counted_but_not_entries(self, tmp_path):
        data = _journal_bytes([{"i": 0}])
        data += encode_line({MARKER_KEY: "crash", "t": 0.5}, 2).encode()
        path = tmp_path / "j.jsonl"
        path.write_bytes(data)
        _, entries, report, _ = scan_file(path)
        assert entries == [{"i": 0}]
        assert report.markers == 1
        assert report.clean

    def test_torn_tail_classified(self, tmp_path):
        data = _journal_bytes([{"i": 0}, {"i": 1}])
        path = tmp_path / "j.jsonl"
        path.write_bytes(data[:-4])
        _, entries, report, prefix = scan_file(path)
        assert entries == [{"i": 0}]
        assert report.torn_tail and not report.mid_file_corruption
        assert data[:prefix].endswith(b"\n")

    def test_mid_file_flip_classified(self, tmp_path):
        data = bytearray(_journal_bytes([{"i": 0}, {"i": 1}, {"i": 2}]))
        # Flip inside record 1's JSON payload (a flip in the hex header
        # fields can be semantically invisible — int(x, 16) is
        # case-insensitive — but payload bytes are always CRC-covered).
        off = bytes(data).index(b'"i": 0')
        data[off + 1] ^= 0x20
        path = tmp_path / "j.jsonl"
        path.write_bytes(bytes(data))
        _, entries, report, _ = scan_file(path)
        assert entries == []  # nothing after the bad line is trusted
        assert report.mid_file_corruption and not report.torn_tail
        assert report.first_invalid_line == 2

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"\x00 certainly not a journal\n")
        with pytest.raises(UnknownJournalFormat):
            scan_file(path)


class TestRecover:
    def test_truncates_and_quarantines(self, tmp_path):
        data = _journal_bytes([{"i": 0}, {"i": 1}])
        cut = data[: len(data) - 6]
        path = tmp_path / "j.jsonl"
        path.write_bytes(cut)
        _, entries, report = recover_file(path)
        assert entries == [{"i": 0}]
        assert report.truncated
        assert report.sidecar is not None
        # Nothing silently destroyed: prefix + sidecar == original bytes.
        sidecar = Path(report.sidecar)
        assert path.read_bytes() + sidecar.read_bytes() == cut
        # Second pass is a no-op on an already-clean file.
        _, entries2, report2 = recover_file(path)
        assert entries2 == entries
        assert not report2.truncated

    def test_quarantine_opt_out(self, tmp_path):
        data = _journal_bytes([{"i": 0}, {"i": 1}])
        path = tmp_path / "j.jsonl"
        path.write_bytes(data[:-6])
        _, _, report = recover_file(path, quarantine=False)
        assert report.sidecar is None
        assert not (tmp_path / "j.jsonl.quarantine").exists()


class TestClockRegressions:
    def test_monotone_is_zero(self):
        assert clock_regressions([{"t": 0.1}, {"t": 0.2}, {"t": 0.2}]) == 0

    def test_regression_counted(self):
        entries = [{"t": 0.2}, {"t": 0.1}, {"complete": 0.3},
                   {"complete": 0.05}]
        assert clock_regressions(entries) == 2
