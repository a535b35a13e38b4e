"""The checksummed record envelope and its recovery scanner.

Every persisted line of every journal is wrapped in one envelope::

    I1 <seq:8 hex> <crc:8 hex> <payload JSON>\\n

* ``I1`` — format marker and envelope version.  A file that does not
  start with it (including a pre-envelope plain-JSONL journal, whose
  first byte is ``{``) is refused, never misparsed.
* ``seq`` — the record's position in the file (header = 0), so a line
  spliced in from another file (or a dropped line) is detected even when
  its checksum is self-consistent.
* ``crc`` — CRC-32 over ``"<seq>:<payload>"`` in UTF-8.  CRC-32 detects
  every single-byte corruption, which is the unit the crash-point fuzzer
  sweeps.
* payload — canonical JSON (sorted keys, ``ensure_ascii=False`` so real
  UTF-8 lands on disk and torn multi-byte codepoints are exercised, not
  escaped away).

Encoding is deterministic: the same payload sequence always produces the
same bytes, which is what lets a crashed-and-resumed journal end up
byte-identical to the journal of an uninterrupted run.

Recovery model
--------------
A journal file is trusted only up to its *valid prefix*: the longest run
of lines from the top that decode, checksum and sequence correctly.
Everything after the first invalid line — whether a torn tail from a
crash mid-``write(2)`` or a flipped byte in the middle of the file — is
untrusted, because replay verification needs a contiguous prefix.  The
scanner therefore truncates to the valid prefix, quarantines the invalid
bytes to a ``<path>.quarantine`` sidecar (nothing is silently destroyed),
and reports what it did in a typed :class:`RecoveryReport`.

Marker records (payloads carrying :data:`MARKER_KEY`, e.g. the crash
marker the serving layer appends when a run dies) are part of the valid
prefix but are *not* entries: they are dropped on rewrite so a resumed
journal converges to the uninterrupted run's bytes.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ENVELOPE_PREFIX",
    "ENVELOPE_VERSION",
    "MARKER_KEY",
    "JournalIntegrityError",
    "RecordCorruption",
    "UnknownJournalFormat",
    "RecoveryReport",
    "encode_line",
    "decode_line",
    "sniff_format",
    "scan_file",
    "recover_file",
    "clock_regressions",
    "fsync_dir",
]

#: First token of every envelope line (also carries the envelope version).
ENVELOPE_PREFIX = "I1"
ENVELOPE_VERSION = 1

#: Payload key marking a non-entry record (crash markers and friends).
MARKER_KEY = "journal-marker"

#: Payload keys recognized as simulated timestamps by the clock check.
_CLOCK_KEYS = ("t", "complete", "time")


class JournalIntegrityError(Exception):
    """Base class for integrity-layer journal errors."""


class RecordCorruption(JournalIntegrityError):
    """One envelope line failed validation (checksum, seq, syntax...)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class UnknownJournalFormat(JournalIntegrityError):
    """The file is not an envelope journal."""


def _crc(seq: int, payload: str) -> int:
    return zlib.crc32(f"{seq}:{payload}".encode("utf-8"))


def encode_line(payload: Dict, seq: int) -> str:
    """One payload -> one envelope line (trailing newline included)."""
    body = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return f"{ENVELOPE_PREFIX} {seq:08x} {_crc(seq, body):08x} {body}\n"


def decode_line(raw: bytes, expected_seq: Optional[int] = None) -> Dict:
    """Validate and decode one envelope line.

    ``raw`` is the line *without* its newline.  Raises
    :class:`RecordCorruption` on any defect — an undecodable byte
    sequence (a tail torn mid-UTF-8-codepoint lands here), a bad prefix,
    a checksum mismatch, a sequence gap, or non-JSON payload.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RecordCorruption(f"undecodable UTF-8 ({exc})") from None
    parts = text.split(" ", 3)
    if len(parts) != 4 or parts[0] != ENVELOPE_PREFIX:
        raise RecordCorruption("not an envelope line")
    seq_text, crc_text, body = parts[1], parts[2], parts[3]
    if len(seq_text) != 8 or len(crc_text) != 8:
        raise RecordCorruption("malformed envelope header fields")
    try:
        seq = int(seq_text, 16)
        crc = int(crc_text, 16)
    except ValueError:
        raise RecordCorruption("non-hex seq/crc field") from None
    if expected_seq is not None and seq != expected_seq:
        raise RecordCorruption(
            f"sequence mismatch (line says {seq}, expected {expected_seq})"
        )
    if crc != _crc(seq, body):
        raise RecordCorruption("checksum mismatch")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise RecordCorruption(f"payload is not valid JSON ({exc.msg})") from None
    if not isinstance(payload, dict):
        raise RecordCorruption("payload is not a JSON object")
    return payload


def sniff_format(first_bytes: bytes) -> str:
    """``"envelope"`` or ``"unknown"`` from the first line.

    Envelope journals start with the ``I1 `` marker.  Anything else —
    plain JSONL included — is unknown and must be rejected with an
    actionable error rather than misparsed.
    """
    head = first_bytes.lstrip()[:8]
    if head.startswith(f"{ENVELOPE_PREFIX} ".encode()):
        return "envelope"
    return "unknown"


@dataclass
class RecoveryReport:
    """What the recovery scanner found (and, on repair, did) in one file.

    ``valid_records`` counts entry payloads only — the header and marker
    records are reported separately.  ``first_invalid_line`` is a
    1-indexed line number, ``None`` when the whole file validated.
    """

    path: str
    format: str                       # always "envelope"
    version: int
    total_lines: int = 0
    valid_records: int = 0
    markers: int = 0
    torn_tail: bool = False
    mid_file_corruption: bool = False
    first_invalid_line: Optional[int] = None
    corruption_reason: Optional[str] = None
    quarantined_bytes: int = 0
    sidecar: Optional[str] = None
    truncated: bool = False
    clock_regressions: int = 0

    @property
    def clean(self) -> bool:
        """Whether the file validated end to end."""
        return self.first_invalid_line is None and self.clock_regressions == 0

    def describe(self) -> str:
        """One-line digest for the ``verify`` CLI."""
        if self.first_invalid_line is None:
            state = "clean"
        elif self.torn_tail:
            state = f"torn tail at line {self.first_invalid_line}"
        else:
            state = (
                f"corrupt at line {self.first_invalid_line}"
                f" ({self.corruption_reason})"
            )
        text = (
            f"{self.path}: {self.format} v{self.version}, "
            f"{self.valid_records} records, {state}"
        )
        if self.quarantined_bytes:
            if self.sidecar is not None:
                text += (
                    f"; quarantined {self.quarantined_bytes} B"
                    f" -> {self.sidecar}"
                )
            else:
                text += f"; {self.quarantined_bytes} B past the valid prefix"
        if self.clock_regressions:
            text += f"; {self.clock_regressions} clock regression(s)"
        return text


def _split_lines(data: bytes) -> List[bytes]:
    """File bytes -> lines without newlines (trailing newline tolerated)."""
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return lines


def _scan_envelope(
    path: Path, data: bytes
) -> Tuple[Optional[Dict], List[Dict], RecoveryReport, int]:
    """Valid-prefix scan; returns (header, entries, report, prefix_bytes)."""
    lines = _split_lines(data)
    report = RecoveryReport(
        path=str(path), format="envelope", version=ENVELOPE_VERSION,
        total_lines=len(lines),
    )
    header: Optional[Dict] = None
    entries: List[Dict] = []
    prefix_bytes = 0
    for lineno, raw in enumerate(lines, start=1):
        try:
            payload = decode_line(raw, expected_seq=lineno - 1)
        except RecordCorruption as exc:
            report.first_invalid_line = lineno
            report.corruption_reason = exc.reason
            report.torn_tail = lineno == len(lines)
            report.mid_file_corruption = not report.torn_tail
            break
        if lineno == 1:
            header = payload
        elif MARKER_KEY in payload:
            report.markers += 1
        else:
            entries.append(payload)
        prefix_bytes += len(raw) + 1
    # A final intact line may legitimately lack its newline (the crash cut
    # exactly the "\n"); the prefix must not extend past the file.
    prefix_bytes = min(prefix_bytes, len(data))
    report.valid_records = len(entries)
    report.quarantined_bytes = len(data) - prefix_bytes
    report.clock_regressions = clock_regressions(entries)
    return header, entries, report, prefix_bytes


def scan_file(path) -> Tuple[Optional[Dict], List[Dict], RecoveryReport, int]:
    """Read-only scan: (header payload, entries, report, valid prefix bytes).

    Raises :class:`UnknownJournalFormat` when the file is not an
    envelope journal, and ``FileNotFoundError`` when it
    does not exist.  Never raises on corruption — corruption is *data*,
    reported in the :class:`RecoveryReport`.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise UnknownJournalFormat(f"{path} is empty")
    if sniff_format(data) == "envelope":
        return _scan_envelope(path, data)
    raise UnknownJournalFormat(
        f"{path} is not an envelope (I1 ...) journal; refusing to guess "
        "at its contents (plain-JSONL journals are not read: re-run "
        "without --resume to start a fresh journal)"
    )


def quarantine_bytes(path, data: bytes) -> str:
    """Write invalid bytes to the journal's ``.quarantine`` sidecar."""
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".quarantine")
    with open(sidecar, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return str(sidecar)


def recover_file(
    path, quarantine: bool = True
) -> Tuple[Optional[Dict], List[Dict], RecoveryReport]:
    """Scan and *repair*: truncate to the valid prefix, quarantine the rest.

    The truncation is atomic (tmp file + ``os.replace`` + directory
    fsync), so a crash during recovery never makes things worse.  Returns
    the header, the surviving entries and the report (with
    :attr:`RecoveryReport.truncated` / :attr:`RecoveryReport.sidecar`
    filled in when anything was done).
    """
    path = Path(path)
    header, entries, report, prefix = scan_file(path)
    data = path.read_bytes()
    if prefix >= len(data):
        return header, entries, report
    if quarantine:
        report.sidecar = quarantine_bytes(path, data[prefix:])
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data[:prefix])
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path)
    report.truncated = True
    return header, entries, report


def clock_regressions(entries: List[Dict]) -> int:
    """Count simulated-clock regressions across a journal's entries.

    Every journal in the repo appends in commit order, so any timestamp
    field a record carries must be non-decreasing file-wide.  A regression
    means records were reordered, spliced or hand-edited — the invariant
    the "monotone sim clock in every journal" probe defends.
    """
    last = float("-inf")
    regressions = 0
    for entry in entries:
        for key in _CLOCK_KEYS:
            value = entry.get(key)
            if isinstance(value, (int, float)):
                if value < last:
                    regressions += 1
                else:
                    last = float(value)
                break
    return regressions


def fsync_dir(path) -> None:
    """fsync the directory entry so a fresh file survives a host crash.

    Appending durably is not enough on POSIX: the file's *name* lives in
    the directory, and a crash between ``os.replace``/file creation and
    the directory flush can lose the whole journal.  Best-effort on
    platforms whose directories cannot be opened.
    """
    parent = Path(path).resolve().parent
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)
