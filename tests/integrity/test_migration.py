"""Journal format rejection: only envelope journals are read.

Journals written before the integrity envelope shipped were plain JSONL
(version 1).  Nothing writes that format any more, so it is refused like
any other non-envelope file: ``scan_file`` raises
``UnknownJournalFormat``, resume raises an actionable ``JournalError``
and ``repro verify`` exits 1 — never misparsed into garbage entries.
Envelope files whose header names another format or version are
rejected too.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.streaming import ConcurrencyCapDispatcher, poisson_arrivals
from repro.integrity import (
    UnknownJournalFormat,
    decode_line,
    encode_line,
    scan_file,
)
from repro.serving import (
    JOURNAL_FORMAT,
    JournalError,
    ServingConfig,
    run_serving,
)

pytestmark = pytest.mark.integrity

SEED = 7


def _arrivals():
    return poisson_arrivals(
        rate=4000.0,
        duration=0.002,
        type_mix=[("nn", 2), ("needle", 1)],
        seed=SEED,
    )


def _run(path: Path, resume: bool = False):
    return run_serving(
        _arrivals(),
        ConcurrencyCapDispatcher(2),
        ServingConfig(seed=SEED),
        num_streams=8,
        journal_path=path,
        resume=resume,
    )


@pytest.fixture(scope="module")
def envelope_reference(tmp_path_factory):
    """An uninterrupted envelope-format run: (bytes, header, entries)."""
    path = tmp_path_factory.mktemp("ref") / "ref.jsonl"
    _run(path)
    data = path.read_bytes()
    lines = data.splitlines()
    header = decode_line(lines[0], expected_seq=0)
    entries = [
        decode_line(line, expected_seq=i)
        for i, line in enumerate(lines[1:], start=1)
    ]
    return data, header, entries


def _envelope_bytes(header, entries) -> bytes:
    """A valid envelope journal with the given header payload."""
    lines = [encode_line(header, 0)]
    lines += [encode_line(e, seq) for seq, e in enumerate(entries, start=1)]
    return "".join(lines).encode("utf-8")


class TestRejection:
    def test_plain_jsonl_refused_everywhere(
        self, envelope_reference, tmp_path, capsys
    ):
        # The pre-envelope (version 1) layout: one JSON object per line.
        _, header, entries = envelope_reference
        lines = [json.dumps(dict(header, version=1), sort_keys=True)]
        lines += [json.dumps(e, sort_keys=True) for e in entries]
        path = tmp_path / "plain.jsonl"
        path.write_text("\n".join(lines) + "\n")
        before = path.read_bytes()
        with pytest.raises(UnknownJournalFormat, match="refusing to guess"):
            scan_file(path)
        with pytest.raises(JournalError, match="without --resume"):
            _run(path, resume=True)
        assert main(["verify", str(path)]) == 1
        assert "not an envelope" in capsys.readouterr().out
        # Refusal never rewrites or quarantines the file.
        assert path.read_bytes() == before
        assert not path.with_suffix(".jsonl.quarantine").exists()

    def test_unknown_format_rejected_with_actionable_error(self, tmp_path):
        path = tmp_path / "noise.jsonl"
        path.write_bytes(b"\x89PNG not a journal at all\n")
        with pytest.raises(JournalError, match=JOURNAL_FORMAT):
            _run(path, resume=True)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(JournalError):
            _run(path, resume=True)

    def test_unsupported_future_version_rejected(
        self, envelope_reference, tmp_path
    ):
        _, header, entries = envelope_reference
        path = tmp_path / "future.jsonl"
        future = dict(header, version=99)
        path.write_bytes(_envelope_bytes(future, entries))
        with pytest.raises(JournalError, match="unsupported version"):
            _run(path, resume=True)

    def test_wrong_format_name_rejected(
        self, envelope_reference, tmp_path
    ):
        _, header, entries = envelope_reference
        alien = dict(header, format="someone-elses-journal")
        path = tmp_path / "alien.jsonl"
        path.write_bytes(_envelope_bytes(alien, entries))
        with pytest.raises(JournalError, match=JOURNAL_FORMAT):
            _run(path, resume=True)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            _run(tmp_path / "never-written.jsonl", resume=True)
