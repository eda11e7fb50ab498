"""Unit tests for the journal format (:mod:`repro.scanfabric.journal`).

``ScanCheckpoint`` writes the fabric's durable per-shard segments and
``read_journal`` replays them (and ``merged.jsonl``); a fabric worker
that resumes a shard trusts exactly what these two agree on.
"""

import json

import pytest

from repro.errors import CheckpointError
from repro.scanfabric.journal import CHECKPOINT_VERSION, ScanCheckpoint, read_journal

FP = {"kind": "test", "max_atoms": 1}


def test_fresh_checkpoint_writes_header(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP):
        pass
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {"v": CHECKPOINT_VERSION, "kind": "header", "fingerprint": FP}
    assert len(lines) == 1


def test_record_get_and_replay(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0, 1), {"found": True})
        ck.record(7, {"found": False})  # int keys normalise to (7,)
    _, done = read_journal(path, FP)
    assert done == {(0, 1): {"found": True}, (7,): {"found": False}}
    assert tuple(done) == ((0, 1), (7,))  # journal order
    assert done.get((9, 9)) is None


def test_duplicate_record_is_idempotent(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0,), {"x": 1})
        ck.record((0,), {"x": 999})  # ignored: the unit already completed
    assert read_journal(path)[1] == {(0,): {"x": 1}}
    assert len(path.read_text().splitlines()) == 2  # header + one cell


def test_open_without_resume_truncates(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0,), {"x": 1})
    with ScanCheckpoint.open(path, FP):
        pass
    assert len(path.read_text().splitlines()) == 1  # header only
    assert read_journal(path)[1] == {}


def test_fingerprint_mismatch_refuses_resume(tmp_path):
    # The fabric's mid-shard resume replays segments through the same
    # reader: a segment from another scan configuration is refused.
    from repro.scanfabric import journal

    ScanCheckpoint.open(journal.segment_path(tmp_path, 0, 0, "w1"), FP).close()
    with pytest.raises(CheckpointError, match="different scan configuration"):
        journal.replay_shard(tmp_path, 0, {"kind": "test", "max_atoms": 2})


def test_torn_final_line_is_dropped(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0,), {"x": 1})
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "kind": "cell", "key": [1], "da')  # killed mid-write
    _, done = read_journal(path, FP)
    assert done == {(0,): {"x": 1}}


def test_corruption_before_the_end_is_an_error(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0,), {"x": 1})
    text = path.read_text().splitlines()
    text[1] = "not json at all"
    path.write_text("\n".join(text + ['{"v": 1, "kind": "cell", "key": [2], "data": {}}']) + "\n")
    with pytest.raises(CheckpointError, match="corrupt"):
        read_journal(path, FP)


def test_missing_header_is_an_error(tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_text('{"v": 1, "kind": "cell", "key": [0], "data": {}}\n')
    with pytest.raises(CheckpointError, match="header"):
        read_journal(path, FP)


def test_version_mismatch_is_an_error(tmp_path):
    path = tmp_path / "ck.jsonl"
    path.write_text(
        json.dumps({"v": 999, "kind": "header", "fingerprint": FP}) + "\n"
    )
    with pytest.raises(CheckpointError, match="version"):
        read_journal(path, FP)


def test_records_are_flushed_as_written(tmp_path):
    # The journal must be durable per unit: a reader sees a completed cell
    # before the checkpoint is closed (this is what crash recovery relies on).
    path = tmp_path / "ck.jsonl"
    ck = ScanCheckpoint.open(path, FP)
    try:
        ck.record((3, 4), {"found": True})
        on_disk = path.read_text().splitlines()
        assert len(on_disk) == 2
        assert json.loads(on_disk[1])["key"] == [3, 4]
    finally:
        ck.close()


def test_durable_checkpoint_fsyncs_header_and_records(tmp_path, monkeypatch):
    import os as os_mod

    synced = []
    real_fsync = os_mod.fsync

    def counting_fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(
        "repro.scanfabric.journal.os.fsync", counting_fsync
    )
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        assert len(synced) == 1  # the header
        ck.record((0, 1), {"found": True})
        assert len(synced) == 2
        ck.record((0, 2), {"found": False})
        assert len(synced) == 3
        ck.record((0, 1), {"found": True})  # duplicate: no new write
        assert len(synced) == 3


def test_durable_survives_resume_round_trip(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((1, 2), {"found": True})
    assert read_journal(path, FP)[1] == {(1, 2): {"found": True}}


def test_read_journal_round_trip(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0, 1), {"found": True})
        ck.record((2, 3), {"found": False})
    fingerprint, done = read_journal(path, FP)
    assert fingerprint == FP
    assert done == {(0, 1): {"found": True}, (2, 3): {"found": False}}


def test_read_journal_tolerates_torn_tail_only(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0, 1), {"found": True})
    with path.open("a") as handle:
        handle.write('{"v": 1, "kind": "cell", "key": [9')  # torn
    _, done = read_journal(path)
    assert done == {(0, 1): {"found": True}}


def test_read_journal_rejects_conflicting_duplicates(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0, 1), {"found": True})
    line = json.dumps(
        {"v": CHECKPOINT_VERSION, "kind": "cell", "key": [0, 1],
         "data": {"found": False}}
    )
    with path.open("a") as handle:
        handle.write(line + "\n" + "\n")  # conflicting dup + padding line
    with pytest.raises(CheckpointError, match="conflicting records"):
        read_journal(path)


def test_read_journal_accepts_identical_duplicates(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0, 1), {"found": True})
    line = json.dumps(
        {"v": CHECKPOINT_VERSION, "kind": "cell", "key": [0, 1],
         "data": {"found": True}}
    )
    with path.open("a") as handle:
        handle.write(line + "\n" + "\n")
    _, done = read_journal(path)
    assert done == {(0, 1): {"found": True}}


def test_read_journal_verifies_fingerprint(tmp_path):
    path = tmp_path / "ck.jsonl"
    with ScanCheckpoint.open(path, FP) as ck:
        ck.record((0, 1), {"found": True})
    with pytest.raises(CheckpointError, match="different scan configuration"):
        read_journal(path, {"kind": "other"})
