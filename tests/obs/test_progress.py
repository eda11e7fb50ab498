"""Unit tests for the live progress line (:mod:`repro.obs.progress`)."""

import io

from repro.obs.progress import ProgressReporter


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _reporter(min_interval=0.0):
    clock = _Clock()
    stream = io.StringIO()
    reporter = ProgressReporter(
        label="scan", stream=stream, min_interval=min_interval, clock=clock
    )
    return reporter, clock, stream


def test_update_shape_matches_on_progress_callback():
    reporter, clock, _ = _reporter()
    # (done, total, proc) — the exact signature the scan drivers call.
    reporter.update(0, 10, "")
    clock.now = 1.0
    reporter.update(4, 10, "w0")
    assert reporter.done == 4 and reporter.total == 10
    assert reporter.rate() == 4.0
    assert reporter.eta() == 1.5


def test_fully_resumed_scan_renders_without_rate():
    reporter, _, stream = _reporter()
    # Every cell of the shard was replayed from its journal: the worker
    # reports 0 first, then the replayed cells as pruned.
    reporter.update(0, 3, "")
    reporter.note_pruned(3)
    reporter.finish()
    line = stream.getvalue()
    assert "scan 0/3 100.0%" in line
    assert "pruned 3" in line
    assert "/s" not in line  # no fresh units → no rate claim


def test_rate_limiting_skips_intermediate_renders():
    reporter, clock, stream = _reporter(min_interval=10.0)
    reporter.update(0, 5, "")
    clock.now = 0.1
    reporter.update(1, 5, "")  # suppressed: within min_interval
    assert stream.getvalue().count("\r") == 1
    clock.now = 0.2
    reporter.update(5, 5, "")  # final update always renders
    assert stream.getvalue().count("\r") == 2
    assert reporter.updates == 3


def test_shorter_line_overwrites_longer_one():
    reporter, _, stream = _reporter()
    reporter._emit("a long status line")
    reporter._emit("short")
    last = stream.getvalue().rsplit("\r", 1)[1]
    # Padding spaces blank out the previous, longer line.
    assert last == "short" + " " * (len("a long status line") - len("short"))


def test_finish_terminates_the_line():
    reporter, _, stream = _reporter()
    reporter.update(1, 1, "")
    reporter.finish()
    assert stream.getvalue().endswith("\n")


def test_finish_without_updates_is_silent():
    reporter, _, stream = _reporter()
    reporter.finish()
    assert stream.getvalue() == ""


def test_pruned_units_shrink_eta_but_not_rate():
    reporter, clock, _ = _reporter()
    reporter.update(0, 20, "")
    clock.now = 1.0
    reporter.update(4, 20, "")
    assert reporter.rate() == 4.0
    assert reporter.eta() == 4.0  # 16 remaining at 4/s
    # Ten cells resolved by symmetry/carry: instant, so the rate holds
    # but the remaining-work term collapses (the PR-7 overestimate bug).
    reporter.note_pruned(10)
    assert reporter.rate() == 4.0
    assert reporter.eta() == 1.5  # only 6 genuinely scannable cells left


def test_pruned_units_advance_percent_and_render():
    reporter, clock, _ = _reporter()
    reporter.update(0, 10, "")
    reporter.note_pruned(5)
    clock.now = 1.0
    reporter.update(2, 10, "")
    line = reporter.render()
    assert "70.0%" in line  # (2 done + 5 pruned) / 10
    assert "pruned 5" in line


def test_pruned_percent_is_capped_at_100():
    reporter, _, _ = _reporter()
    reporter.update(0, 4, "")
    reporter.note_pruned(10)
    assert "100.0%" in reporter.render()


def test_eta_line_vanishes_once_pruned_plus_done_cover_total():
    reporter, clock, _ = _reporter()
    reporter.update(0, 10, "")
    clock.now = 1.0
    reporter.update(5, 10, "")
    assert "eta" in reporter.render()
    reporter.note_pruned(5)
    assert "eta" not in reporter.render()


def test_live_block_appends_when_not_a_tty():
    from repro.obs.progress import LiveBlock

    stream = io.StringIO()  # no isatty → not a terminal
    block = LiveBlock(stream=stream)
    block.emit("a\nb")
    block.emit("c\nd")
    # Both frames stay in the scrollback, no ANSI control codes.
    assert stream.getvalue() == "a\nb\nc\nd\n"
    assert "\x1b" not in stream.getvalue()


def test_live_block_overwrites_on_a_tty():
    from repro.obs.progress import LiveBlock

    class Tty(io.StringIO):
        def isatty(self):
            return True

    stream = Tty()
    block = LiveBlock(stream=stream)
    block.emit("one\ntwo\nthree")
    block.emit("four")
    # The second frame climbs over the 3-line block and erases below.
    assert "\x1b[3F\x1b[J" in stream.getvalue()
    block.finish()
    block.emit("five")
    # After finish() the next emit starts a fresh block: no cursor-up.
    assert stream.getvalue().endswith("four\nfive\n")
    assert stream.getvalue().count("\x1b[J") == 1
