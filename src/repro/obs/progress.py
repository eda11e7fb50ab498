"""Live terminal progress for long scans: rate and ETA.

A :class:`ProgressReporter` is a sink for ``(done, total)`` updates from
a scan driver (:mod:`repro.core.search` invokes its ``on_progress``
callback as units settle — α rows of the pair grid for a dominance
search, cells for a Theorem-13 scan; a fabric worker reports its
cells).  It renders a single self-overwriting
status line (carriage return, no scrollback spam)::

    scan 7/45 20.0% | 3.2/s | eta 11.2s | pruned 2

Properties:

* **Rate-limited.**  At most one line per ``min_interval`` seconds
  (final updates always render), so tight loops do not flood a slow
  terminal.
* **Prune-aware.**  Units resolved without work — symmetric or carried
  cells in a fabric plan, instantly-replayed journal entries — are
  reported via :meth:`~ProgressReporter.note_pruned`: they count toward
  percent-complete and shrink the ETA's remaining-work term, but never
  enter the rate, so an incremental fabric run shows the throughput of
  its *genuine* scanning instead of a wildly optimistic blur.
* **Deterministic under test.**  The clock is injectable and rendering
  is a pure function of reported state.

:class:`LiveBlock` is the multi-line sibling used by ``repro top``: a
self-overwriting block of N lines redrawn in place with ANSI cursor
movement.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


class ProgressReporter:
    """Renders scan progress as a single live status line.

    ``update(done, total, proc)`` is shaped to match the scan drivers'
    ``on_progress`` callback, so a reporter can be passed as
    ``on_progress=reporter.update``; ``proc`` is accepted and ignored.
    Every driver reports ``done == 0`` first, so the rate is ``done``
    over the time since that first report.
    """

    def __init__(
        self,
        label: str = "scan",
        stream: Optional[TextIO] = None,
        min_interval: float = 0.1,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._clock = clock
        self._start: Optional[float] = None
        self.done = 0
        self.total = 0
        self.pruned = 0
        self._last_emit: Optional[float] = None
        self._last_line_width = 0
        self.updates = 0

    def update(self, done: int, total: int, proc: str = "") -> None:
        """Report absolute progress; renders unless rate-limited."""
        now = self._clock()
        if self._start is None:
            self._start = now
        self.done = done
        self.total = total
        self.updates += 1
        final = total > 0 and done >= total
        if (
            not final
            and self._last_emit is not None
            and now - self._last_emit < self.min_interval
        ):
            return
        self._last_emit = now
        self._emit(self.render(now))

    def note_pruned(self, count: int = 1) -> None:
        """Report ``count`` units resolved without genuine scan work.

        Pruned units advance percent-complete and shrink the ETA but are
        excluded from the rate — they took no scanning time, so letting
        them into the throughput would understate how long the real
        remaining work takes.
        """
        self.pruned += count

    def rate(self, now: Optional[float] = None) -> Optional[float]:
        """Units per second completed this run (None before any progress)."""
        if self._start is None:
            return None
        elapsed = (now if now is not None else self._clock()) - self._start
        if elapsed <= 0 or self.done <= 0:
            return None
        return self.done / elapsed

    def eta(self, now: Optional[float] = None) -> Optional[float]:
        """Estimated seconds to completion (None while rate is unknown)."""
        rate = self.rate(now)
        if rate is None:
            return None
        return max(0, self.total - self.done - self.pruned) / rate

    def render(self, now: Optional[float] = None) -> str:
        """The current status line (no trailing newline)."""
        parts = [f"{self.label} {self.done}/{self.total}"]
        if self.total:
            covered = min(self.total, self.done + self.pruned)
            parts[0] += f" {100.0 * covered / self.total:.1f}%"
        rate = self.rate(now)
        if rate is not None:
            parts.append(f"{rate:.1f}/s")
        eta = self.eta(now)
        if eta is not None and self.done + self.pruned < self.total:
            parts.append(f"eta {_format_eta(eta)}")
        if self.pruned:
            parts.append(f"pruned {self.pruned}")
        return " | ".join(parts)

    def _emit(self, line: str) -> None:
        # Pad with spaces so a shorter line fully overwrites a longer one.
        padding = " " * max(0, self._last_line_width - len(line))
        self._last_line_width = len(line)
        self.stream.write("\r" + line + padding)
        self.stream.flush()

    def finish(self) -> None:
        """Render the final state and terminate the live line."""
        if self._start is not None:
            self._emit(self.render())
            self.stream.write("\n")
            self.stream.flush()


class LiveBlock:
    """A self-overwriting multi-line terminal block (``repro top``).

    Each :meth:`emit` moves the cursor back up over the previous block
    (ANSI ``CUU`` + erase-below) and redraws, so a refreshing N-line
    display stays put instead of scrolling.  When the stream is not a
    terminal (piped output, CI logs), blocks are simply appended —
    every frame stays in the scrollback, which is what a log wants.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._last_lines = 0
        self._ansi = bool(getattr(self.stream, "isatty", lambda: False)())

    def emit(self, text: str) -> None:
        """Replace the previously emitted block with ``text``."""
        if self._ansi and self._last_lines:
            # Cursor up over the old block, then erase to end of screen.
            self.stream.write(f"\x1b[{self._last_lines}F\x1b[J")
        self.stream.write(text.rstrip("\n") + "\n")
        self.stream.flush()
        self._last_lines = text.rstrip("\n").count("\n") + 1

    def finish(self) -> None:
        """Leave the final block in place (no-op beyond bookkeeping)."""
        self._last_lines = 0
