"""Streaming trace input: the one JSONL line reader.

A long-running monitor's input never ends, so this module parses the v1
JSONL format *incrementally* from any iterable of lines (an open file,
``sys.stdin``, a socket makefile): the header is decoded from the first
non-empty line, then events are yielded one at a time with O(1) state.
Malformed lines raise :class:`~repro.trace.format.TraceFormatError` with
the line number.  :meth:`Trace.loads <repro.trace.format.Trace.loads>`
runs the same reader over a whole text.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Tuple

from .format import TraceEvent, TraceFormatError, TraceHeader

__all__ = ["stream_trace", "stream_events"]


def _decode_line(lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise TraceFormatError(f"line {lineno}: invalid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise TraceFormatError(f"line {lineno}: expected a JSON object")
    return obj


def stream_trace(lines: Iterable[str]) -> Tuple[TraceHeader, Iterator[TraceEvent]]:
    """Parse a JSONL trace incrementally: ``(header, lazy event iterator)``.

    The header line is consumed eagerly (so callers can size their checker
    before any event arrives); events are decoded lazily as the returned
    iterator is advanced, never buffering more than the current line.
    Blank lines and ``#`` comments are skipped.
    Raises :class:`TraceFormatError` on a missing header or malformed line.
    """
    iterator = iter(enumerate(lines, start=1))
    for lineno, raw in iterator:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = TraceHeader.from_json_obj(_decode_line(lineno, line))
        return header, stream_events(iterator)
    raise TraceFormatError("empty trace: no header line")


def stream_events(numbered_lines: Iterable[Tuple[int, str]]) -> Iterator[TraceEvent]:
    """Decode ``(lineno, line)`` pairs into events, one at a time."""
    for lineno, raw in numbered_lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        obj = _decode_line(lineno, line)
        try:
            yield TraceEvent.from_json_obj(obj)
        except TraceFormatError as err:
            raise TraceFormatError(f"line {lineno}: {err}") from None
