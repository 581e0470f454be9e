"""The monitor service loop: JSONL in, stats lines and a verdict out.

:func:`monitor_stream` wires a line iterable (stdin, a file, a socket
makefile) through the streaming reader (:func:`repro.trace.stream
.stream_trace`) into a :class:`~repro.monitor.core.Monitor`, emitting a
one-line stats report every ``stats_every`` events::

    [monitor] events=200000 ev/s=112903 live=41 evicted=24310 violations=0

:func:`serve` binds a TCP port and monitors one connection's stream to
EOF — the long-running-service entry point behind ``repro monitor
--port``.  Both return the :class:`~repro.monitor.core.MonitorReport`
whose ``exit_code`` the CLI propagates (0 clean, 1 violated).
"""

from __future__ import annotations

import socket
import sys
import time
from typing import Callable, Iterable, Optional

from ..trace.format import TraceFormatError
from ..trace.stream import stream_trace
from .core import Monitor, MonitorConfig, MonitorReport


def _stats_line(monitor: Monitor, events: int, elapsed: float) -> str:
    stats = monitor.stats()
    rate = events / elapsed if elapsed > 0 else 0.0
    return (
        f"[monitor] events={events} ev/s={rate:.0f} live={stats.live} "
        f"evicted={stats.evicted} violations={int(stats.violated)}"
    )


def monitor_stream(
    lines: Iterable[str],
    config: MonitorConfig = MonitorConfig(),
    stats_every: int = 0,
    emit: Optional[Callable[[str], None]] = None,
) -> MonitorReport:
    """Monitor one JSONL trace stream to EOF; returns the final report.

    ``stats_every = N`` emits a stats line every N events via ``emit``
    (default: stderr).  An event the monitor rejects raises its
    :class:`~repro.trace.format.TraceFormatError`, of the same type,
    prefixed with ``event #N:``.
    """
    if emit is None:
        emit = lambda line: print(line, file=sys.stderr, flush=True)
    header, events = stream_trace(lines)
    monitor = Monitor(header, config)
    started = time.perf_counter()
    count = 0
    for event in events:
        try:
            monitor.feed(event)
        except TraceFormatError as err:
            raise type(err)(f"event #{count}: {err}") from None
        count += 1
        if stats_every and count % stats_every == 0:
            emit(_stats_line(monitor, count, time.perf_counter() - started))
    report = monitor.report()
    if stats_every:
        emit(_stats_line(monitor, count, time.perf_counter() - started))
    return report


def serve(
    port: int,
    config: MonitorConfig = MonitorConfig(),
    host: str = "127.0.0.1",
    stats_every: int = 0,
    emit: Optional[Callable[[str], None]] = None,
    ready: Optional[Callable[[int], None]] = None,
) -> MonitorReport:
    """Listen on ``host:port``, monitor one connection's stream to EOF.

    ``port=0`` binds an ephemeral port; ``ready`` (if given) receives the
    bound port once the socket is listening — how tests and supervisors
    learn where to connect.  The connection's bytes are decoded as UTF-8
    JSONL exactly like a file; the report is returned when the peer
    closes its end.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(1)
        if ready is not None:
            ready(server.getsockname()[1])
        conn, _ = server.accept()
        with conn, conn.makefile("r", encoding="utf-8") as lines:
            return monitor_stream(lines, config, stats_every=stats_every, emit=emit)
