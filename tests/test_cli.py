"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main

PROGRAM = """
session w { transaction { write(x, 2); write(y, 2); } }
session r { transaction { a := read(x); b := read(y); } }
"""


def _trace_with_event_type(kind):
    """A header plus one event whose ``"type"`` is ``kind``."""
    header = {"type": "header", "format": "repro-trace", "version": 1, "variables": ["x"]}
    event = {"type": kind, "session": "s", "txn": 0}
    return json.dumps(header) + "\n" + json.dumps(event) + "\n"


def _trace_with_negative_index(field):
    """A header, ``begin s0/0``, then an event with index -1 in ``field``:
    a write of ``t(s0,-1)``, or a read from it."""
    header = {"type": "header", "format": "repro-trace", "version": 1, "variables": ["x"]}
    begin = {"type": "begin", "session": "s0", "txn": 0}
    if field == "txn":
        event = {"type": "write", "session": "s0", "txn": -1, "var": "x", "value": 1}
    else:
        event = {"type": "read", "session": "s0", "txn": 0, "var": "x", "value": 0,
                 "from": ["s0", -1]}
    return "".join(json.dumps(obj) + "\n" for obj in (header, begin, event))


def _trace_with_repeated_commit():
    """A header and four events, the fourth (event #3) committing ``s0/0``
    a second time."""
    header = {"type": "header", "format": "repro-trace", "version": 1, "variables": ["x"]}
    events = [
        {"type": "begin", "session": "s0", "txn": 0},
        {"type": "write", "session": "s0", "txn": 0, "var": "x", "value": 1},
        {"type": "commit", "session": "s0", "txn": 0},
        {"type": "commit", "session": "s0", "txn": 0},
    ]
    return "".join(json.dumps(obj) + "\n" for obj in (header, *events))


REPEATED_COMMIT = "event #3: event for already-complete transaction t(s0,0)"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "demo.txn"
    path.write_text(PROGRAM)
    return str(path)


class TestCheck:
    def test_counts_and_stats(self, program_file, capsys):
        code = main(["check", program_file, "--isolation", "RC"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 histories" in out
        assert "explore calls" in out

    def test_show_histories(self, program_file, capsys):
        main(["check", program_file, "--isolation", "CC", "--show-histories"])
        out = capsys.readouterr().out
        assert out.count("history #") == 2
        assert "read(x)" in out

    def test_dfs_method(self, program_file, capsys):
        main(["check", program_file, "--isolation", "CC", "--method", "dfs"])
        assert "DFS(CC)" in capsys.readouterr().out

    def test_dot_export(self, program_file, tmp_path, capsys):
        prefix = str(tmp_path / "h")
        main(["check", program_file, "--isolation", "SER", "--dot", prefix])
        assert (tmp_path / "h-0.dot").exists()
        assert (tmp_path / "h-1.dot").exists()
        assert "digraph history" in (tmp_path / "h-0.dot").read_text()

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "/does/not/exist.txn"])

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.txn"
        bad.write_text("session { }")
        with pytest.raises(SystemExit):
            main(["check", str(bad)])

    def test_unknown_level_is_an_error(self, program_file):
        with pytest.raises(SystemExit) as exc:
            main(["check", program_file, "--isolation", "BOGUS"])
        assert str(exc.value).startswith("error: unknown isolation level 'BOGUS'; known: [")


class TestCompare:
    def test_ladder_output(self, program_file, capsys):
        code = main(["compare", program_file])
        out = capsys.readouterr().out
        assert code == 0
        for level in ("RC", "RA", "CC", "SI", "SER"):
            assert level in out
        assert "anomalies" in out


class TestLevels:
    def test_search_levels_are_marked(self, capsys):
        """``(+search)`` marks exactly the levels decided by a search."""
        code = main(["levels"])
        out = capsys.readouterr().out
        assert code == 0
        table = out.split("\n\n")[1].splitlines()[2:]  # below the header and its rule
        rows = {line.split()[1]: line for line in table}
        assert len(rows) == 14
        marked = {name for name, line in rows.items() if "(+search)" in line}
        assert marked == {"BS-3", "PSI", "PC", "SI", "SER"}
        assert "(+search)" not in rows["CC"]


class TestBench:
    def test_tiny_bench_run(self, capsys):
        code = main(["bench", "--sessions", "2", "--txns", "1", "--programs", "1", "--timeout", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("cactus[") == 3
        assert "DFS(CC)" in out


class TestBenchDiff:
    @staticmethod
    def _write(path, cases):
        path.write_text(json.dumps({"schema": "repro-bench-v1", "cases": cases}))

    def test_file_pair_speedups_and_exit_zero(self, tmp_path, capsys):
        base, curr = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
        self._write(base, [{"name": "c1", "seconds": 2.0}, {"name": "c2", "seconds": 1.0}])
        self._write(curr, [{"name": "c1", "seconds": 1.0}, {"name": "c2", "seconds": 1.0}])
        code = main(["bench", "diff", str(base), str(curr)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2.00x" in out and "geomean speedup 1.41x" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        base, curr = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
        self._write(base, [{"name": "c1", "seconds": 1.0}])
        self._write(curr, [{"name": "c1", "seconds": 2.0}])
        code = main(["bench", "diff", str(base), str(curr)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out and "1 case(s) regressed" in out

    def test_threshold_overrides_regression(self, tmp_path, capsys):
        base, curr = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
        self._write(base, [{"name": "c1", "seconds": 1.0}])
        self._write(curr, [{"name": "c1", "seconds": 2.0}])
        assert main(["bench", "diff", str(base), str(curr), "--threshold", "0.4"]) == 0
        capsys.readouterr()

    def test_directory_pair_matches_by_name(self, tmp_path, capsys):
        b_dir, c_dir = tmp_path / "base", tmp_path / "curr"
        b_dir.mkdir(), c_dir.mkdir()
        self._write(b_dir / "BENCH_x.json", [{"name": "c", "seconds": 3.0}])
        self._write(c_dir / "BENCH_x.json", [{"name": "c", "seconds": 1.0}])
        self._write(b_dir / "BENCH_only_base.json", [{"name": "c", "seconds": 1.0}])
        code = main(["bench", "diff", str(b_dir), str(c_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "BENCH_x" in out and "3.00x" in out
        assert "only_base" not in out

    def test_timeouts_are_skipped(self, tmp_path, capsys):
        base, curr = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
        self._write(base, [{"name": "c1", "seconds": 30.0, "timed_out": True}])
        self._write(curr, [{"name": "c1", "seconds": 0.1}])
        code = main(["bench", "diff", str(base), str(curr)])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped (timeout" in out

    def test_bad_file_is_an_error(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{}")
        good = tmp_path / "BENCH_good.json"
        self._write(good, [])
        with pytest.raises(SystemExit):
            main(["bench", "diff", str(bad), str(good)])


class TestRecordReplay:
    def test_record_then_replay_round_trips(self, program_file, tmp_path, capsys):
        """Acceptance: `repro replay` round-trips a trace from `repro record`."""
        path = str(tmp_path / "run.trace.jsonl")
        assert main(["record", program_file, "--isolation", "CC", "--out", path]) == 0
        assert "wrote" in capsys.readouterr().out

        from repro.trace import Trace

        trace = Trace.load(path)
        assert trace.header.meta["isolation"] == "CC"
        assert len(trace) > 0

        assert main(["replay", path]) == 0
        out = capsys.readouterr().out
        for level in ("RC", "RA", "CC", "SI", "SER"):
            assert level in out
        assert "VIOLATION" not in out

    def test_record_to_stdout(self, program_file, capsys):
        assert main(["record", program_file, "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith('{"format": "repro-trace"')

    def test_record_index_selects_distinct_histories(self, program_file, tmp_path, capsys):
        first = str(tmp_path / "h0.jsonl")
        second = str(tmp_path / "h1.jsonl")
        main(["record", program_file, "--isolation", "RC", "--index", "0", "--out", first])
        main(["record", program_file, "--isolation", "RC", "--index", "1", "--out", second])
        capsys.readouterr()
        from repro.trace import Trace

        k0 = Trace.load(first).to_history().canonical_key()
        k1 = Trace.load(second).to_history().canonical_key()
        assert k0 != k1

    def test_record_unknown_level_is_an_error(self, program_file):
        with pytest.raises(SystemExit) as exc:
            main(["record", program_file, "--isolation", "BOGUS", "--out", "-"])
        assert str(exc.value).startswith("error: unknown isolation level 'BOGUS'; known: [")

    def test_record_index_out_of_range(self, program_file, capsys):
        with pytest.raises(SystemExit):
            main(["record", program_file, "--isolation", "SER", "--index", "99", "--out", "-"])

    def test_record_requires_exactly_one_source(self, program_file):
        with pytest.raises(SystemExit):
            main(["record", "--out", "-"])
        with pytest.raises(SystemExit):
            main(["record", program_file, "--app", "twitter", "--out", "-"])

    def test_record_app_workload(self, tmp_path, capsys):
        path = str(tmp_path / "app.trace.jsonl")
        code = main(["record", "--app", "shoppingCart", "--sessions", "2", "--txns", "1",
                     "--isolation", "CC", "--out", path])
        assert code == 0
        capsys.readouterr()
        assert main(["replay", path, "--isolation", "CC"]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_replay_online_reports_first_violation(self, tmp_path, capsys):
        from repro.trace import gadget_traces

        path = str(tmp_path / "cc.trace.jsonl")
        gadget_traces()["cc_violation"].dump(path)
        code = main(["replay", path, "--online"])
        out = capsys.readouterr().out
        assert code == 1, "a violated level must set the exit code"
        assert "first observed at event #" in out
        assert "RC  : consistent" in out

    def test_replay_single_level_exit_codes(self, tmp_path, capsys):
        from repro.trace import gadget_traces

        path = str(tmp_path / "skew.trace.jsonl")
        gadget_traces()["ser_violation"].dump(path)
        assert main(["replay", path, "--isolation", "SI"]) == 0
        assert main(["replay", path, "--isolation", "SER"]) == 1
        assert main(["replay", path, "--isolation", "serializable"]) == 1
        capsys.readouterr()

    def test_replay_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["replay", str(bad)])
        with pytest.raises(SystemExit):
            main(["replay", str(tmp_path / "missing.jsonl")])

    def test_replay_rejects_bad_event_order_cleanly(self, tmp_path):
        """Valid JSON whose events violate the order rules must exit via a
        clean error on both the batch and online paths, not a traceback."""
        bad = tmp_path / "order.jsonl"
        bad.write_text(
            json.dumps({"type": "header", "format": "repro-trace", "version": 1,
                        "variables": ["x"]})
            + "\n"
            + json.dumps({"type": "write", "session": "s", "txn": 0,
                          "var": "x", "value": 1})
            + "\n"
        )
        with pytest.raises(SystemExit, match="missing begin"):
            main(["replay", str(bad)])
        with pytest.raises(SystemExit, match="missing begin"):
            main(["replay", str(bad), "--online"])

    @pytest.mark.parametrize("kind", ["bogus", {}, []])
    def test_replay_rejects_unknown_event_types_cleanly(self, tmp_path, kind):
        """A JSON object or array as the event type fails like an unknown
        name does, on both the batch and online paths."""
        bad = tmp_path / "type.jsonl"
        bad.write_text(_trace_with_event_type(kind))
        for extra in ([], ["--online"]):
            with pytest.raises(SystemExit) as exc:
                main(["replay", str(bad), *extra])
            assert exc.value.code == f"error: {bad}: line 2: unknown event type {kind!r}"

    def test_replay_names_the_rejected_event(self, tmp_path):
        """An event-order error names its event on the batch and the online
        path alike."""
        bad = tmp_path / "commit.jsonl"
        bad.write_text(_trace_with_repeated_commit())
        for extra in ([], ["--online"]):
            with pytest.raises(SystemExit) as exc:
                main(["replay", str(bad), *extra])
            assert exc.value.code == f"error: {bad}: {REPEATED_COMMIT}"

    @pytest.mark.parametrize("field", ["txn", "from"])
    def test_replay_rejects_negative_indices_at_decode(self, tmp_path, field):
        """A negative index is a format error on its line, on both paths,
        not an event for an "evicted" transaction."""
        bad = tmp_path / "negative.jsonl"
        bad.write_text(_trace_with_negative_index(field))
        for extra in ([], ["--online"]):
            with pytest.raises(SystemExit) as exc:
                main(["replay", str(bad), *extra])
            assert exc.value.code.startswith(f"error: {bad}: line 3: ")
            assert ">= 0" in exc.value.code and "evicted" not in exc.value.code

    def test_replay_online_supports_every_registered_level(self, tmp_path):
        """The registry made every level online-checkable — TRUE included."""
        from repro.trace import gadget_traces

        path = str(tmp_path / "t.jsonl")
        gadget_traces()["lost_update"].dump(path)
        assert main(["replay", path, "--isolation", "TRUE"]) == 0  # batch ok
        assert main(["replay", path, "--isolation", "TRUE", "--online"]) == 0
        # lost_update violates PSI (and SI): detection is exit code 1.
        assert main(["replay", path, "--isolation", "PSI", "--online"]) == 1
        # write skew satisfies everything below SER, online included.
        skew = str(tmp_path / "skew.jsonl")
        gadget_traces()["ser_violation"].dump(skew)
        for level in ("SESSION", "PSI", "PC", "BS-3"):
            assert main(["replay", skew, "--isolation", level, "--online"]) == 0

    def test_replay_unknown_level(self, tmp_path, capsys):
        from repro.trace import gadget_traces

        path = str(tmp_path / "t.jsonl")
        gadget_traces()["lost_update"].dump(path)
        with pytest.raises(SystemExit):
            main(["replay", path, "--isolation", "BOGUS"])


class TestDifftest:
    def test_honest_config_passes_and_traces_replay_clean(self, tmp_path, capsys):
        """Round trip: difftest run → trace files → replay --online exits 0."""
        out = str(tmp_path / "traces")
        code = main(["difftest", "--config", "serializable", "--app", "hotkeys",
                     "--seeds", "3", "--threads", "2", "--txns", "2", "--out", out])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "upheld their claimed isolation levels" in stdout
        assert "LYING" not in stdout
        traces = sorted((tmp_path / "traces").glob("*.trace.jsonl"))
        assert len(traces) == 3
        for path in traces:
            assert main(["replay", str(path), "--online"]) == 0
        capsys.readouterr()

    def test_seeded_bug_config_fails_and_a_trace_replays_dirty(self, tmp_path, capsys):
        """A bugged config must exit 1, and at least one recorded trace must
        independently fail `repro replay --online` at the claimed level."""
        out = str(tmp_path / "traces")
        code = main(["difftest", "--config", "first_committer_loses",
                     "--app", "demo:first_committer_loses",
                     "--seeds", "6", "--threads", "2", "--txns", "1", "--out", out])
        stdout = capsys.readouterr().out
        assert code == 1
        assert "LYING" in stdout
        assert "first SI violation" in stdout
        replay_codes = set()
        for path in sorted((tmp_path / "traces").glob("*.trace.jsonl")):
            replay_codes.add(main(["replay", str(path), "--isolation", "SI", "--online"]))
        capsys.readouterr()
        assert 1 in replay_codes, "no recorded trace reproduces the violation"

    def test_single_seed_is_deterministic(self, tmp_path, capsys):
        paths = []
        for attempt in ("a", "b"):
            out = str(tmp_path / attempt)
            assert main(["difftest", "--config", "serializable", "--app", "increments",
                         "--seed", "7", "--out", out]) == 0
            paths.append(next((tmp_path / attempt).glob("*.trace.jsonl")))
        capsys.readouterr()
        assert paths[0].read_text() == paths[1].read_text()

    def test_unknown_config_and_workload_rejected(self, capsys):
        with pytest.raises(SystemExit, match="unknown engine config"):
            main(["difftest", "--config", "eventually-consistent"])
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["difftest", "--config", "serializable", "--app", "nosuch"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{program}", "--workers", "-1"],
            ["bench", "--workers", "-1"],
            ["bench", "--sessions", "0"],
            ["bench", "--txns", "0"],
            ["bench", "--programs", "0"],
            ["difftest", "--seeds", "0"],
            ["difftest", "--threads", "0"],
            ["difftest", "--txns", "0"],
            ["record", "--app", "twitter", "--index", "-1"],
            ["record", "--app", "twitter", "--sessions", "0"],
            ["record", "--app", "twitter", "--txns", "0"],
            ["monitor", "--stdin", "--window", "0"],
            ["monitor", "--stdin", "--gc-every", "0"],
            ["monitor", "--stdin", "--evict-batch", "0"],
            ["monitor", "--stdin", "--stats-every", "-1"],
            ["monitor", "--port", "-1"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_count_below_minimum_is_a_usage_error(self, argv, program_file, capsys):
        argv = [arg.format(program=program_file) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{argv[-2]}: must be >= " in capsys.readouterr().err

    def test_port_above_range_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "--port", "70000"])
        assert exc.value.code == 2
        assert "--port: must be <= 65535, got 70000" in capsys.readouterr().err

    def test_count_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["difftest", "--seeds", "many"])
        assert exc.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err


class TestMonitor:
    """`repro record | repro monitor --stdin` round trips, end to end."""

    def _pipe(self, monkeypatch, text, argv):
        """Feed ``text`` as the monitor's stdin and run the CLI."""
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(text))
        return main(argv)

    @pytest.mark.parametrize("kind", ["bogus", {}, []])
    def test_unknown_event_type_is_a_clean_error(self, monkeypatch, kind):
        with pytest.raises(SystemExit) as exc:
            self._pipe(monkeypatch, _trace_with_event_type(kind),
                       ["monitor", "--stdin", "--isolation", "RC"])
        assert exc.value.code == f"error: line 2: unknown event type {kind!r}"

    @pytest.mark.parametrize("stale", ["keep", "assume-fresh"])
    def test_event_order_error_names_the_event(self, monkeypatch, stale):
        with pytest.raises(SystemExit) as exc:
            self._pipe(monkeypatch, _trace_with_repeated_commit(),
                       ["monitor", "--stdin", "--isolation", "RC", "--stale", stale])
        assert exc.value.code == f"error: {REPEATED_COMMIT}"

    @pytest.mark.parametrize("field", ["txn", "from"])
    @pytest.mark.parametrize("stale", ["keep", "assume-fresh"])
    def test_negative_index_is_a_clean_error(self, monkeypatch, field, stale):
        """A negative index fails at decode in either retention mode, and
        never blames the assume-fresh window."""
        level = "SER" if stale == "keep" else "RC"
        with pytest.raises(SystemExit) as exc:
            self._pipe(monkeypatch, _trace_with_negative_index(field),
                       ["monitor", "--stdin", "--isolation", level, "--stale", stale])
        assert exc.value.code.startswith("error: line 3: ")
        assert ">= 0" in exc.value.code and "window" not in exc.value.code

    def test_honest_workload_is_consistent(self, monkeypatch, capsys):
        """Acceptance: an honest recorded app workload monitors clean."""
        assert main(["record", "--app", "twitter", "--sessions", "2",
                     "--txns", "2", "--seed", "1", "--out", "-"]) == 0
        trace_text = capsys.readouterr().out
        code = self._pipe(
            monkeypatch, trace_text,
            ["monitor", "--stdin", "--isolation", "RC",
             "--window", "1", "--gc-every", "1", "--evict-batch", "1"],
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "RC: consistent" in out

    def test_bugged_engine_trace_is_caught(self, monkeypatch, capsys):
        """A dirty-read trace from the seeded-bug engine exits 1 with the
        violating event named.  Seed 3 deterministically exhibits
        early_release's dirty read on this demo workload."""
        from repro.engine import SEEDED_BUGS, run_program
        from repro.engine.harness import BUG_DEMOS

        run = run_program(
            BUG_DEMOS["early_release"](),
            SEEDED_BUGS["early_release"].config(),
            seed=3,
            name="demo:early_release#s3",
        )
        code = self._pipe(
            monkeypatch, run.trace.dumps(),
            ["monitor", "--stdin", "--isolation", "RC"],
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in out
        assert "first violated at event #" in out

    def test_gadget_over_socket_port(self, monkeypatch, capsys):
        """--port 0 says on stderr which port it bound, serves one
        connection's stream and propagates the verdict."""
        import queue
        import re
        import socket
        import sys as _sys
        import threading
        import time

        from repro.trace import gadget_traces

        payload = gadget_traces()["ser_violation"].dumps()
        written = queue.Queue()

        class _Stderr:
            def write(self, text):
                written.put(text)

            def flush(self):
                pass

        monkeypatch.setattr(_sys, "stderr", _Stderr())
        box = {}

        def _run():
            box["code"] = main(["monitor", "--port", "0", "--isolation", "SER"])

        server = threading.Thread(target=_run, daemon=True)
        server.start()
        deadline = time.monotonic() + 10
        listening = None
        while listening is None:
            try:
                text = written.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                pytest.fail("monitor --port 0 never said where it listens")
            listening = re.fullmatch(r"\[monitor\] listening on 127\.0\.0\.1:(\d+)", text)
        port = int(listening.group(1))
        with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
            conn.sendall(payload.encode("utf-8"))
        server.join(timeout=10)
        assert not server.is_alive()
        out = capsys.readouterr().out
        assert box["code"] == 1
        assert "VIOLATION" in out

    def test_requires_exactly_one_input(self):
        with pytest.raises(SystemExit):
            main(["monitor", "--isolation", "RC"])
        with pytest.raises(SystemExit):
            main(["monitor", "--stdin", "--port", "9", "--isolation", "RC"])

    def test_unknown_level_rejected(self, monkeypatch):
        with pytest.raises(SystemExit):
            self._pipe(monkeypatch, "", ["monitor", "--stdin", "--isolation", "XX"])

    def test_assume_fresh_rejected_off_rc(self, monkeypatch):
        with pytest.raises(SystemExit):
            self._pipe(
                monkeypatch, "",
                ["monitor", "--stdin", "--isolation", "SER", "--stale", "assume-fresh"],
            )

    def test_garbage_stream_rejected(self, monkeypatch):
        with pytest.raises(SystemExit):
            self._pipe(monkeypatch, "not json\n", ["monitor", "--stdin"])

    def test_stats_lines_on_stderr(self, monkeypatch, capsys):
        from repro.trace import gadget_traces

        trace_text = gadget_traces()["rc_violation"].dumps()
        code = self._pipe(
            monkeypatch, trace_text,
            ["monitor", "--stdin", "--isolation", "RC", "--stats-every", "2"],
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "[monitor] events=" in captured.err
