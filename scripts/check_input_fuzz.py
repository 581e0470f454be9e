#!/usr/bin/env python
"""Seeded mutation fuzzing of the input surfaces: typed errors or a run.

Two surfaces read text a user hands in:

* **trace JSONL** (``repro replay``, ``repro monitor --stdin``): a
  60-event ``fuzz_stream`` trace is mutated line by line (drop, duplicate
  or swap lines) and field by field (delete a field, null it, or retype
  it, including negative and very large integers), two mutations per
  input.  Each input must either decode and run through
  ``OnlineChecker.replay`` and a keep-mode ``Monitor`` fed from the
  streaming line reader, or fail with ``TraceFormatError``.  When both
  run, the monitor's verdict must equal the checker's (keep mode is
  exact).
* **program text** (``repro check``): a few programs in the paper's syntax
  are mutated character by character (delete, duplicate, replace, swap).
  Each input must either parse or fail with ``ParseError``.

Any other exception, a monitor that blames its assume-fresh window in
keep mode, or an input that takes longer than the per-input bound fails
the run.  Standalone on purpose (stdlib + src only, no pytest), like
``check_generator_fuzz.py``:

    PYTHONPATH=src python scripts/check_input_fuzz.py [--seed N] [--inputs N]

Exit code 0 iff every input behaved.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.checking.online import DEFAULT_LEVELS, OnlineChecker  # noqa: E402
from repro.lang import ParseError, parse_program  # noqa: E402
from repro.monitor import MonitorConfig, monitor_stream  # noqa: E402
from repro.trace import Trace, TraceFormatError, fuzz_stream  # noqa: E402

#: Events in the trace every trace input is mutated from.
TRACE_EVENTS = 60

#: Wall-clock bound per input, in seconds (a 60-event trace decides in
#: milliseconds; this catches a hang or a blow-up, not a slow box).
INPUT_SECONDS = 5.0

#: Replacement values for a retyped field: every JSON type, plus the
#: integers a decoder must range-check.
RETYPED = ("", "x", "__init__", [], ["s0", 0], ["s0", -1], {}, {"$mystery": 1},
           True, False, 1.5, 0, 1, -1, -(2 ** 31), 2 ** 31, 2 ** 63, 10 ** 30)

#: Programs in the paper's syntax whose text is mutated.
PROGRAMS = (
    """session alice {
  transaction deposit { a := read(acct); write(acct, a + 100); }
}
session bob {
  transaction audit { b := read(acct); if (b < 0) { abort; } else { write(log, b); } }
}""",
    """session s1 { transaction { a := read(x); write(y, 1); } }
session s2 { transaction { b := read(y); write(x, 1); } }""",
    """session c { transaction t1 { n := read(n); if (n >= 2 && n != 5) { write(n, n * 2 - 1); } }
  transaction t2 { m := !(1 <= 2) || 3 == 3; write(n, m); } }""",
)

#: Characters a replaced or inserted character is drawn from: the
#: grammar's punctuation, a digit, a letter, whitespace and a comment.
ALPHABET = "{}();:=,+-*!<>&|/ \n0a_"


def trace_lines(seed: int) -> list:
    header, events = fuzz_stream(seed=seed, events=TRACE_EVENTS, sessions=3, abort_rate=0.15,
                                 stale_read_rate=0.2)
    return Trace(header, events).dumps().splitlines()


def mutate_lines(rng: random.Random, lines: list) -> list:
    """One line- or field-level mutation of a JSONL trace."""
    lines = list(lines)
    if not lines:
        return lines
    kind = rng.choice(("drop", "duplicate", "swap", "field", "field", "field"))
    at = rng.randrange(len(lines))
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), lines[at])
    elif kind == "swap":
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    else:
        try:
            obj = json.loads(lines[at])
        except ValueError:
            return lines
        if not isinstance(obj, dict) or not obj:
            return lines
        key = rng.choice(sorted(obj))
        action = rng.choice(("delete", "null", "retype", "retype"))
        if action == "delete":
            del obj[key]
        elif action == "null":
            obj[key] = None
        else:
            obj[key] = rng.choice(RETYPED)
        lines[at] = json.dumps(obj, sort_keys=True)
    return lines


def mutate_text(rng: random.Random, text: str) -> str:
    """One character-level mutation of a program text."""
    if not text:
        return rng.choice(ALPHABET)
    at = rng.randrange(len(text))
    kind = rng.choice(("delete", "duplicate", "replace", "swap"))
    if kind == "delete":
        return text[:at] + text[at + 1:]
    if kind == "duplicate":
        return text[:at] + text[at] + text[at:]
    if kind == "replace":
        return text[:at] + rng.choice(ALPHABET) + text[at + 1:]
    other = rng.randrange(len(text))
    chars = list(text)
    chars[at], chars[other] = chars[other], chars[at]
    return "".join(chars)


def run_trace(text: str, level: str) -> str:
    """Decode and run one trace input; returns its outcome class."""
    try:
        trace = Trace.loads(text)
    except TraceFormatError:
        return "decode error"
    checker = OnlineChecker.from_trace(trace, levels=DEFAULT_LEVELS)
    try:
        checker.replay(trace)
    except TraceFormatError:
        checker = None
    try:
        report = monitor_stream(text.splitlines(), MonitorConfig(isolation=level))
    except TraceFormatError:
        if checker is not None:
            raise AssertionError("the monitor rejected a trace the checker ran")
        return "event error"
    if checker is None:
        raise AssertionError("the monitor ran a trace the checker rejected")
    if report.ok != checker.verdicts[level]:
        raise AssertionError(
            f"keep-mode monitor says {level} ok={report.ok}, "
            f"the checker says {checker.verdicts[level]}"
        )
    return "ran"


def run_program_text(text: str) -> str:
    try:
        parse_program(text)
    except ParseError:
        return "parse error"
    return "parsed"


def inputs(rng: random.Random, count: int, seed: int):
    """``(surface, index, text)`` for ``count`` inputs per surface, each
    two mutations away from its base."""
    base = trace_lines(seed)
    for i in range(count):
        yield "trace", i, "\n".join(mutate_lines(rng, mutate_lines(rng, base))) + "\n"
    for i in range(count):
        yield "program", i, mutate_text(rng, mutate_text(rng, PROGRAMS[i % len(PROGRAMS)]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs", type=int, default=4000,
                        help="mutated inputs per surface (default 4000)")
    args = parser.parse_args(argv)
    outcomes: dict = {}
    failures = []
    slowest = 0.0
    for surface, i, text in inputs(random.Random(args.seed), args.inputs, args.seed):
        start = time.perf_counter()
        try:
            if surface == "trace":
                outcome = run_trace(text, DEFAULT_LEVELS[i % len(DEFAULT_LEVELS)])
            else:
                outcome = run_program_text(text)
        except Exception as err:  # noqa: BLE001 - every untyped failure is a finding
            outcome = "FAILED"
            failures.append((surface, i, f"{type(err).__name__}: {err}", text))
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        if elapsed > INPUT_SECONDS and outcome != "FAILED":
            failures.append((surface, i, f"took {elapsed:.2f} s", text))
        outcomes[surface, outcome] = outcomes.get((surface, outcome), 0) + 1
    for (surface, outcome), count in sorted(outcomes.items()):
        print(f"{surface:8s} {outcome:12s} {count}")
    print(f"slowest input: {slowest * 1000:.1f} ms (bound {INPUT_SECONDS:.0f} s)")
    for surface, i, what, text in failures[:5]:
        print(f"\nFAILED {surface} input #{i}: {what}\n{text}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} input(s) failed", file=sys.stderr)
        return 1
    print(f"ok: {2 * args.inputs} inputs, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
