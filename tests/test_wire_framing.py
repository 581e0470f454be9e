"""The length-prefixed frame protocol of :mod:`repro.core.wire`.

One frame = a fixed header (magic, version, tag, payload length) plus a
single pickle of an already-wire-encoded payload.  The coordinator and the
workers trust each other's frames only after full validation: every
malformation — truncation, wrong magic, unknown version, an oversized
declaration, trailing bytes — must raise :class:`FrameError` *before* the
payload reaches ``pickle``.
"""

import random

import pytest

from repro.core.wire import (
    FRAME_VERSION,
    MAX_FRAME_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
    encode_items,
)
from repro.dpor import StepEngine
from repro.dpor.stats import ExplorationStats
from repro.isolation import get_level

from tests.helpers import figd1_program


def frontier_items(limit=12):
    """A real exploration frontier to round-trip (mixed depths, wr edges)."""
    engine = StepEngine(figd1_program(), get_level("CC"))
    stats = ExplorationStats()
    stack = [engine.initial_item()]
    while stack and len(stack) < limit:
        kind, oh = stack.pop()
        pushed, _outputs = engine.step(oh, kind, stats)
        stack.extend(pushed)
    return stack


class TestFrameRoundTrip:
    @pytest.mark.parametrize("tag", [0, 1, 7, 255])
    def test_tag_and_payload_survive(self, tag):
        payload = ("meta", (1, 2.5, None), ["nested", (3,)])
        got_tag, got_payload = decode_frame(encode_frame(tag, payload))
        assert got_tag == tag
        assert got_payload == payload

    def test_empty_payload(self):
        assert decode_frame(encode_frame(0, ())) == (0, ())

    def test_tag_must_fit_one_byte(self):
        with pytest.raises(FrameError, match="tag"):
            encode_frame(256, ())
        with pytest.raises(FrameError, match="tag"):
            encode_frame(-1, ())


class TestFrameRejection:
    def test_truncated_header(self):
        frame = encode_frame(1, ("payload",))
        for cut in range(_header_size()):
            with pytest.raises(FrameError, match="truncated"):
                decode_frame(frame[:cut])

    def test_truncated_body(self):
        frame = encode_frame(1, ("payload",))
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(frame[:-1])

    def test_trailing_garbage(self):
        frame = encode_frame(1, ("payload",))
        with pytest.raises(FrameError, match="trailing garbage"):
            decode_frame(frame + b"\x00")

    def test_bad_magic(self):
        frame = bytearray(encode_frame(1, ()))
        frame[0:2] = b"XX"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(encode_frame(1, ()))
        frame[2] = FRAME_VERSION + 1
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(frame))

    def test_oversized_declaration_rejected_before_unpickling(self):
        # A frame whose header *declares* more than the limit is rejected
        # on the declaration alone — the body is never pickled.
        frame = bytearray(encode_frame(1, ()))
        frame[4:8] = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(FrameError, match="exceeds limit"):
            decode_frame(bytes(frame))

    def test_oversized_payload_rejected_at_encode(self):
        with pytest.raises(FrameError, match="exceeds limit"):
            encode_frame(1, b"x" * 64, max_bytes=32)

    def test_fuzzed_corruption_never_escapes_frame_error(self):
        # Random single-byte corruption of a frame carrying real work items
        # either still decodes (payload bytes the pickle tolerates) or
        # raises FrameError/pickle errors — never returns a half-validated
        # frame.
        rng = random.Random(9)
        frame = encode_frame(1, ((0,), encode_items(frontier_items())))
        for _ in range(64):
            pos = rng.randrange(8)  # header bytes: must always be caught
            mutated = bytearray(frame)
            mutated[pos] ^= 1 << rng.randrange(8)
            if bytes(mutated) == frame:
                continue
            try:
                decode_frame(bytes(mutated))
            except FrameError:
                continue
            except Exception as err:  # pragma: no cover - depends on bit hit
                pytest.fail(f"header corruption leaked a {type(err).__name__}: {err}")


def _header_size():
    from repro.core.wire import _FRAME_HEADER

    return _FRAME_HEADER.size
