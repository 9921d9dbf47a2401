"""Framing of the exec wire protocol: boring on purpose, pinned here."""

import json

import pytest

from repro.exec import protocol


class TestEncode:
    def test_round_trip(self):
        message = {"type": "dispatch", "job_id": "j1", "size_mb": 2.5}
        assert protocol.decode(protocol.encode(message)) == message

    def test_one_line_newline_terminated_sorted_keys(self):
        line = protocol.encode({"type": "x", "b": 1, "a": 2})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert line == b'{"a":2,"b":1,"type":"x"}\n'

    def test_type_field_is_mandatory(self):
        with pytest.raises(protocol.ProtocolError, match="without a type"):
            protocol.encode({"job_id": "j1"})

    def test_oversized_message_refused(self):
        with pytest.raises(protocol.ProtocolError, match="MAX_LINE"):
            protocol.encode({"type": "x", "blob": "a" * protocol.MAX_LINE})


class TestDecode:
    def test_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError, match="undecodable"):
            protocol.decode(b"{nope\n")

    def test_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError, match="without a type"):
            protocol.decode(b"[1,2,3]\n")

    def test_rejects_missing_type(self):
        with pytest.raises(protocol.ProtocolError, match="without a type"):
            protocol.decode(b'{"a":1}\n')

    def test_rejects_oversized_line(self):
        fat = b'{"type":"x","b":"' + b"a" * protocol.MAX_LINE + b'"}\n'
        with pytest.raises(protocol.ProtocolError, match="MAX_LINE"):
            protocol.decode(fat)


class TestRecv:
    """Reading a peer's stream: one :class:`LineParser` per connection."""

    def _recv_from(self, *reads: bytes):
        parser = protocol.LineParser()
        messages = [message for data in reads for message in parser.feed(data)]
        return messages[0] if messages else None

    def test_reads_one_message(self):
        assert self._recv_from(b'{"type":"heartbeat"}\n') == {"type": "heartbeat"}

    def test_eof_returns_none(self):
        assert self._recv_from(b"") is None

    def test_unterminated_tail_is_not_a_message_yet(self):
        assert self._recv_from(b'{"type":"heartbeat"}') is None


class TestLineParser:
    def test_line_split_across_two_reads(self):
        parser = protocol.LineParser()
        assert parser.feed(b'{"type":"done","jo') == []
        assert parser.feed(b'b_id":"j1"}\n') == [{"type": "done", "job_id": "j1"}]

    def test_several_lines_in_one_read(self):
        parser = protocol.LineParser()
        data = b'{"type":"heartbeat"}\n{"type":"done","job_id":"j1"}\n{"type":"do'
        assert parser.feed(data) == [
            {"type": "heartbeat"},
            {"type": "done", "job_id": "j1"},
        ]
        assert parser.feed(b'ne","job_id":"j2"}\n') == [{"type": "done", "job_id": "j2"}]

    def test_serves_lines_past_64_kib_up_to_max_line(self):
        parser = protocol.LineParser()
        message = {"type": "stats", "pad": "a" * (protocol.MAX_LINE - 40)}
        line = protocol.encode(message)
        assert len(line) > 1 << 16
        chunk = 1 << 16
        reads = [line[i : i + chunk] for i in range(0, len(line), chunk)]
        got = [m for data in reads for m in parser.feed(data)]
        assert got == [message]

    def test_unterminated_tail_past_max_line_is_cut(self):
        parser = protocol.LineParser()
        parser.feed(b'{"type":"x","b":"' + b"a" * (protocol.MAX_LINE // 2))
        with pytest.raises(protocol.ProtocolError, match="MAX_LINE"):
            parser.feed(b"a" * (protocol.MAX_LINE // 2))

    def test_terminated_line_past_max_line_is_cut(self):
        fat = b'{"type":"x","b":"' + b"a" * protocol.MAX_LINE + b'"}\n'
        with pytest.raises(protocol.ProtocolError, match="MAX_LINE"):
            protocol.LineParser().feed(fat)


class TestWireBytes:
    """The shared encoder writes what ``json.dumps`` wrote, byte for byte."""

    MESSAGES = [
        {"type": protocol.HELLO, "role": protocol.ROLE_WORKER, "name": "w0001"},
        {"type": protocol.HELLO, "role": protocol.ROLE_CONTROL},
        {"type": protocol.HEARTBEAT, "name": "w0001"},
        {
            "type": protocol.DISPATCH,
            "job_id": "j-17",
            "repo_id": None,
            "size_mb": 762.0,
            "base_compute_s": 0.1,
            "handler": "checksum",
        },
        {
            "type": protocol.DONE,
            "name": "w0001",
            "job_id": "j-17",
            "cache_hit": False,
            "fetched_mb": 12.345678901234567,
            "exec_s": 8.1e-05,
            "result": "ab" * 32,
        },
        {"type": protocol.SHUTDOWN},
        {"type": protocol.STATS, "pad": "é✓"},
        {"type": protocol.DRAIN, "worker": "a"},
        {"type": protocol.REBIND, "job_id": "a2", "worker": "b"},
        {"type": protocol.KILL, "worker": "b"},
        {"type": protocol.OK, "moved": [["a1", "b"]], "stats": {"workers": {"b": {"alive": True}}}},
        {"type": protocol.ERROR, "detail": "unknown worker 'ghost'"},
    ]

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m["type"])
    def test_encode_is_json_dumps(self, message):
        expected = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
        assert protocol.encode(message) == expected + b"\n"
        assert protocol.decode(protocol.encode(message)) == message
