"""The serve wire's one HTTP/1.1 reader, ``protocol.read_message``.

The property suite drives the reader over in-memory
``asyncio.StreamReader``s (``feed_data``/``feed_eof``), no sockets: any
byte string ends in parsed messages and then, at most, one typed
:class:`ServeError`, never another exception.  The socket tests pin the
server's replies to framing defects: a typed 431 or 400 and a closed
connection.
"""

from __future__ import annotations

import asyncio
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve.protocol import MAX_BODY_BYTES, MAX_HEADERS, read_message

from .test_serve import make_service, make_train_run

#: asyncio's default stream limit, which bounds a message head.
LIMIT = 1 << 16

SETTINGS = settings(max_examples=150, deadline=None)

#: A chunked request: the reader frames bodies by content-length only.
CHUNKED = (b"POST /predict HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
           b"5\r\nhello\r\n0\r\n\r\n")


def read_all(data: bytes) -> list:
    """Every message *data* frames, then the ServeError that ended it."""

    async def scenario():
        reader = asyncio.StreamReader(limit=LIMIT)
        reader.feed_data(data)
        reader.feed_eof()
        out = []
        while True:
            try:
                message = await read_message(reader)
            except ServeError as exc:
                return out + [exc]
            if message is None:
                return out
            out.append(message)

    return asyncio.run(scenario())


def request(method="POST", target="/predict", headers=(), body=b""):
    head = f"{method} {target} HTTP/1.1\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers
    )
    return head.encode("latin-1") + b"\r\n" + body


tokens = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)
header_values = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0xFF), max_size=40
).filter(lambda value: value == value.strip())
bodies = st.binary(max_size=300)


@st.composite
def messages(draw):
    """A valid request and what read_message must return for it."""
    body = draw(bodies)
    fields = draw(st.dictionaries(
        tokens.filter(lambda name: name != "content-length"),
        header_values, max_size=8,
    ))
    headers = [*fields.items(), ("content-length", str(len(body)))]
    target = "/" + draw(tokens)
    expected = (["POST", target, "HTTP/1.1"], dict(headers), body)
    return request("POST", target, headers, body), expected


class TestReadMessage:
    @SETTINGS
    @given(st.binary(max_size=2000))
    def test_binary_garbage_ends_typed(self, data):
        outcome = read_all(data)
        assert all(isinstance(m, tuple) for m in outcome[:-1])
        if outcome and not isinstance(outcome[-1], tuple):
            assert isinstance(outcome[-1], ServeError)

    @SETTINGS
    @given(messages(), messages())
    def test_two_pipelined_requests_both_parse(self, first, second):
        assert read_all(first[0] + second[0]) == [first[1], second[1]]

    @SETTINGS
    @given(messages(), st.data())
    def test_truncated_message_is_typed(self, message, data):
        raw, _ = message
        cut = data.draw(st.integers(1, len(raw) - 1))
        [error] = read_all(raw[:cut])
        assert isinstance(error, ServeError)
        assert error.reason == "truncated"

    @SETTINGS
    @given(messages(), st.binary(min_size=1, max_size=200))
    def test_garbage_after_a_request_spares_it(self, message, garbage):
        outcome = read_all(message[0] + garbage)
        assert outcome[0] == message[1]
        assert all(isinstance(m, (tuple, ServeError)) for m in outcome)

    @SETTINGS
    @given(st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF),
                   max_size=12))
    def test_content_length_is_digits_only(self, value):
        outcome = read_all(request(headers=[("content-length", value)])
                           + b"x" * 20)
        value = value.strip()
        digits = value.isascii() and value.isdigit()
        if digits and int(value) <= 20:
            assert outcome[0][2] == b"x" * int(value)
        elif digits and int(value) <= MAX_BODY_BYTES:
            assert outcome[-1].reason == "truncated"
        else:
            assert outcome[-1].reason == "bad-http"

    @pytest.mark.parametrize("value", [
        "-1", "+10", "1_0", "1 0", "0x10", "1e1", "²", "", "4194305",
        "9" * 5000,
    ])
    def test_bad_content_length_is_typed_400(self, value):
        [error] = read_all(request(headers=[("content-length", value)]))
        assert (error.code, error.reason) == (400, "bad-http")

    def test_repeated_content_length(self):
        same = [("content-length", "2"), ("Content-Length", "2")]
        [(_, headers, body)] = read_all(request(headers=same, body=b"{}"))
        assert headers["content-length"] == "2" and body == b"{}"
        differ = [("content-length", "2"), ("content-length", "3")]
        [error] = read_all(request(headers=differ, body=b"{}x"))
        assert (error.code, error.reason) == (400, "bad-http")

    def test_transfer_encoding_is_refused_before_the_body(self):
        """A chunked body is never read as 0 bytes with its chunk lines
        left over as the next request."""
        [error] = read_all(CHUNKED)
        assert (error.code, error.reason) == (400, "bad-http")
        both = [("content-length", "2"), ("transfer-encoding", "identity")]
        [error] = read_all(request(headers=both, body=b"{}"))
        assert (error.code, error.reason) == (400, "bad-http")

    def test_zero_padded_content_length(self):
        headers = [("content-length", "0" * 40 + "2")]
        [(_, _, body)] = read_all(request(headers=headers, body=b"{}"))
        assert body == b"{}"

    @pytest.mark.parametrize("line", [b"x: " + b"a" * 70_000,
                                      b"a" * 70_000])
    def test_over_long_line_is_typed_431(self, line):
        [error] = read_all(b"GET / HTTP/1.1\r\n" + line + b"\r\n\r\n")
        assert (error.code, error.reason) == (431, "headers-too-large")

    def test_header_count_is_bounded(self):
        headers = [(f"x-{i}", "1") for i in range(MAX_HEADERS)]
        [(_, parsed, _)] = read_all(request("GET", "/", headers))
        assert len(parsed) == MAX_HEADERS
        [error] = read_all(request("GET", "/", headers + [("x", "1")]))
        assert (error.code, error.reason) == (431, "headers-too-large")

    @pytest.mark.parametrize("raw", [
        b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
        b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
        "GET /é HTTP/1.1\r\n\r\n".encode("latin-1"),
        b"GET /\r\n\r\n",
        b"\r\n\r\n",
    ])
    def test_malformed_head_is_typed_400(self, raw):
        [error] = read_all(raw)
        assert (error.code, error.reason) == (400, "bad-http")

    def test_clean_end_of_stream_is_none(self):
        assert read_all(b"") == []


# ----------------------------------------------------------------------
# The server's replies over a real socket
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def registry(tmp_path_factory, trained_xgb, small_dataset):
    root = tmp_path_factory.mktemp("wire_registry")
    make_train_run(root, trained_xgb, small_dataset, seed=0)
    return root


def exchange(service, raw: bytes) -> bytes:
    """Send *raw* to a started *service*; everything it answers."""

    async def scenario():
        host, port = await service.start("127.0.0.1", 0)
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(raw)
            chunks = []
            try:
                await writer.drain()
                while chunk := await asyncio.wait_for(reader.read(1 << 16),
                                                      10.0):
                    chunks.append(chunk)
            except ConnectionError:
                pass  # the server closed with request bytes unread
            writer.close()
            return b"".join(chunks)
        finally:
            await service.stop()

    return asyncio.run(scenario())


def reply(raw: bytes) -> tuple[str, dict]:
    assert raw.count(b"HTTP/1.1 ") == 1
    head, _, body = raw.decode().partition("\r\n\r\n")
    return head, json.loads(body)


class TestServerFraming:
    def test_long_header_line_is_typed_431_without_traceback(
        self, registry, caplog
    ):
        service = make_service(registry)
        with caplog.at_level(logging.ERROR):
            raw = exchange(service, b"GET /healthz HTTP/1.1\r\nx-big: "
                           + b"a" * 70_000 + b"\r\n\r\n")
        head, body = reply(raw)
        assert head.startswith("HTTP/1.1 431 ")
        assert "connection: close" in head
        assert body["reason"] == "headers-too-large"
        assert not [r for r in caplog.records if r.exc_info]
        assert service.request_counts == {}

    @pytest.mark.parametrize("value", ["1_0", "+10"])
    def test_non_digit_content_length_is_typed_400(self, registry, value):
        service = make_service(registry)
        raw = exchange(service, request(
            headers=[("content-length", value)], body=b'{"a": 1.0}'))
        head, body = reply(raw)
        assert head.startswith("HTTP/1.1 400 ")
        assert "connection: close" in head
        assert body["reason"] == "bad-http"
        assert service.request_counts == {}

    def test_too_many_headers_is_typed_431(self, registry):
        service = make_service(registry)
        headers = [(f"x-{i}", "1") for i in range(MAX_HEADERS + 1)]
        head, body = reply(exchange(service,
                                    request("GET", "/healthz", headers)))
        assert head.startswith("HTTP/1.1 431 ")
        assert "connection: close" in head
        assert body["reason"] == "headers-too-large"

    def test_transfer_encoding_is_typed_400_and_closes(self, registry):
        service = make_service(registry)
        head, body = reply(exchange(service, CHUNKED))
        assert head.startswith("HTTP/1.1 400 ")
        assert "connection: close" in head
        assert body["reason"] == "bad-http"
        assert service.request_counts == {}
