"""Wire codec and framing."""

import datetime
import decimal
import socket

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.sies import SIESCiphertext
from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.engine.table import Table
from repro.net import protocol


def round_trip(value):
    return protocol.decode_value(protocol.encode_value(value))


def test_scalars_round_trip():
    for value in [None, True, False, 0, -7, 2**2048 + 13, 0.25, "x", "quote'd"]:
        assert round_trip(value) == value


def test_date_round_trip():
    assert round_trip(datetime.date(1995, 3, 15)) == datetime.date(1995, 3, 15)


def test_sies_ciphertext_round_trip():
    ct = SIESCiphertext(value=123456789, nonce=42)
    assert round_trip(ct) == ct


def test_decimal_round_trip():
    assert round_trip(decimal.Decimal("12.345")) == decimal.Decimal("12.345")


def test_list_round_trip():
    values = [1, "a", datetime.date(2000, 1, 1), None]
    assert round_trip(values) == values


def test_table_round_trip():
    schema = Schema(
        (
            ColumnSpec("id", DataType.INT),
            ColumnSpec("price", DataType.DECIMAL, scale=2),
            ColumnSpec("share", DataType.SHARE),
            ColumnSpec("day", DataType.DATE),
        )
    )
    table = Table.from_rows(
        schema,
        [
            (1, 9.99, 2**200 + 7, datetime.date(2024, 5, 1)),
            (2, None, 0, None),
        ],
    )
    restored = round_trip(table)
    assert restored.schema == table.schema
    assert list(restored.rows()) == list(table.rows())


def test_unencodable_value_rejected():
    with pytest.raises(protocol.NetError):
        protocol.encode_value(object())


def test_unknown_tag_rejected():
    with pytest.raises(protocol.NetError):
        protocol.decode_value({"$nope": 1})


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-(2**256), max_value=2**256),
            st.text(max_size=20),
            st.none(),
            st.booleans(),
            st.dates(),
        ),
        max_size=30,
    )
)
def test_value_codec_property(values):
    assert round_trip(values) == values


def test_framing_over_socketpair():
    a, b = socket.socketpair()
    try:
        message = {"op": "execute", "sql": "SELECT 1", "big": 2**1024}
        sent = protocol.send_message(a, message)
        received, size = protocol.recv_message(b)
        assert received == message
        assert size == sent  # both sides count header + body
    finally:
        a.close()
        b.close()


def test_framing_multiple_messages_in_order():
    a, b = socket.socketpair()
    try:
        for i in range(5):
            protocol.send_message(a, {"i": i})
        for i in range(5):
            assert protocol.recv_message(b)[0] == {"i": i}
    finally:
        a.close()
        b.close()


def test_recv_on_closed_socket_raises():
    a, b = socket.socketpair()
    a.close()
    with pytest.raises(protocol.NetError):
        protocol.recv_message(b)
    b.close()


def test_oversized_frame_rejected(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 8)
    a, b = socket.socketpair()
    try:
        with pytest.raises(protocol.NetError):
            protocol.send_message(a, {"payload": "x" * 100})
    finally:
        a.close()
        b.close()
