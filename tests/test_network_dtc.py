"""Tests for the network simulation."""

import pytest

from repro.network import NetworkChannel, NetworkStats
from repro.types import Column, INT, Schema, varchar


class TestNetworkChannel:
    def test_send_command_charges_bytes_and_latency(self):
        ch = NetworkChannel("c", latency_ms=2, mb_per_second=1)
        ch.send_command("SELECT 1")
        assert ch.stats.bytes_sent == len("SELECT 1")
        assert ch.stats.round_trips == 1
        assert ch.stats.simulated_ms >= 2

    def test_stream_rows_counts_bytes(self):
        ch = NetworkChannel("c", latency_ms=0, mb_per_second=100)
        schema = Schema([Column("id", INT), Column("s", varchar())])
        rows = [(1, "ab"), (2, "cdef")]
        out = list(ch.stream_rows(rows, schema))
        assert out == rows
        assert ch.stats.bytes_received == (4 + 4) + (4 + 6)

    def test_stream_rows_batches_round_trips(self):
        ch = NetworkChannel("c", latency_ms=1, mb_per_second=100)
        rows = [(i,) for i in range(300)]
        list(ch.deliver(rows))  # the open's request carries batch one
        assert ch.stats.round_trips == 3  # ceil(300/128)

    def test_transfer_time_scales_with_bandwidth(self):
        slow = NetworkChannel("s", latency_ms=0, mb_per_second=1)
        fast = NetworkChannel("f", latency_ms=0, mb_per_second=100)
        nbytes = 1024 * 1024
        assert slow.transfer_ms(nbytes) == pytest.approx(1000.0)
        assert fast.transfer_ms(nbytes) == pytest.approx(10.0)

    def test_row_bytes_without_schema(self):
        ch = NetworkChannel("c")
        rows = [(None, "abc", 1, 2**40, 1.5, True)]
        list(ch.stream_rows(rows))
        # 1 + (3+2) + 4 + 8 + 8 + 1
        assert ch.stats.bytes_received == 27

    def test_stats_reset_and_merge(self):
        ch = NetworkChannel("c", latency_ms=1)
        ch.send_command("X")
        snapshot = NetworkStats()
        snapshot.merge(ch.stats)
        assert snapshot.round_trips == 1
        ch.stats.reset()
        assert ch.stats.total_bytes == 0
        assert snapshot.total_bytes > 0
