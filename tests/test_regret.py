"""The optimizer judged by the wire (``tools/regret.py``).

The remote cost model prices each exchange by asking the channel, so
the plan the optimizer picks should move (nearly) the least simulated
network time of any single-switch variant of its options.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import regret  # noqa: E402

from repro.network.channel import DEFAULT_BATCH_ROWS, NetworkChannel

pytestmark = pytest.mark.integration


def test_default_plans_move_the_least_network_time():
    # a fixed corpus: schema seeds 0-2, ten generated queries each
    found = list(regret.regrets(range(3), 10))
    assert len(found) == 30
    misses = [r for r in found if r.ratio > regret.MISS_THRESHOLD]
    assert len(misses) <= regret.MAX_MISS_SHARE * len(found), [
        (r.case_id, round(r.ratio, 2)) for r in misses
    ]
    assert max(r.ratio for r in found) <= regret.MAX_REGRET


def test_exchange_price_is_what_the_channel_charges():
    rows = [(i, "x" * (i % 7)) for i in range(2 * DEFAULT_BATCH_ROWS + 5)]
    width = sum(4 + len(s) + 2 for __, s in rows) / len(rows)
    channel = NetworkChannel("c", latency_ms=0.5, mb_per_second=2)
    channel.send_command("SELECT k, s FROM t")
    list(channel.reply(rows))
    assert channel.stats.round_trips == 3  # the request + two batches
    assert channel.stats.simulated_ms == pytest.approx(
        channel.exchange_ms(len("SELECT k, s FROM t"), len(rows), width)
    )
    empty = NetworkChannel("e", latency_ms=0.5)
    assert list(empty.deliver([])) == []  # a rowset open, no rows back
    assert empty.stats.round_trips == 1
    assert empty.stats.simulated_ms == pytest.approx(empty.exchange_ms(0))


def test_remote_range_price_is_what_the_channel_charges():
    from repro import Engine
    from repro.core import physical as P
    from repro.providers import IsamDataSource
    from repro.storage.catalog import Database
    from repro.types import Column, INT, Schema, varchar

    db = Database("acc")
    table = db.create_table(
        "Customers",
        Schema([Column("id", INT, nullable=False), Column("city", varchar(30))]),
    )
    for i in range(2000):
        table.insert((i, f"city{i % 20}"))
    table.create_index("ix_id", ["id"], unique=True)
    channel = NetworkChannel("acc-ch", latency_ms=1, mb_per_second=1000)
    local = Engine("local")
    local.add_linked_server("acc", IsamDataSource(db, channel=channel))
    result = local.execute(
        "SELECT c.city FROM acc.acc.dbo.Customers c WHERE c.id IN (1, 50, 99)"
    )
    assert sorted(result.rows) == [("city1",), ("city10",), ("city19",)]
    (node,) = [n for n in result.plan.walk() if isinstance(n, P.RemoteRange)]
    assert len(node.domain.intervals) == 3
    # an index exchange and a bookmark exchange per interval
    assert result.network["acc"]["round_trips"] == 6
    assert node.cost == pytest.approx(
        result.network["acc"]["simulated_ms"], rel=1e-3
    )
