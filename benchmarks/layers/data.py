"""Seeded row generators: plain Python, no engine imports.

The world builders load these lists into the engines and the reference
check (:mod:`benchmarks.layers.check`) computes expected results from
the very same lists, so the two sides share inputs and nothing else.

The seed permutes and re-draws *contents*; it never changes a table's
size, a value's width on the wire or how many rows a predicate of the
workloads selects on a linked server.  That keeps the three
simulated-network metrics (bytes, round trips, simulated ms) equal
across seeds to within 0.05%, so a move in one of them means the
chosen plan changed, not the draw.
"""

from __future__ import annotations

import random

# -- pool (the E18 world) ----------------------------------------------
POOL_LOCAL_ROWS = 240
POOL_REMOTE_ROWS = 160
POOL_REMOTES = (("east", 10_000, "xyz"), ("west", 20_000, "xyz"))


def pool_rows(seed: int) -> dict[str, list[tuple]]:
    """``lt`` plus one ``rt`` per remote, columns ``(id, grp, v)``.

    The (grp, v) pairs are E18's formulas.  In the local table the seed
    decides which id carries which pair; the remote tables keep E18's
    order, because ``pool_adhoc`` bounds remote ids and a shuffled
    remote table would ship a different number of rows on every seed."""
    rng = random.Random(seed)
    pairs = [("abc"[i % 3], i * 7 % 23) for i in range(POOL_LOCAL_ROWS)]
    rng.shuffle(pairs)
    rows = {"lt": [(i, g, v) for i, (g, v) in enumerate(pairs)]}
    for name, base, letters in POOL_REMOTES:
        rows[name] = [
            (base + i, letters[i % 3], i * 5 % 19)
            for i in range(POOL_REMOTE_ROWS)
        ]
    return rows


# -- fig4 (Example 1 / Figure 4) ---------------------------------------
NATIONS = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
)
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
FIG4_CUSTOMERS = 1000
FIG4_SUPPLIERS = 100


def fig4_rows(seed: int) -> dict[str, list[tuple]]:
    """TPC-H-lite ``nation`` / ``customer`` / ``supplier`` rows in the
    column order of ``repro.workloads.tpch.TPCH_DDL``."""
    rng = random.Random(seed)
    nation = [(key, name, key % 5) for key, name in enumerate(NATIONS)]
    customer = [
        (
            key,
            f"Customer#{key:09d}",
            f"{rng.randint(1, 999)} Main St Apt {key % 50}",
            rng.randrange(len(NATIONS)),
            f"{rng.randint(10, 34)}-{rng.randint(100, 999)}"
            f"-{rng.randint(1000, 9999)}",
            round(rng.uniform(-999.99, 9999.99), 2),
            rng.choice(SEGMENTS),
        )
        for key in range(1, FIG4_CUSTOMERS + 1)
    ]
    supplier = [
        (
            key,
            f"Supplier#{key:09d}",
            f"{rng.randint(1, 999)} Dock Rd",
            rng.randrange(len(NATIONS)),
            round(rng.uniform(-999.99, 9999.99), 2),
        )
        for key in range(1, FIG4_SUPPLIERS + 1)
    ]
    return {"nation": nation, "customer": customer, "supplier": supplier}


# -- pv (the TPC-C-lite federation) ------------------------------------
PV_MEMBERS = 4
PV_CUSTOMERS = 500
#: customer ids start here so every key literal has three digits and
#: the shipped statement texts are equally long on every seed
PV_FIRST_CUSTOMER = 100


def pv_rows(seed: int) -> dict[str, list[tuple]]:
    """One warehouse per member: ``customer_<m>`` rows ``(c_w_id, c_id,
    c_name, c_balance)`` and the local 4-row ``wh`` table.

    Each warehouse holds the balances 0.37, 10.37, ... 4990.37 once
    each (half of them above 2500); the seed decides whose they are."""
    rng = random.Random(seed)
    rows: dict[str, list[tuple]] = {
        "wh": [(m + 1, f"Warehouse-{m + 1}") for m in range(PV_MEMBERS)]
    }
    for member in range(PV_MEMBERS):
        warehouse = member + 1
        balances = [n * 10 + 0.37 for n in range(PV_CUSTOMERS)]
        rng.shuffle(balances)
        rows[f"customer_{member}"] = [
            (warehouse, c_id, f"Cust-{warehouse}-{c_id}", balance)
            for c_id, balance in enumerate(balances, PV_FIRST_CUSTOMER)
        ]
    return rows
