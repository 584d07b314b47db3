"""The reference: expected results in plain Python, no engine code.

Every function here takes the row lists of :mod:`benchmarks.layers.data`
(and a literal where the shape has one) and returns the rows the SQL
shape of the same name must produce.  :func:`same_rows` compares as
multisets, or in order where the shape has a total ORDER BY.
:class:`NewOrderModel` replays the ``pv_neworder`` writes so the final
contents of every member table can be compared after a round.
"""

from __future__ import annotations

from collections import Counter


def same_rows(actual, expected, ordered: bool) -> bool:
    actual = [tuple(row) for row in actual]
    expected = [tuple(row) for row in expected]
    if ordered:
        return actual == expected
    return Counter(actual) == Counter(expected)


def _group_count(rows, key_ordinal: int) -> list[tuple]:
    return list(Counter(row[key_ordinal] for row in rows).items())


# -- pool: tables lt / east / west, columns (id, grp, v) ----------------
# ``a`` is None for the fixed E18 text and an id bound for the ad-hoc
# template, which adds ``id < a`` or ``id >= a`` to the same shape.
def _below(rows, a):
    return rows if a is None else [r for r in rows if r[0] < a]


def _from(rows, a):
    return rows if a is None else [r for r in rows if r[0] >= a]


def pool_local_filter(rows, a):
    return [(i, v) for i, g, v in _below(rows["lt"], a) if v > 5]


def pool_local_group(rows, a):
    return _group_count(_from(rows["lt"], a), 1)


def pool_east_filter(rows, a):
    return [(i, v) for i, g, v in _from(rows["east"], a) if v < 10]


def pool_west_count(rows, a):
    return [(sum(1 for i, g, v in _below(rows["west"], a) if g == "x"),)]


def pool_join(rows, a):
    return [
        (li, rv)
        for li, lg, lv in _below(rows["lt"], a)
        for ri, rg, rv in rows["east"]
        if lv == rv
    ]


def pool_east_sorted(rows, a):
    return sorted((i,) for i, g, v in _from(rows["east"], a) if g == "y")


def pool_west_top(rows, a):
    ranked = sorted(_from(rows["west"], a), key=lambda r: (-r[2], r[0]))
    return [(i, v) for i, g, v in ranked[:5]]


def pool_west_group(rows, a):
    return _group_count(_below(rows["west"], a), 1)


# -- fig4: customers in the same nation as some supplier ---------------
def fig4_join(rows, _literal=None):
    suppliers_in = Counter(s[3] for s in rows["supplier"])
    nations = {n[0] for n in rows["nation"]}
    out = []
    for c in rows["customer"]:
        if c[3] in nations:
            out.extend([(c[1], c[2], c[4])] * suppliers_in[c[3]])
    return out


# -- pv: customer_<m> rows (c_w_id, c_id, c_name, c_balance) -----------
def _pv_customers(rows) -> list[tuple]:
    return [
        row
        for name in sorted(rows)
        if name.startswith("customer_")
        for row in rows[name]
    ]


def pv_full_scan(rows, _literal=None):
    return _pv_customers(rows)


def pv_group(rows, _literal=None):
    balances: dict[int, list[float]] = {}
    for w, __, ___, balance in _pv_customers(rows):
        balances.setdefault(w, []).append(balance)
    return [(w, len(b), min(b), max(b)) for w, b in balances.items()]


def pv_filter(rows, threshold):
    return [(c[1], c[2]) for c in _pv_customers(rows) if c[3] > threshold]


def pv_sorted(rows, _literal=None):
    ranked = sorted(_pv_customers(rows), key=lambda c: (-c[3], c[0], c[1]))
    return [(c[0], c[1], c[3]) for c in ranked]


def pv_join_group(rows, _literal=None):
    names = dict(rows["wh"])
    return [
        (names[w], count, high)
        for w, count, __, high in pv_group(rows)
        if w in names
    ]


def pv_member_top(rows, warehouse):
    ranked = sorted(
        (c for c in _pv_customers(rows) if c[0] == warehouse),
        key=lambda c: (-c[3], c[1]),
    )
    return [(c[1], c[3]) for c in ranked[:10]]


class NewOrderModel:
    """Plain-Python replay of the ``pv_neworder`` transactions."""

    def __init__(self, rows):
        self.customers = {
            (c[0], c[1]): list(c) for c in _pv_customers(rows)
        }
        self.orders: list[tuple] = []

    def read(self, w: int, c: int) -> list[tuple]:
        row = self.customers[(w, c)]
        return [(row[2], row[3])]

    def insert(self, w: int, o_id: int, c: int, amount: float) -> None:
        self.orders.append((w, o_id, c, amount))

    def update(self, w: int, c: int, balance: float) -> None:
        self.customers[(w, c)][3] = balance

    def expected_tables(self, members: int) -> dict[str, list[tuple]]:
        """Final rows per member table; warehouse ``m + 1`` is the only
        one member ``m``'s CHECK range admits."""
        out: dict[str, list[tuple]] = {}
        for m in range(members):
            out[f"orders_{m}"] = [o for o in self.orders if o[0] == m + 1]
            out[f"customer_{m}"] = [
                tuple(c) for c in self.customers.values() if c[0] == m + 1
            ]
        return out
