"""Node-local iterative trust propagation over synchronous gossip rounds.

Each user keeps one trust table, a plain `target -> (trust, hops)` map that
holds direct and inferred entries alike. In every round a node reads only its
positively-trusted direct neighbors' tables from the previous round and
rebuilds its inferred entries: one damped weighted-average value for every
target those tables mention. Every node rebuilds its whole table in every
round, and `propagate` is nothing but repeated rounds until the largest value
change drops below a tolerance.

`propagate` sums only the targets it could store, and decides which once per
run, from the trust graph and the config: when no edge is negative and a
bound on the averages (see _bounded_index) proves that a target none of x's
positive neighbours holds at hops 1 is never stored, as with the defaults
(0.8 * 0.8 < 0.7), x sums only its neighbours' direct targets less itself
and its own. Those depend on the trust adjacency alone, so such a run
indexes them once, before its first round, and keeps each node's values in
a row, a list with one slot per direct target and per indexed target,
instead of a table: every round sums each slot from the neighbour slots the
index pairs with it, and the last rows' stored targets are added to
init_network's tables. Otherwise, and always in run_round, which takes any
state, every round rebuilds the tables and sums every target. The stored
tables are the same, bit for bit, either way.

Direct trust is immutable input: a node finds its neighbors and their weights
in the Dataset's trust adjacency, never in its own table. A table's direct
entries (hops 1) are a copy of that input, kept for snapshots and
query_trust; only inferred entries (hops 2 or more) change from round to
round. DIRECT and INFERRED are the labels query_trust and snapshots derive
from hops.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .model import Dataset, UnknownUserError

DIRECT = "direct"
INFERRED = "inferred"


@dataclass(slots=True)
class PropagationConfig:
    damping: float = 0.8          # per-hop penalty on propagated trust
    store_threshold: float = 0.7  # positive inferred values below this are discarded
    max_rounds: int = 50
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0,1]")
        if not 0.0 <= self.store_threshold <= 1.0:
            raise ValueError("store_threshold must be in [0,1]")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be >= 0")


@dataclass(slots=True)
class NetworkState:
    """All nodes' trust tables after some number of rounds.

    `tables[owner][target]` is `(trust, hops)`. hops == 1 marks a direct
    entry, a copy of the owner's trust edge; an inferred entry has
    hops >= 2, one more than the fewest hops among the neighbour entries
    it was averaged from.
    """

    tables: dict[int, dict[int, tuple[float, int]]]
    round: int = 0
    converged: bool = False


def init_network(dataset: Dataset) -> NetworkState:
    """One table per user, holding exactly the user's direct edges (hops=1)."""
    out = dataset.trust_adjacency.out
    return NetworkState({user: {t: (v, 1) for t, v in out.get(user, ())}
                         for user in sorted(dataset.users)})


def _node_sums(neighbours, tables, damping):
    """Per-target `[num, den, hops]` accumulators of x's damped weighted
    average over its neighbours' tables: num sums `w * damping * trust`, den
    sums `w`, hops is the fewest hops among the entries that contributed.

    `neighbours` lists x's positive direct (i, trust(x, i)) edges in ascending
    i, so every target sums its contributions in ascending i, which fixes its
    float result.
    """
    sums = {}
    for i, w in neighbours:
        scale = w * damping
        for y, (trust, hops) in tables[i].items():
            acc = sums.get(y)
            if acc is None:
                # 0.0 + keeps a -0.0 product +0.0, as summing from 0.0 does
                sums[y] = [0.0 + scale * trust, w, hops]
            else:
                acc[0] += scale * trust
                acc[1] += w
                if hops < acc[2]:
                    acc[2] = hops
    return sums


class _Index(NamedTuple):
    """What a bounded run reads of a Dataset's trust adjacency, keyed by
    user. ys[x] is the union of x's positive neighbours' direct targets, less
    x and x's own direct targets: the targets x sums under the bound. x's
    row is its direct targets, in adjacency order, then ys[x]; a bounded
    run keeps one value per slot of it, None for a target x does not store.
    """

    ys: dict[int, tuple[int, ...]]        # ascending
    pairs: dict[int, list]                # one (slots in ys[x], slots in
    # i's row) pair of narrow integer arrays per positive neighbour i of x,
    # in ascending i: one slot pair per target of i's row that is in ys[x]


def _narrow(slots, size):
    """`slots`, each below `size`, as bytes when any such slot fits a byte,
    else as the narrowest array that holds them."""
    if size <= 256:
        return bytes(slots)
    return array("H" if size <= 65536 else "L", slots)


def _build_index(dataset: Dataset) -> _Index:
    """The _Index of a Dataset's trust adjacency, built once per propagate
    run that _bounded_index admits. Which slot of x's ys each slot of a
    neighbour's row feeds depends on the adjacency alone, so a bounded
    round finds it here instead of by target in a table."""
    out = dataset.trust_adjacency.out
    positive_out = dataset.trust_adjacency.positive_out
    direct = {x: [t for t, _ in out.get(x, ())] for x in dataset.users}
    ys = {}
    for x in dataset.users:
        reach = set().union(*(direct[i] for i, _ in positive_out.get(x, ())))
        reach.discard(x)
        reach.difference_update(direct[x])
        ys[x] = tuple(sorted(reach))
    rows = {x: (*direct[x], *ys[x]) for x in dataset.users}
    pairs = {}
    for x, targets in ys.items():
        at = {y: p for p, y in enumerate(targets)}
        pairs[x] = []
        for i, _ in positive_out.get(x, ()):
            row = rows[i]
            qs = [q for q, y in enumerate(row) if y in at]
            pairs[x].append((_narrow([at[row[q]] for q in qs], len(targets)),
                             _narrow(qs, len(row))))
    return _Index(ys, pairs)


def _bounded_index(dataset: Dataset, config: PropagationConfig):
    """A fresh _Index of the Dataset when no round of a run from
    init_network can store a target outside it, else None; it returns
    before building the index otherwise, so signed runs, and binary ones at
    d = 0.9, never do.

    Let d be the damping, u = 2^-53, k the largest positive out-degree and
    w_min the smallest positive weight. If the values a node averages lie in
    [0, M], its computed average is +0.0, -0.0 or positive and at most
    B(M) = d*M*(1 + 4(k+1)u) + (k+1)(1+M)*2^-1073/w_min: each product
    w*d*v rounds up by a factor of at most (1+u)^2 plus, below the normal
    range, (1+M)*2^-1074; num's at most k-1 additions of non-negative terms
    add a factor (1+u)^(k-1) and no underflow error; den, a sum of at most
    k weights, is at least (1-u)^(k-1) times its exact value, which is at
    least w_min; the division adds a factor (1+u) and 2^-1075; and
    (1+u)^(k+2)/(1-u)^(k-1) <= 1 + 4(k+1)u. widened(M) doubles both
    margins, so the roundings of its own sum cannot undercut B(M); with no
    positive edge w_min is inf and there is nothing to sum.

    Let no edge be negative, W be the largest trust value, M* = widened(W)
    and widened(M*) < threshold. By induction every round's tables hold
    their owners' direct entries at hops 1 and otherwise only targets in
    their ys, at hops 2 and at most M*, as init_network's do. Given that,
    x averages a target in ys(x) from values in [0, max(W, M*)]: at most
    B(W) <= M* if M* <= W, else at most B(M*) < threshold, which the
    storage rule (`0.0 <= value < threshold`) discards; a neighbour holds
    it at hops 1, so it is stored at hops 2. Any other target but x and
    its direct targets no positive neighbour holds at hops 1, so x
    averages it from inferred values in [0, M*] to at most B(M*) and
    discards it. So x may sum only ys(x), reading of each neighbour i only
    its direct targets and ys(i), all that i's table can hold (i's row),
    in the same order as summing every target: every stored value and hops
    is the same, bit for bit.
    """
    adjacency = dataset.trust_adjacency
    values = [v for edges in adjacency.out.values() for _, v in edges]
    if min(values, default=0.0) < 0.0:
        return None
    k = max(map(len, adjacency.positive_out.values()), default=0)
    min_weight = min((v for v in values if v > 0.0), default=math.inf)

    def widened(top):
        return (config.damping * top * (1.0 + 8 * (k + 1) * 2.0 ** -53)
                + (k + 1) * (1.0 + top) / min_weight * 2.0 ** -1072)

    if not widened(widened(max(values, default=0.0))) < config.store_threshold:
        return None
    return _build_index(dataset)


def _row_round(rows, dataset, config, index):
    """One bounded round on rows (see _Index): (new rows, max_change,
    entries_added), as run_round gives them for the tables the rows hold.

    x sums each slot of ys[x] from the neighbour slots the index pairs with
    it, in the order _node_sums adds them, so every stored value is the
    same, bit for bit; every neighbour holds its direct targets, so no sum
    is empty, and every stored entry is at hops 2."""
    positive_out = dataset.trust_adjacency.positive_out
    damping = config.damping
    threshold = config.store_threshold
    new_rows = {}
    max_change = 0.0
    entries_added = 0

    for x, old in rows.items():
        n = len(index.ys[x])
        num = [0.0] * n
        den = [0.0] * n
        for (i, w), (ps, qs) in zip(positive_out.get(x, ()), index.pairs[x]):
            scale = w * damping
            row = rows[i]
            for p, q in zip(ps, qs):
                trust = row[q]
                if trust is not None:
                    num[p] += scale * trust
                    den[p] += w
        d = len(old) - n
        new = old[:d]  # direct values
        for prev, total, weight in zip(islice(old, d, None), num, den):
            value = total / weight
            if 0.0 <= value < threshold:  # too weak to store
                new.append(None)
                if prev is not None and abs(prev) > max_change:
                    max_change = abs(prev)
                continue
            new.append(value)
            if prev is None:
                entries_added += 1
                change = abs(value)
            else:
                change = abs(prev - value)
            if change > max_change:
                max_change = change
        new_rows[x] = new

    return new_rows, max_change, entries_added


def run_round(state: NetworkState, dataset: Dataset, config: PropagationConfig):
    """One synchronous round: every node rebuilds its table from the round-k
    tables.

    A node keeps its direct entries and infers every other target its
    positive neighbours' tables hold, except itself and positive values
    below the storage threshold. Returns (new_state, max_change,
    entries_added). max_change is the largest absolute difference between an
    inferred entry's old and new value, where appearing/disappearing entries
    count as change from/to 0.

    It sums every target, so it is exact on any state, hand-made ones
    included; propagate's bounded rounds store the same tables from rows
    (see _bounded_index and _row_round). ValueError when a table lacks one
    of its owner's direct entries.
    """
    tables = state.tables
    adjacency = dataset.trust_adjacency
    damping = config.damping
    threshold = config.store_threshold
    new_tables = {}
    max_change = 0.0
    entries_added = 0

    for x, old in tables.items():
        try:
            entries = {t: old[t] for t, _ in adjacency.out.get(x, ())}
        except KeyError as missing:
            raise ValueError(f"user {x}'s table lacks its direct trust entry "
                             f"for {missing.args[0]}") from None
        sums = _node_sums(adjacency.positive_out.get(x, ()), tables, damping)
        for y in (x, *entries):  # self and direct targets are not inferred
            sums.pop(y, None)
        for y, (num, den, hops) in sums.items():
            value = num / den
            if 0.0 <= value < threshold:
                continue  # too weak to store
            entries[y] = (value, 1 + hops)
            prev = old.get(y)
            if prev is None:
                entries_added += 1
                change = abs(value)
            else:
                change = abs(prev[0] - value)
            if change > max_change:
                max_change = change
        for y in old.keys() - entries.keys():  # no neighbour reports y now
            if abs(old[y][0]) > max_change:
                max_change = abs(old[y][0])
        new_tables[x] = entries

    next_state = NetworkState(new_tables, state.round + 1, state.converged)
    return next_state, max_change, entries_added


def propagate(dataset: Dataset, config: PropagationConfig | None = None) -> NetworkState:
    """init_network, then rounds until max_change <= tolerance or max_rounds
    rounds have run. Every round equals run_round on the previous state.
    Before the first round, _bounded_index decides once whether every round
    may sum only the index's targets; if so, the rounds run on rows (see
    _Index) that start from init_network's direct values, and after the
    last round each table gets its row's stored targets, in ascending
    order after its direct entries."""
    if config is None:
        config = PropagationConfig()
    state = init_network(dataset)
    # at max_rounds 0 no round would read the index, so none is built
    index = _bounded_index(dataset, config) if config.max_rounds else None
    if index is not None:
        rows = {x: [v for v, _ in table.values()] + [None] * len(index.ys[x])
                for x, table in state.tables.items()}
    for _ in range(config.max_rounds):
        if index is None:
            state, max_change, _ = run_round(state, dataset, config)
        else:
            rows, max_change, _ = _row_round(rows, dataset, config, index)
            state.round += 1
        if max_change <= config.tolerance:
            state.converged = True
            break
    if index is not None:
        for x, table in state.tables.items():
            for y, value in zip(index.ys[x], islice(rows[x], len(table), None)):
                if value is not None:
                    table[y] = (value, 2)
    return state


def query_trust(state: NetworkState, x: int, y: int):
    """Entry from x's table as (trust, origin, hops), or None if absent.
    UnknownUserError when x or y has no table."""
    for user in (x, y):
        if user not in state.tables:
            raise UnknownUserError(f"unknown user {user}")
    entry = state.tables[x].get(y)
    if entry is None:
        return None
    trust, hops = entry
    return trust, DIRECT if hops == 1 else INFERRED, hops
