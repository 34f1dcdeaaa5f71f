"""Node-local iterative trust propagation over synchronous gossip rounds.

Each user keeps one trust table, a plain `target -> (trust, hops)` map that
holds direct and inferred entries alike. In every round a node reads only its
positively-trusted direct neighbors' tables from the previous round and
rebuilds its inferred entries: one damped weighted-average value for every
target those tables mention. Every node rebuilds its whole table in every
round, and `propagate` is nothing but repeated rounds until the largest value
change drops below a tolerance.

`propagate` sums only the targets it could store, and decides which once per
run, from the trust graph and the config. When a bound on the averages (see
_bounded_index) proves that x never stores a positive value for a target
none of its positive neighbours holds at hops 1, as with the defaults
(0.8 * 0.8 < 0.7), x sums only ys(x), its neighbours' direct targets less
itself and its own, and, on a graph with negative edges, neg(x): the other
targets a positive neighbour may hold negatively, since a negative value is
always stored. Both depend on the trust adjacency alone, so such a run
indexes them once, before its first round, and keeps each node's values in
a row, a list with one slot per direct target and then one segment of
slots, ys(x) then neg(x), instead of a table: every round sums each
segment slot from the neighbour slots the index pairs with it, in one walk
and one storage loop for both kinds, and the last rows' stored targets are
added to init_network's tables. A ys slot is always stored at hops 2, so
only a run with neg slots keeps a hops list beside each row. Otherwise, and
always in run_round, which takes any state, every round rebuilds the tables
and sums every target. The stored tables are the same, bit for bit, either way.

Direct trust is immutable input: a node finds its neighbors and their weights
in the Dataset's trust adjacency, never in its own table. A table's direct
entries (hops 1) are a copy of that input, kept for snapshots and
query_trust; only inferred entries (hops 2 or more) change from round to
round. DIRECT and INFERRED are the labels query_trust and snapshots derive
from hops.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import islice, repeat
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
    x and x's own direct targets. neg[x] holds every other target but x and
    x's direct targets that a positive neighbour of x may hold negatively
    (see _negative_reach): it is empty unless an edge is negative. x's row
    is its direct targets, in adjacency order, then its segment, ys[x] and
    then neg[x]; a bounded run keeps one value per slot of it, None for a
    target x does not store.
    """

    ys: dict[int, tuple[int, ...]]        # ascending
    neg: dict[int, tuple[int, ...]]       # ascending
    pairs: dict[int, list]                # one (slots in x's segment, slots
    # in i's row) pair of narrow integer arrays per positive neighbour i of
    # x, in ascending i: one slot pair per target of i's row that is in
    # ys[x] or neg[x]


def _narrow(slots, size):
    """`slots`, each below `size`, as bytes when any such slot fits a byte,
    else as the narrowest array that holds them."""
    if size <= 256:
        return bytes(slots)
    return array("H" if size <= 65536 else "L", slots)


def _slot_pairs(targets, rows):
    """One (slots in `targets`, slots in row) pair per row of `rows`: one
    slot pair per target of the row that is in `targets`."""
    at = {y: p for p, y in enumerate(targets)}
    pairs = []
    for row in rows:
        qs = [q for q, y in enumerate(row) if y in at]
        pairs.append((_narrow([at[row[q]] for q in qs], len(targets)),
                      _narrow(qs, len(row))))
    return pairs


def _negative_reach(dataset: Dataset, direct):
    """{x: every target x's table may ever hold at a negative value}: the
    least sets with x's negative direct targets and, less x and x's direct
    targets, every target in the set of a positive neighbour of x. A node
    stores a negative average only if a neighbour it averages holds the
    target negatively, and a direct entry is never inferred."""
    adjacency = dataset.trust_adjacency
    held = {x: {t for t, v in adjacency.out.get(x, ()) if v < 0.0}
            for x in dataset.users}
    # what each node gained that its positive in-neighbours have not read
    unread = {x: set(targets) for x, targets in held.items() if targets}
    while unread:
        i, gained = unread.popitem()
        for x, _ in adjacency.positive_in.get(i, ()):
            new = gained - held[x]
            new.discard(x)
            new.difference_update(direct[x])
            if new:
                held[x] |= new
                unread.setdefault(x, set()).update(new)
    return held


def _build_index(dataset: Dataset) -> _Index:
    """The _Index of a Dataset's trust adjacency, built once per propagate
    run that _bounded_index admits. Which slot of x's segment each slot of
    a neighbour's row feeds depends on the adjacency alone, so a bounded
    round finds it here instead of by target in a table."""
    out = dataset.trust_adjacency.out
    positive_out = dataset.trust_adjacency.positive_out
    direct = {x: [t for t, _ in out.get(x, ())] for x in dataset.users}
    held = _negative_reach(dataset, direct)
    ys = {}
    neg = {}
    for x in dataset.users:
        neighbours = [i for i, _ in positive_out.get(x, ())]
        reach = set().union(*(direct[i] for i in neighbours))
        reach.discard(x)
        reach.difference_update(direct[x])
        ys[x] = tuple(sorted(reach))
        beyond = set().union(*(held[i] for i in neighbours))
        beyond.difference_update(reach, direct[x], (x,))
        neg[x] = tuple(sorted(beyond))
    rows = {x: (*direct[x], *ys[x], *neg[x]) for x in dataset.users}
    pairs = {x: _slot_pairs((*ys[x], *neg[x]),
                            [rows[i] for i, _ in positive_out.get(x, ())])
             for x in dataset.users}
    return _Index(ys, neg, pairs)


def _bounded_index(dataset: Dataset, config: PropagationConfig):
    """A fresh _Index of the Dataset when no round of a run from
    init_network can store a target outside it, else None; it returns
    before building the index otherwise, so binary runs at d = 0.9 never
    do.

    Let d be the damping, u = 2^-53, k the largest positive out-degree,
    w_min the smallest positive weight, and s = 1 when an edge is negative,
    else 0. Every table value v has |v| <= 1: direct ones by input, and
    each term of an average rounds to at most its weight in magnitude, so
    |num| never exceeds den. If the values a node averages lie in [-s, M],
    its computed average is at most B(M) = d*M*(1 + 4(k+1)u) + d*s*4(k+1)u
    + (k+1)(1+max(M, s))*2^-1073/w_min, and with s = 0 it is +0.0, -0.0 or
    positive. Each product w*d*v rounds by a factor of at most (1+u)^2
    plus, below the normal range, (1+max(M, s))*2^-1074. num's at most k-1
    additions add no underflow error and err by at most ((1+u)^(k-1) - 1)
    times the sum of the terms' magnitudes: at most d*M*den when no term is
    negative, but up to d*den when one is, so a mixed-sign sum errs
    relative to d, not to d*M, and needs the additive margin. den, a sum
    of at most k weights, is at least (1-u)^(k-1) times its exact value,
    which is at least w_min; the division adds a factor (1+u) and 2^-1075;
    and (1+u)^(k+2)/(1-u)^(k-1) <= 1 + 4(k+1)u. widened(M) doubles every
    margin, so the roundings of its own sum cannot undercut B(M); with no
    positive edge w_min is inf and there is nothing to sum. A sum of
    non-negative terms (-0.0 included) is +0.0 or positive, so an average
    is negative only if a neighbour it reads holds a negative value.

    Let W be the largest trust value (the largest positive one when an
    edge is positive), M* = widened(W) and widened(M*) < threshold. By
    induction every round's tables hold their owners' direct entries at
    hops 1 and otherwise only targets in their ys, at hops 2, or in their
    neg; every positive inferred value is at most M*, and every negative
    one is held for a target in the owner's _negative_reach, as in
    init_network's tables. Given that, x averages a target in ys(x) from
    values in [-s, max(W, M*)]: at most B(W) <= M* if M* <= W, else at most
    B(M*) < threshold, which the storage rule (`0.0 <= value < threshold`)
    discards; a neighbour holds it at hops 1, so it is stored at hops 2.
    Any other target but x and its direct targets no positive neighbour
    holds at hops 1, so x averages it from inferred values in [-s, M*] to
    at most B(M*) and stores it only if the average is negative, which
    needs a neighbour i that holds it negatively: a target of i's
    _negative_reach, that is, of neg(x). Such a target has no contributor
    at hops 1, so its hops vary with the round. So x may sum only ys(x) and
    neg(x), reading of each neighbour i only its row, all that i's table
    can hold, in the same order as summing every target: every stored value
    and hops is the same, bit for bit.
    """
    adjacency = dataset.trust_adjacency
    values = [v for edges in adjacency.out.values() for _, v in edges]
    s = 1.0 if min(values, default=0.0) < 0.0 else 0.0
    k = max(map(len, adjacency.positive_out.values()), default=0)
    min_weight = min((v for v in values if v > 0.0), default=math.inf)
    margin = 8 * (k + 1) * 2.0 ** -53

    def widened(top):
        return (config.damping * top * (1.0 + margin)
                + config.damping * s * margin
                + (k + 1) * (1.0 + max(top, s)) / min_weight * 2.0 ** -1072)

    if not widened(widened(max(values, default=0.0))) < config.store_threshold:
        return None
    return _build_index(dataset)


def _row_round(rows, dataset, config, index, hops):
    """One bounded round on rows (see _Index): (new rows, max_change), as
    run_round gives max_change for the tables the rows hold.

    x sums each slot of its segment, ys[x] then neg[x], from the neighbour
    slots the index pairs with it, in the order _node_sums adds them, so
    every stored value is the same, bit for bit. Every neighbour holds its
    direct targets, so no ys sum is empty and every stored ys entry is at
    hops 2. A neg slot has no direct contributor, so its sum may be empty
    (den 0: nothing stored), and it is stored at one more than its
    contributors' fewest hops. `hops` holds those: for a run whose index
    has a neg slot, {x: a list parallel to x's row}, which the round brings
    to the new rows' hops in place (a slot's hops mean something only while
    it stores a value, and a ys slot's always come out 2); any other run
    passes None, and its round keeps no hops."""
    positive_out = dataset.trust_adjacency.positive_out
    damping = config.damping
    threshold = config.store_threshold
    new_rows = {}
    new_hops = {}
    max_change = 0.0

    for x, old in rows.items():
        n = len(index.ys[x]) + len(index.neg[x])
        d = len(old) - n
        num = [0.0] * n
        den = [0.0] * n
        edges = zip(positive_out.get(x, ()), index.pairs[x])
        if hops is None:
            for (i, w), (ps, qs) in edges:
                scale = w * damping
                row = rows[i]
                for p, q in zip(ps, qs):
                    trust = row[q]
                    if trust is not None:
                        num[p] += scale * trust
                        den[p] += w
        else:
            low = [sys.maxsize] * n  # fewest hops among the contributors
            for (i, w), (ps, qs) in edges:
                scale = w * damping
                row = rows[i]
                held = hops[i]
                for p, q in zip(ps, qs):
                    trust = row[q]
                    if trust is not None:
                        num[p] += scale * trust
                        den[p] += w
                        if held[q] < low[p]:
                            low[p] = held[q]
            new_hops[x] = hops[x][:d] + [1 + h for h in low]
        new = old[:d]  # direct values
        for prev, total, weight in zip(islice(old, d, None), num, den):
            # den 0: no neighbour holds the target (only a neg slot's sum
            # can be empty); a value in [0, threshold) is too weak to store
            if not weight or 0.0 <= (value := total / weight) < threshold:
                new.append(None)
                if prev is not None and abs(prev) > max_change:
                    max_change = abs(prev)
                continue
            new.append(value)
            change = abs(value if prev is None else prev - value)
            if change > max_change:
                max_change = change
        new_rows[x] = new

    if hops is not None:  # once no node reads the old hops any more
        hops.update(new_hops)
    return new_rows, max_change


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
    last round each table gets its row's stored targets after its direct
    entries: its ys targets, then its neg targets, each in ascending order."""
    if config is None:
        config = PropagationConfig()
    state = init_network(dataset)
    # at max_rounds 0 no round would read the index, so none is built
    index = _bounded_index(dataset, config) if config.max_rounds else None
    if index is not None:
        rows = {x: [v for v, _ in table.values()]
                + [None] * (len(index.ys[x]) + len(index.neg[x]))
                for x, table in state.tables.items()}
        # only neg slots' hops vary, so only a run with some keeps hops: 1
        # for a direct slot, 2 for the others until a round stores them
        hops = ({x: [1] * len(table) + [2] * (len(rows[x]) - len(table))
                 for x, table in state.tables.items()}
                if any(index.neg.values()) else None)
    for _ in range(config.max_rounds):
        if index is None:
            state, max_change, _ = run_round(state, dataset, config)
        else:
            rows, max_change = _row_round(rows, dataset, config, index, hops)
            state.round += 1
        if max_change <= config.tolerance:
            state.converged = True
            break
    if index is not None:
        for x, table in state.tables.items():
            d = len(table)
            slots = zip((*index.ys[x], *index.neg[x]), islice(rows[x], d, None),
                        repeat(2) if hops is None else islice(hops[x], d, None))
            for y, value, h in slots:
                if value is not None:
                    table[y] = (value, h)
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
