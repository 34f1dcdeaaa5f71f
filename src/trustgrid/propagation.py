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
and its own. Those depend on the trust adjacency alone, so each Dataset
indexes them once, with the positions of the ones each neighbour can hold,
and every round of the run reads only those neighbour entries. Otherwise,
and always in run_round, which takes any state, every target is summed. The
stored tables are the same, bit for bit, either way.

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
from functools import partial
from itertools import repeat
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
    x and x's own direct targets: the targets x sums under the bound."""

    ys: dict[int, tuple[int, ...]]        # ascending
    positions: dict[int, list]            # one bytes or array per positive
    # neighbour i of x, in ascending i: the positions in ys[x] of the
    # targets i can hold, its direct targets and ys[i]


def _build_index(dataset: Dataset) -> _Index:
    out = dataset.trust_adjacency.out
    positive_out = dataset.trust_adjacency.positive_out
    direct = {x: [t for t, _ in out.get(x, ())] for x in dataset.users}
    ys = {}
    for x in dataset.users:
        reach = set().union(*(direct[i] for i, _ in positive_out.get(x, ())))
        reach.discard(x)
        reach.difference_update(direct[x])
        ys[x] = tuple(sorted(reach))
    positions = {}
    for x, targets in ys.items():
        at = {y: p for p, y in enumerate(targets)}
        # one byte per position while they fit, else the narrowest array
        if len(targets) <= 256:
            pack = bytes
        else:
            pack = partial(array, "H" if len(targets) <= 65536 else "L")
        positions[x] = [
            pack(sorted(at[y] for y in (*direct[i], *ys[i]) if y in at))
            for i, _ in positive_out.get(x, ())]
    return _Index(ys, positions)


def _bounded_index(dataset: Dataset, config: PropagationConfig):
    """The Dataset's index when no round of a run from init_network can
    store a target outside it, else None; it returns before building the
    index otherwise, so signed runs, and binary ones at d = 0.9, never do.

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
    its direct targets and ys(i), all that i's table can hold, in the same
    order as summing every target: every stored value and hops is the
    same, bit for bit.
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
    if dataset._propagation_index is None:
        dataset._propagation_index = _build_index(dataset)
    return dataset._propagation_index


def _indexed_sums(x, neighbours, tables, damping, index):
    """(y, (num, den, 1)) for each y in index.ys[x]: its sums as _node_sums
    adds them, read from only the neighbour entries the index names, and
    the fewest hops among them, since some neighbour holds y at hops 1."""
    ys = index.ys[x]
    num = [0.0] * len(ys)
    den = [0.0] * len(ys)
    for (i, w), where in zip(neighbours, index.positions[x]):
        scale = w * damping
        table = tables[i]
        for p in where:
            entry = table.get(ys[p])
            if entry is not None:
                num[p] += scale * entry[0]
                den[p] += w
    return zip(ys, zip(num, den, repeat(1)))


def _round(state, dataset, config, index):
    """run_round's round; given the index _bounded_index returns for a run
    from init_network, each node sums only the targets the index names."""
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
        neighbours = adjacency.positive_out.get(x, ())
        if index is None:
            sums = _node_sums(neighbours, tables, damping)
            for y in (x, *entries):  # self and direct targets are not inferred
                sums.pop(y, None)
            sums = sums.items()
        else:
            sums = _indexed_sums(x, neighbours, tables, damping, index)
        for y, (num, den, hops) in sums:
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
    included; propagate's rounds store the same tables while summing fewer
    targets when it can (see _bounded_index). ValueError when a table lacks
    one of its owner's direct entries.
    """
    return _round(state, dataset, config, None)


def propagate(dataset: Dataset, config: PropagationConfig | None = None) -> NetworkState:
    """init_network, then rounds until max_change <= tolerance or max_rounds
    rounds have run. Every round equals run_round on the previous state;
    whether they may sum only the index's targets is decided once, before
    the first round, by _bounded_index."""
    if config is None:
        config = PropagationConfig()
    state = init_network(dataset)
    index = _bounded_index(dataset, config)
    for _ in range(config.max_rounds):
        state, max_change, _ = _round(state, dataset, config, index)
        if max_change <= config.tolerance:
            state.converged = True
            break
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
