"""Node-local iterative trust propagation over synchronous gossip rounds.

Each user keeps one trust table, a plain `target -> (trust, hops)` map that
holds direct and inferred entries alike. In every round a node reads only its
positively-trusted direct neighbors' tables from the previous round and
rebuilds its inferred entries: one damped weighted-average value for every
target those tables mention. Every node rebuilds its whole table in every
round, and `propagate` is nothing but repeated rounds until the largest value
change drops below a tolerance.

A round sums only the targets it could store. When no entry is negative and
M is the largest value held at hops >= 2, a target that none of x's positive
neighbours holds at hops 1 is averaged from values in [0, M] alone, so its
average lies in [0, damping * M]; when that bound, widened by the rounding
error run_round derives, is below the storage threshold, the rule discards
such a target and it is never summed. With the defaults every inferred value
is at most 0.8, and 0.8 * 0.8 = 0.64 < 0.7. The targets x then sums, its
neighbours' direct targets less x and its own, depend on the trust adjacency
alone, so each Dataset indexes them once, with the positions of the ones
each neighbour can hold; a bounded round reads only those neighbour
entries. A round whose tables hold anything else, as they can after an
unbounded round, sums every target. The stored tables are the same, bit for
bit, as when every target is averaged.

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
    """What a bounded round reads of a Dataset's trust adjacency, keyed by
    user. ys[x] is the union of x's positive neighbours' direct targets, less
    x and x's own direct targets: the targets x sums under the bound."""

    direct: dict[int, list[int]]          # x's direct targets, ascending
    ys: dict[int, tuple[int, ...]]        # ascending
    positions: dict[int, list]            # one bytes or array per positive
    # neighbour i of x, in ascending i: the positions in ys[x] of the
    # targets i can hold, direct[i] and ys[i]
    degree: int                           # k, the largest positive out-degree
    min_weight: float                     # w_min, the smallest positive weight


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
    weights = [w for edges in positive_out.values() for _, w in edges]
    return _Index(direct, ys, positions,
                  max(map(len, positive_out.values()), default=0),
                  min(weights, default=math.inf))


def _bounded_index(tables, dataset, config):
    """The Dataset's index when the round's bound (see run_round) proves
    unstorable every target outside ys and the tables hold only what the
    index names, else None.

    One scan of the tables finds the hops-1 targets and M, the largest value
    held at hops >= 2; it gives up at the first entry that is not >= 0,
    before the index is built, so a run whose tables hold negative trust
    never builds it.
    """
    held = []
    top = 0.0
    for owner, table in tables.items():
        targets = []
        for y, (trust, hops) in table.items():
            if not trust >= 0.0:
                return None  # negative (or NaN): the average has no lower bound
            if hops == 1:
                targets.append(y)
            elif trust > top:
                top = trust
        held.append((owner, targets, table))
    index = dataset._propagation_index
    if index is None:
        index = dataset._propagation_index = _build_index(dataset)
    # twice run_round's 4(k+1)u and (k+1)(1+M)*2^-1073/w_min, so the four
    # roundings of this check cannot undercut them; with no positive edge
    # w_min is inf and there is nothing to sum
    k = index.degree
    bound = (config.damping * top * (1.0 + 8 * (k + 1) * 2.0 ** -53)
             + (k + 1) * (1.0 + top) / index.min_weight * 2.0 ** -1072)
    if not bound < config.store_threshold:
        return None
    # every table must hold its own trust edges at hops 1 and nothing that
    # the index does not name, as after init_network or a bounded round; an
    # unbounded round can store targets farther away
    for owner, targets, table in held:
        if (targets != index.direct.get(owner)
                or not (table.keys() - targets).issubset(index.ys[owner])):
            return None
    return index


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


def run_round(state: NetworkState, dataset: Dataset, config: PropagationConfig):
    """One synchronous round: every node rebuilds its table from the round-k
    tables.

    A node keeps its direct entries and infers every other target its
    positive neighbours' tables hold, except itself and positive values
    below the storage threshold. Returns (new_state, max_change,
    entries_added). max_change is the largest absolute difference between an
    inferred entry's old and new value, where appearing/disappearing entries
    count as change from/to 0.

    Only the targets that can be stored are summed. Suppose no entry of the
    round-k tables is negative, and let M be the largest value held at hops
    >= 2 and d the damping. Every contribution to a target y that none of
    x's positive neighbours holds at hops 1 is w * d * v with 0 <= v <= M,
    so y's exact average lies in [0, d*M]. Computed in floats, with
    u = 2^-53, k the graph's largest positive out-degree and w_min its
    smallest positive weight: each product w*d*v rounds up by a factor of at
    most (1+u)^2 plus, below the normal range, (1+M)*2^-1074; num's at most
    k-1 additions of non-negative terms add a factor (1+u)^(k-1) and no
    underflow error; den, a sum of at most k weights, is at least
    (1-u)^(k-1) times its exact value, which is at least w_min; the division
    adds a factor (1+u) and 2^-1075. As (1+u)^(k+2)/(1-u)^(k-1) <= 1 +
    4(k+1)u, the computed value is at most
    d*M*(1 + 4(k+1)u) + (k+1)(1+M)*2^-1073/w_min,
    and it is +0.0, -0.0 or positive. When that bound is below the threshold
    the storage rule (`0.0 <= value < threshold`) discards y whatever its
    sum, so each node sums only ys(x), the union of its positive neighbours'
    hops-1 targets, less itself and its own direct targets; otherwise (a
    negative entry, threshold 0, or d*M too close to the threshold) it sums
    every target. With the defaults every inferred value is at most 0.8, so
    d*M <= 0.64 < 0.7.

    ys(x) depends on the trust adjacency alone, so it is built once per
    Dataset, together with, for each positive neighbour i, the positions in
    ys(x) of the targets i can hold: its direct targets and ys(i). A bounded
    round reads only those entries of i's table. That covers every entry it
    needs while each table holds its direct targets at hops 1 and nothing
    outside them and its ys, as after init_network or a bounded round; when
    an unbounded round or a state built by hand breaks this, the round sums
    every target. Every target summed under the bound is held at hops 1 by a
    neighbour, so it is stored at hops 2. Either way every stored value and
    hops is the same, bit for bit.
    """
    tables = state.tables
    adjacency = dataset.trust_adjacency
    index = _bounded_index(tables, dataset, config)
    damping = config.damping
    threshold = config.store_threshold
    new_tables = {}
    max_change = 0.0
    entries_added = 0

    for x, old in tables.items():
        entries = {t: old[t] for t, _ in adjacency.out.get(x, ())}
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


def propagate(dataset: Dataset, config: PropagationConfig | None = None) -> NetworkState:
    """init_network, then run_round until max_change <= tolerance or
    max_rounds rounds have run."""
    if config is None:
        config = PropagationConfig()
    state = init_network(dataset)
    for _ in range(config.max_rounds):
        state, max_change, _ = run_round(state, dataset, config)
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
