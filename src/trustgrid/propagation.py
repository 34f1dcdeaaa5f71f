"""Node-local iterative trust propagation over synchronous gossip rounds.

Each user keeps a trust table (direct plus inferred neighbors). In every
round a node reads only its positively-trusted direct neighbors' tables from
the previous round and rebuilds its inferred entries: one damped
weighted-average value for every target those tables mention. A node whose
neighbors' tables did not change has nothing new to learn, so after the
first round `propagate` rebuilds only the tables of nodes that positively
trust a node whose table just changed. Rounds repeat until the largest value
change drops below a tolerance.

Direct trust is immutable input: a node finds its neighbors and their weights
in the Dataset's trust adjacency, never in its own table. A table's direct
entries are a view of that input, kept for snapshots and query_trust; only
inferred entries change from round to round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Dataset, UnknownUserError

DIRECT = "direct"
INFERRED = "inferred"


@dataclass(frozen=True, slots=True)
class TrustEntry:
    target: int
    trust: float
    origin: str  # DIRECT or INFERRED
    hops: int    # 1 for direct entries


@dataclass(slots=True)
class TrustTable:
    owner: int
    entries: dict[int, TrustEntry] = field(default_factory=dict)


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
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")


@dataclass(slots=True)
class NetworkState:
    """All nodes' trust tables after some number of rounds."""

    tables: dict[int, TrustTable]
    round: int = 0
    converged: bool = False


def init_network(dataset: Dataset) -> NetworkState:
    """One table per user, holding exactly the user's direct edges (hops=1)."""
    out = dataset.trust_adjacency.out
    tables = {}
    for user in sorted(dataset.users):
        entries = {t: TrustEntry(t, v, DIRECT, 1) for t, v in out.get(user, ())}
        tables[user] = TrustTable(user, entries)
    return NetworkState(tables)


def _node_average(neighbours, tables, damping):
    """Damped weighted average of what x's neighbours' tables say about each
    target they hold.

    `neighbours` lists x's positive direct (i, trust(x, i)) edges in ascending
    i, so every target sums its contributions in ascending i, which fixes its
    float result. Returns {y: (value, hops)}, hops being one more than the
    fewest among the entries that contributed to y.
    """
    sums = {}
    for i, w in neighbours:
        scale = w * damping
        for y, reported in tables[i].entries.items():
            acc = sums.get(y)
            if acc is None:
                acc = sums[y] = [0.0, 0.0, reported.hops]
            acc[0] += scale * reported.trust
            acc[1] += w
            if reported.hops < acc[2]:
                acc[2] = reported.hops
    return {y: (num / den, 1 + hops) for y, (num, den, hops) in sums.items()}


def infer_trust(x: int, y: int, tables: dict[int, TrustTable],
                damping: float) -> float | None:
    """Damped weighted-average trust from x to y through x's trusted neighbors.

    Contributors are x's direct neighbors i with direct trust(x,i) > 0 whose
    table holds an entry for y (direct or inferred, signed values included).
    Returns None when no neighbor can report on y.
    """
    neighbours = [(i, e.trust) for i, e in tables[x].entries.items()
                  if e.origin == DIRECT and e.trust > 0.0]
    result = _node_average(neighbours, tables, damping).get(y)
    return None if result is None else result[0]


def _apply_round(state: NetworkState, dataset: Dataset,
                 config: PropagationConfig, nodes):
    """Synchronously rebuild the tables of `nodes` from the round-k tables.

    A node keeps its direct entries and infers every other target its
    positive neighbours' tables hold, except itself and positive values
    below the storage threshold. Returns the round-(k+1) state plus
    (max_change, entries_added, changed_nodes).
    """
    tables = state.tables
    adjacency = dataset.trust_adjacency
    new_tables = dict(tables)
    max_change = 0.0
    entries_added = 0
    changed_nodes = []

    for x in nodes:
        old = tables[x].entries
        entries = {t: old[t] for t, _ in adjacency.out.get(x, ())}
        averages = _node_average(adjacency.positive_out.get(x, ()), tables,
                                 config.damping)
        for y, (value, hops) in averages.items():
            if y == x or y in entries or 0.0 <= value < config.store_threshold:
                continue  # self, a direct target, or too weak to store
            prev = old.get(y)
            if prev is None:
                entries_added += 1
                change = abs(value)
            elif prev.trust == value and prev.hops == hops:
                entries[y] = prev
                continue
            else:
                change = abs(prev.trust - value)
            entries[y] = TrustEntry(y, value, INFERRED, hops)
            if change > max_change:
                max_change = change
        for y in old.keys() - entries.keys():  # no neighbour reports y now
            if abs(old[y].trust) > max_change:
                max_change = abs(old[y].trust)
        if entries != old:
            new_tables[x] = TrustTable(x, entries)
            changed_nodes.append(x)

    next_state = NetworkState(new_tables, state.round + 1, state.converged)
    return next_state, max_change, entries_added, changed_nodes


def run_round(state: NetworkState, dataset: Dataset, config: PropagationConfig):
    """One full synchronous round; every node rebuilds its table.

    Returns (new_state, max_change, entries_added). max_change is the largest
    absolute difference between an inferred entry's old and new value, where
    appearing/disappearing entries count as change from/to 0.
    """
    next_state, max_change, entries_added, _ = _apply_round(
        state, dataset, config, state.tables)
    return next_state, max_change, entries_added


def propagate(dataset: Dataset, config: PropagationConfig | None = None) -> NetworkState:
    """Run rounds until max_change <= tolerance or max_rounds is reached.

    After the first round only the nodes that positively trust a node whose
    table just changed rebuild theirs: every other node would read the same
    tables as last round, so results are identical to repeated full
    run_round calls.
    """
    if config is None:
        config = PropagationConfig()
    state = init_network(dataset)
    if config.max_rounds == 0:
        return state

    positive_in = dataset.trust_adjacency.positive_in
    nodes = state.tables
    for _ in range(config.max_rounds):
        state, max_change, _, changed = _apply_round(state, dataset, config, nodes)
        if max_change <= config.tolerance:
            state.converged = True
            break
        nodes = {x for i in changed for x, _ in positive_in.get(i, ())}
    return state


def query_trust(state: NetworkState, x: int, y: int):
    """Entry from x's table as (trust, origin, hops), or None if absent."""
    if x not in state.tables:
        raise UnknownUserError(f"unknown user {x}")
    entry = state.tables[x].entries.get(y)
    if entry is None:
        return None
    return entry.trust, entry.origin, entry.hops
