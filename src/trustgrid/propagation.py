"""Node-local iterative trust propagation over synchronous gossip rounds.

Each user keeps one trust table, a plain `target -> (trust, hops)` map that
holds direct and inferred entries alike. In every round a node reads only its
positively-trusted direct neighbors' tables from the previous round and
rebuilds its inferred entries: one damped weighted-average value for every
target those tables mention. Every node rebuilds its whole table in every
round, and `propagate` is nothing but repeated rounds until the largest value
change drops below a tolerance.

Direct trust is immutable input: a node finds its neighbors and their weights
in the Dataset's trust adjacency, never in its own table. A table's direct
entries (hops 1) are a copy of that input, kept for snapshots and
query_trust; only inferred entries (hops 2 or more) change from round to
round. DIRECT and INFERRED are the labels query_trust and snapshots derive
from hops.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        for y, (trust, hops) in tables[i].items():
            acc = sums.get(y)
            if acc is None:
                acc = sums[y] = [0.0, 0.0, hops]
            acc[0] += scale * trust
            acc[1] += w
            if hops < acc[2]:
                acc[2] = hops
    return {y: (num / den, 1 + hops) for y, (num, den, hops) in sums.items()}


def infer_trust(x: int, y: int,
                tables: dict[int, dict[int, tuple[float, int]]],
                damping: float) -> float | None:
    """Damped weighted-average trust from x to y through x's trusted neighbors.

    Contributors are x's direct neighbors i with direct trust(x,i) > 0 whose
    table holds an entry for y (direct or inferred, signed values included).
    Returns None when no neighbor can report on y.
    """
    neighbours = [(i, trust) for i, (trust, hops) in tables[x].items()
                  if hops == 1 and trust > 0.0]
    result = _node_average(neighbours, tables, damping).get(y)
    return None if result is None else result[0]


def run_round(state: NetworkState, dataset: Dataset, config: PropagationConfig):
    """One synchronous round: every node rebuilds its table from the round-k
    tables.

    A node keeps its direct entries and infers every other target its
    positive neighbours' tables hold, except itself and positive values
    below the storage threshold. Returns (new_state, max_change,
    entries_added). max_change is the largest absolute difference between an
    inferred entry's old and new value, where appearing/disappearing entries
    count as change from/to 0.
    """
    tables = state.tables
    adjacency = dataset.trust_adjacency
    new_tables = {}
    max_change = 0.0
    entries_added = 0

    for x, old in tables.items():
        entries = {t: old[t] for t, _ in adjacency.out.get(x, ())}
        averages = _node_average(adjacency.positive_out.get(x, ()), tables,
                                 config.damping)
        for y, (value, hops) in averages.items():
            if y == x or y in entries or 0.0 <= value < config.store_threshold:
                continue  # self, a direct target, or too weak to store
            entries[y] = (value, hops)
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
