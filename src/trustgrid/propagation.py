"""Node-local iterative trust propagation over synchronous gossip rounds.

Each user keeps a trust table (direct plus inferred neighbors). In every
round a node reads only its positively-trusted direct neighbors' tables from
the previous round and recomputes damped weighted-average trust values for
every target those tables mention. Rounds repeat until the largest value
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


def _weighted_average(neighbours, y, tables, damping):
    """Damped weighted average of what x's neighbours' tables say about y.

    `neighbours` lists x's positive direct (i, trust(x, i)) edges in ascending
    i, which fixes the float summation order. Returns (value, hops), hops
    being one more than the fewest among the contributing entries, or None
    when no neighbour's table holds y.
    """
    num = 0.0
    den = 0.0
    min_hops = None
    for i, w in neighbours:
        reported = tables[i].entries.get(y)
        if reported is None:
            continue
        num += w * damping * reported.trust
        den += w
        if min_hops is None or reported.hops < min_hops:
            min_hops = reported.hops
    if den == 0.0:
        return None
    return num / den, 1 + min_hops


def infer_trust(x: int, y: int, tables: dict[int, TrustTable],
                damping: float) -> float | None:
    """Damped weighted-average trust from x to y through x's trusted neighbors.

    Contributors are x's direct neighbors i with direct trust(x,i) > 0 whose
    table holds an entry for y (direct or inferred, signed values included).
    Returns None when no neighbor can report on y.
    """
    neighbours = [(i, e.trust) for i, e in tables[x].entries.items()
                  if e.origin == DIRECT and e.trust > 0.0]
    result = _weighted_average(neighbours, y, tables, damping)
    return None if result is None else result[0]


def _dependents(dataset: Dataset, entries) -> set[tuple[int, int]]:
    """Pairs (x, y) whose inference reads one of the table entries (i, y):
    x trusts i directly and positively, y != x, and y is not x's direct
    neighbor (direct entries are never inferred)."""
    positive_in = dataset.trust_adjacency.positive_in
    direct = {x: dataset.trust_neighbors(x) for x in dataset.users}
    pairs = set()
    for i, y in entries:
        for x, _ in positive_in.get(i, ()):
            if y != x and y not in direct[x]:
                pairs.add((x, y))
    return pairs


def _apply_round(state: NetworkState, dataset: Dataset,
                 config: PropagationConfig, pairs):
    """Synchronously recompute `pairs` against round-k tables; returns the
    round-(k+1) state plus (max_change, entries_added, changed_pairs)."""
    tables = state.tables
    positive_out = dataset.trust_adjacency.positive_out
    updates: dict[int, dict[int, TrustEntry | None]] = {}
    max_change = 0.0
    entries_added = 0
    changed: set[tuple[int, int]] = set()

    for x, y in pairs:
        new = _weighted_average(positive_out.get(x, ()), y, tables,
                                config.damping)
        if new is not None and 0.0 <= new[0] < config.store_threshold:
            new = None  # too weak to store
        old = tables[x].entries.get(y)
        if old is None:
            if new is None:
                continue
            entries_added += 1
            change = abs(new[0])
        elif new is None:
            change = abs(old.trust)
        elif new == (old.trust, old.hops):
            continue
        else:
            change = abs(old.trust - new[0])
        if change > max_change:
            max_change = change
        updates.setdefault(x, {})[y] = (
            None if new is None else TrustEntry(y, new[0], INFERRED, new[1]))
        changed.add((x, y))

    new_tables = {}
    for x, table in tables.items():
        if x not in updates:
            new_tables[x] = table
            continue
        entries = dict(table.entries)
        for y, entry in updates[x].items():
            if entry is None:
                entries.pop(y, None)
            else:
                entries[y] = entry
        new_tables[x] = TrustTable(x, entries)

    next_state = NetworkState(new_tables, state.round + 1, state.converged)
    return next_state, max_change, entries_added, changed


def _candidate_pairs(state: NetworkState, dataset: Dataset) -> set[tuple[int, int]]:
    """The pairs reading any table entry, plus every inferred entry: those
    stay under recomputation even after dropping out of all neighbor tables."""
    entries = [(i, y) for i, table in state.tables.items() for y in table.entries]
    inferred = {(x, y) for x, table in state.tables.items()
                for y, e in table.entries.items() if e.origin == INFERRED}
    return _dependents(dataset, entries) | inferred


def run_round(state: NetworkState, dataset: Dataset, config: PropagationConfig):
    """One full synchronous round; every node recomputes every candidate target.

    Returns (new_state, max_change, entries_added). max_change is the largest
    absolute difference between an inferred entry's old and new value, where
    appearing/disappearing entries count as change from/to 0.
    """
    next_state, max_change, entries_added, _ = _apply_round(
        state, dataset, config, sorted(_candidate_pairs(state, dataset)))
    return next_state, max_change, entries_added


def propagate(dataset: Dataset, config: PropagationConfig | None = None) -> NetworkState:
    """Run rounds until max_change <= tolerance or max_rounds is reached.

    Incremental bookkeeping recomputes only pairs whose inputs changed in the
    previous round; results are identical to repeated full run_round calls.
    """
    if config is None:
        config = PropagationConfig()
    state = init_network(dataset)
    if config.max_rounds == 0:
        return state

    pairs = sorted(_candidate_pairs(state, dataset))
    for _ in range(config.max_rounds):
        state, max_change, _, changed = _apply_round(state, dataset, config, pairs)
        if max_change <= config.tolerance:
            state.converged = True
            break
        # a changed pair itself stays live: its entry may need re-removal
        pairs = sorted(_dependents(dataset, changed) | changed)
    return state


def query_trust(state: NetworkState, x: int, y: int):
    """Entry from x's table as (trust, origin, hops), or None if absent."""
    if x not in state.tables:
        raise UnknownUserError(f"unknown user {x}")
    entry = state.tables[x].entries.get(y)
    if entry is None:
        return None
    return entry.trust, entry.origin, entry.hops
