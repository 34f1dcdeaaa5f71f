"""Independent references used by the test suite.

`dense_fixed_point` recomputes the damped weighted-average trust values over
all ordered user pairs with plain nested loops and no per-node table or
message-passing structure, as a cross-check for the distributed simulator.
`reference_round` is one synchronous round on its definition: every node
averages every target its neighbours' tables hold, then filters, as a
bit-for-bit check of `run_round` and of the rounds of `propagate`, which
sums only the targets it can store.
"""

import random


def random_graph(rng: random.Random, max_nodes=10, signed=True, p_edge=0.35):
    """Random directed graph as {(source, target): value}."""
    n = rng.randint(2, max_nodes)
    edges = {}
    for s in range(n):
        for t in range(n):
            if s != t and rng.random() < p_edge:
                if signed and rng.random() < 0.25:
                    value = -rng.uniform(0.05, 1.0)
                else:
                    value = rng.uniform(0.05, 1.0)
                edges[(s, t)] = value
    return n, edges


def dense_fixed_point(n, edges, damping, threshold, max_rounds=50, tol=0.0):
    """Centralized synchronous iteration of the damped trust update.

    Returns the map of inferred (source, target) -> value after convergence
    (largest change <= tol) or max_rounds.
    """
    inferred = {}
    for _ in range(max_rounds):
        known = dict(edges)
        known.update(inferred)
        new = {}
        max_change = 0.0
        for x in range(n):
            for y in range(n):
                if x == y or (x, y) in edges:
                    continue
                num = 0.0
                den = 0.0
                for i in range(n):
                    w = edges.get((x, i))
                    if w is None or w <= 0.0 or (i, y) not in known:
                        continue
                    num += w * damping * known[(i, y)]
                    den += w
                if den == 0.0:
                    continue
                value = num / den
                if value >= threshold or value < 0.0:
                    new[(x, y)] = value
        keys = set(new) | set(inferred)
        for key in keys:
            change = abs(new.get(key, 0.0) - inferred.get(key, 0.0))
            if change > max_change:
                max_change = change
        inferred = new
        if max_change <= tol:
            break
    return inferred


def node_averages(tables, neighbours, damping):
    """{y: (value, hops)} for every target the tables of `neighbours` (x's
    positive (i, weight) edges, ascending i) hold: the damped weighted
    average, summed in ascending i, and one more than the fewest hops."""
    targets = {y for i, _ in neighbours for y in tables[i]}
    averages = {}
    for y in targets:
        num = 0.0
        den = 0.0
        hops = None
        for i, w in neighbours:
            entry = tables[i].get(y)
            if entry is None:
                continue
            num += w * damping * entry[0]
            den += w
            hops = entry[1] if hops is None else min(hops, entry[1])
        averages[y] = (num / den, hops + 1)
    return averages


def reference_round(tables, dataset, damping, threshold):
    """(tables, max_change, entries_added) of one synchronous round: each
    node keeps its direct entries and stores every average except for
    itself, a direct target or a value in [0, threshold)."""
    adjacency = dataset.trust_adjacency
    new_tables = {}
    changes = [0.0]
    added = 0
    for x, old in tables.items():
        entries = {t: old[t] for t, _ in adjacency.out.get(x, ())}
        averages = node_averages(tables, adjacency.positive_out.get(x, ()),
                                 damping)
        for y, (value, hops) in averages.items():
            if y == x or y in entries or 0.0 <= value < threshold:
                continue
            entries[y] = (value, hops)
            if y in old:
                changes.append(abs(old[y][0] - value))
            else:
                added += 1
                changes.append(abs(value))
        changes.extend(abs(old[y][0]) for y in old if y not in entries)
        new_tables[x] = entries
    return new_tables, max(changes), added
