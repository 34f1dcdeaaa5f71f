"""Reference recommenders: TidalTrust, MoleTrust, simple average, correlation CF.

TidalTrust searches breadth-first for the nearest raters and weights them by a
recursively averaged trust restricted to strongest shortest paths; one walk
back from each rater finds those paths and their threshold. MoleTrust levels
the graph from the source (dropping non-forward edges) and, in one pass over
the levels, pushes trust scores along the forward edges. Both feed the usual
mean-centered weighted prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import Dataset, NoRatingsError, RATING_MAX, RATING_MIN


@dataclass(slots=True)
class TidalResult:
    predicted: float | None
    depth: int  # -1 when no reachable rater
    raters_considered: set = field(default_factory=set)  # (user, trust, rating)
    queries_issued: int = 0


def _bfs_distances(adj, start, max_depth=None, targets=frozenset()):
    """Breadth-first distances from `start` over `adj`, level by level.

    The search stops after `max_depth` levels, or after the first level that
    reaches a node in `targets`; the nodes of that last level are reached but
    never expanded. Returns (dist, expansions), expansions being the number
    of nodes whose out-list was read.
    """
    dist = {start: 0}
    frontier = [start]
    depth = 0
    expansions = 0
    while frontier and depth != max_depth:
        depth += 1
        reached = []
        for u in frontier:
            for v, _ in adj.get(u, ()):
                if v not in dist:
                    dist[v] = depth
                    reached.append(v)
        expansions += len(frontier)
        frontier = reached
        if not targets.isdisjoint(frontier):
            break
    return dist, expansions


def tidal_trust_infer(source: int, sink: int, dataset: Dataset) -> float | None:
    """Inferred trust from source to sink along minimum-depth paths.

    The threshold `max` is the strongest shortest path, where path strength is
    its minimum edge weight; each node then averages only over successors it
    trusts at or above that threshold. None when the sink is unreachable
    through positive edges.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    adj = dataset.trust_adjacency.positive_out
    dist, _ = _bfs_distances(adj, source, targets={sink})
    if sink not in dist:
        return None
    return _path_trust(source, sink, dist, dataset)[0]


def _path_trust(source, sink, dist, dataset):
    """TidalTrust's recursive average from source to a reachable sink.

    `dist` holds the forward BFS distances from source, exact up to
    dist[sink]. One walk back from the sink, stepping from a node at level
    d + 1 only to predecessors at level d, finds the nodes on minimum-depth
    paths and, for each, the strength of its strongest path to the sink
    (path strength being the minimum edge weight); the source's strength is
    the threshold. A forward pass would give the same threshold, as min and
    max never round. Returns (trust or None, expansions), expansions being
    the number of nodes whose in-list the walk read.
    """
    adj = dataset.trust_adjacency.positive_out
    pred = dataset.trust_adjacency.positive_in
    depth = dist[sink]

    # nodes on minimum-depth paths, level by level, with their path strength
    strength = {sink: math.inf}
    by_level: dict[int, list[int]] = {}
    frontier = [sink]
    expansions = 0
    for level in range(depth - 1, -1, -1):
        reached = []
        for v in frontier:
            for p, w in pred.get(v, ()):
                if dist.get(p) == level:
                    if p not in strength:
                        reached.append(p)
                    strength[p] = max(strength.get(p, -math.inf),
                                      min(w, strength[v]))
        expansions += len(frontier)
        by_level[level] = frontier = reached
    threshold = strength[source]

    # recursive weighted average, computed backwards level by level; a
    # same-level neighbour may already be in `trust`, hence the level test
    trust: dict[int, float] = {}
    for level in range(depth - 1, -1, -1):
        for u in sorted(by_level[level]):
            num = 0.0
            den = 0.0
            for v, w in adj.get(u, ()):
                if v == sink:
                    num += w * w
                    den += w
                elif v in trust and dist[v] == level + 1 and w >= threshold:
                    num += w * trust[v]
                    den += w
            if den > 0.0:
                trust[u] = num / den
    return trust.get(source), expansions


def tidal_trust_recommend(source: int, item: int, dataset: Dataset) -> TidalResult:
    """Trust-weighted average over the max-trust raters at the minimum depth.

    The source's own rating is never used. queries_issued counts BFS node
    expansions, mirroring the per-recommendation query cost of the original
    algorithm: one forward search that stops at the depth of the closest
    raters, then, for each of those raters, the nodes expanded by the walk
    back over its minimum-depth paths to the source.
    """
    raters = dataset.item_raters(item)
    adj = dataset.trust_adjacency.positive_out

    # breadth-first search for the closest raters; the path DP reuses it
    dist, queries = _bfs_distances(adj, source, targets=raters.keys())
    at_depth = sorted(u for u in raters if u != source and u in dist)
    if not at_depth:
        return TidalResult(None, -1, set(), queries)
    found_depth = dist[at_depth[0]]

    trusts = {}
    for rater in at_depth:
        t, expansions = _path_trust(source, rater, dist, dataset)
        queries += expansions
        if t is not None:
            trusts[rater] = t
    if not trusts:
        return TidalResult(None, -1, set(), queries)

    best = max(trusts.values())
    selected = {(u, t, raters[u]) for u, t in trusts.items() if t == best}
    num = sum(t * r for _, t, r in selected)
    den = sum(t for _, t, _ in selected)
    if den > 0.0:
        predicted = num / den
    else:
        predicted = sum(r for _, _, r in selected) / len(selected)
    return TidalResult(predicted, found_depth, selected, queries)


def mole_trust_scores(source: int, dataset: Dataset,
                      horizon: int = 3) -> dict[int, float]:
    """Per-node trust scores within `horizon` BFS levels of the source.

    Levels are first-visit BFS distances; only forward edges (level i to i+1)
    survive the cycle-removal step. A node's score is the weighted average of
    its positively-scored predecessors' edge statements. One pass over the
    BFS distances, which list each level after the one before it, scores a
    node from its predecessors' statements and then passes its own score on
    along its forward edges, unless it is <= 0 or the node is at the horizon.
    Returns node -> score, without the source.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    adj = dataset.trust_adjacency.out
    dist, _ = _bfs_distances(adj, source, max_depth=horizon)

    scores: dict[int, float] = {}
    incoming: dict[int, list[tuple[float, float]]] = {}
    for u, level in dist.items():
        if level == 0:
            score = 1.0
        else:
            preds = incoming.get(u)
            if not preds:
                continue
            num = sum(sp * edge for sp, edge in preds)
            den = sum(sp for sp, _ in preds)
            score = scores[u] = num / den
        if score > 0.0 and level < horizon:
            for v, edge in adj.get(u, ()):
                if dist.get(v) == level + 1:
                    incoming.setdefault(v, []).append((score, edge))
    return scores


def mole_trust_predict(a: int, item: int, weights: dict[int, float],
                       dataset: Dataset, exclude_item: int | None = None) -> float | None:
    """Mean-centered weighted prediction of user a's rating on `item`.

    weights maps neighbor user -> positive weight (trust score or similarity).
    `exclude_item` is dropped from a's own profile before computing the mean
    (leave-one-out support). None when no weighted user rated the item or a's
    mean is undefined. Result clamped to the rating scale.
    """
    raters = dataset.item_raters(item)
    contributors = [(u, weights[u]) for u in sorted(raters)
                    if u != a and u in weights]
    if not contributors:
        return None
    try:
        a_mean = dataset.mean_rating(a, exclude_item=exclude_item)
    except NoRatingsError:
        return None
    num = sum(w * (raters[u] - dataset.mean_rating(u)) for u, w in contributors)
    den = sum(w for _, w in contributors)
    if den == 0.0:
        return None
    return min(RATING_MAX, max(RATING_MIN, a_mean + num / den))


def pearson_similarity(u: int, v: int, dataset: Dataset,
                       exclude_item: int | None = None) -> float | None:
    """Pearson correlation over co-rated items; None below 2 overlapping items
    or when either user's overlap ratings have zero variance."""
    pu = dataset.user_ratings(u)
    pv = dataset.user_ratings(v)
    common = [i for i in pu if i in pv and i != exclude_item]
    if len(common) < 2:
        return None
    mu = sum(pu[i] for i in common) / len(common)
    mv = sum(pv[i] for i in common) / len(common)
    cov = sum((pu[i] - mu) * (pv[i] - mv) for i in common)
    var_u = sum((pu[i] - mu) ** 2 for i in common)
    var_v = sum((pv[i] - mv) ** 2 for i in common)
    if var_u == 0.0 or var_v == 0.0:
        return None
    r = cov / math.sqrt(var_u * var_v)
    return min(1.0, max(-1.0, r))


def co_rating_counts(a: int, dataset: Dataset) -> dict[int, int]:
    """u -> number of items both a and u rated, for every user u who shares
    at least one rated item with a (a itself included, with a's profile size).
    """
    counts: dict[int, int] = {}
    for i in dataset.user_ratings(a):
        for u in dataset.item_raters(i):
            counts[u] = counts.get(u, 0) + 1
    return counts


def correlation_cf_predict(a: int, item: int, dataset: Dataset,
                           exclude_item: int | None = None,
                           co_ratings: dict[int, int] | None = None) -> float | None:
    """Correlation-based CF: mean-centered prediction weighted by positive
    Pearson similarity between a and the item's raters.

    `co_ratings` is a's `co_rating_counts`, computed here when not given; a
    caller predicting several items for one user passes them in. A rater
    left with fewer than two co-rated items once `exclude_item` is dropped
    has no Pearson similarity, so it is skipped without computing one.
    """
    if co_ratings is None:
        co_ratings = co_rating_counts(a, dataset)
    profile = dataset.user_ratings(a)
    dropped = dataset.item_raters(exclude_item) if exclude_item in profile else {}
    weights = {}
    for u in dataset.item_raters(item):
        if u == a or co_ratings.get(u, 0) - (u in dropped) < 2:
            continue
        sim = pearson_similarity(a, u, dataset, exclude_item=exclude_item)
        if sim is not None and sim > 0.0:
            weights[u] = sim
    if not weights:
        return None
    return mole_trust_predict(a, item, weights, dataset, exclude_item=exclude_item)


def simple_average(item: int, dataset: Dataset,
                   exclude: int | None = None) -> float | None:
    """Plain mean of the item's ratings, optionally excluding one rater."""
    raters = dataset.item_raters(item)
    values = [v for u, v in raters.items() if u != exclude]
    if not values:
        return None
    return sum(values) / len(values)
