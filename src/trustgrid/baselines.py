"""Reference recommenders: TidalTrust, MoleTrust, simple average, correlation CF.

Both trust baselines run on one breadth-first search, `_Search`, which grows
a level per call and can be resumed. TidalTrust extends it until it reaches
the nearest raters and weights them by a recursively averaged trust
restricted to strongest shortest paths; one walk back from each rater finds
those paths and their threshold. A caller keeps one search per source across
that source's items. MoleTrust levels the graph from the source up to its
horizon (dropping non-forward edges) and, in one pass over the levels, pushes
trust scores along the forward edges. Both feed the usual mean-centered
weighted prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import Dataset, NoRatingsError, RATING_MAX, RATING_MIN

DEFAULT_HORIZON = 3  # MoleTrust's propagation horizon, in BFS levels


@dataclass(slots=True)
class TidalResult:
    predicted: float | None
    depth: int  # -1 when no reachable rater
    raters_considered: set = field(default_factory=set)  # (user, trust, rating)
    queries_issued: int = 0


class _Search:
    """Breadth-first search from `source` over `adj`, grown one level per
    `extend()` call, so a caller can resume it as deep as each query needs.

    `dist` maps every reached node to its distance and `levels[d]` lists the
    nodes at distance d in discovery order; every level but the last has
    been expanded (its nodes' out-lists read). An empty last level means the
    search is exhausted.
    """

    __slots__ = ("adj", "dist", "levels")

    def __init__(self, adj, source):
        self.adj = adj
        self.dist = {source: 0}
        self.levels = [[source]]

    def extend(self) -> bool:
        """Expand the last level; False when that reaches no new node."""
        frontier = self.levels[-1]
        if not frontier:
            return False
        adj = self.adj
        dist = self.dist
        depth = len(self.levels)
        reached = []
        for u in frontier:
            for v, _ in adj.get(u, ()):
                if v not in dist:
                    dist[v] = depth
                    reached.append(v)
        self.levels.append(reached)
        return bool(reached)


def tidal_trust_infer(source: int, sink: int, dataset: Dataset) -> float | None:
    """Inferred trust from source to sink along minimum-depth paths.

    The threshold `max` is the strongest shortest path, where path strength is
    its minimum edge weight; each node then averages only over successors it
    trusts at or above that threshold. None when the sink is unreachable
    through positive edges.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    search = _Search(dataset.trust_adjacency.positive_out, source)
    while sink not in search.dist and search.extend():
        pass
    if sink not in search.dist:
        return None
    return _path_trust(source, sink, search.dist, dataset)[0]


def _path_trust(source, sink, dist, dataset):
    """TidalTrust's recursive average from source to a reachable sink.

    `dist` holds the forward BFS distances from source, exact at least up
    to dist[sink]; deeper entries change nothing, as the walk reads only the
    levels below the sink's. One walk back from the sink, stepping from a
    node at level d + 1 only to predecessors at level d, finds the nodes on
    minimum-depth paths and, for each, the strength of its strongest path to
    the sink (path strength being the minimum edge weight); the source's
    strength is the threshold. A forward pass would give the same threshold,
    as min and max never round. Returns (trust, expansions), expansions
    being the number of nodes whose in-list the walk read.
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
        for u in by_level[level]:
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
    # the source has trust: on a strongest shortest path the last node counts
    # its sink edge, and every earlier one an edge of weight >= threshold to
    # a node with trust, so each den along it is a sum of positive weights
    return trust[source], expansions


def tidal_trust_recommend(source: int, item: int, dataset: Dataset,
                          search: _Search | None = None) -> TidalResult:
    """Trust-weighted average over the max-trust raters at the minimum depth.

    The source's own rating is never used. queries_issued counts BFS node
    expansions, mirroring the per-recommendation query cost of the original
    algorithm: one forward search that stops at the depth of the closest
    raters, then, for each of those raters, the nodes expanded by the walk
    back over its minimum-depth paths to the source.

    `search` is a `_Search` from source over the positive trust edges that a
    caller predicting several items for one source keeps between calls; it
    is extended only while no rater is reached. A resumed search may already
    be deeper than this item needs, so queries_issued counts what a fresh
    search would expand: the nodes at depths below the closest raters', or
    every reached node when the search is exhausted without reaching one.
    """
    raters = dataset.item_raters(item)
    if search is None:
        search = _Search(dataset.trust_adjacency.positive_out, source)
    dist = search.dist

    # the smallest depth (>= 1, the source being at 0) that holds a rater
    while True:
        found_depth = min((dist[u] for u in raters if u in dist and u != source),
                          default=0)
        if found_depth or not search.extend():
            break
    if not found_depth:
        return TidalResult(None, -1, set(), len(dist))
    queries = sum(map(len, search.levels[:found_depth]))
    at_depth = sorted(u for u in raters if dist.get(u) == found_depth)

    trusts = {}
    for rater in at_depth:
        trusts[rater], expansions = _path_trust(source, rater, dist, dataset)
        queries += expansions

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
                      horizon: int = DEFAULT_HORIZON) -> dict[int, float]:
    """Per-node trust scores within `horizon` BFS levels of the source.

    Levels are first-visit BFS distances; only forward edges (level i to i+1)
    survive the cycle-removal step. A node's score is the weighted average of
    its positively-scored predecessors' edge statements. One pass over the
    search's levels, in discovery order, scores a node from the [num, den]
    sums its predecessors pushed to it and then pushes its own score along
    its forward edges, unless it is <= 0 or the node is at the horizon.
    Returns node -> score, without the source.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    adj = dataset.trust_adjacency.out
    search = _Search(adj, source)
    while len(search.levels) <= horizon and search.extend():
        pass
    dist = search.dist

    scores: dict[int, float] = {}
    sums: dict[int, list[float]] = {}
    for level, nodes in enumerate(search.levels):
        for u in nodes:
            if level == 0:
                score = 1.0
            else:
                acc = sums.get(u)
                if acc is None:
                    continue
                score = scores[u] = acc[0] / acc[1]
            if score > 0.0 and level < horizon:
                for v, edge in adj.get(u, ()):
                    if dist.get(v) == level + 1:
                        acc = sums.get(v)
                        if acc is None:
                            # 0.0 + x turns a -0.0 product into 0.0, as sum() does
                            sums[v] = [0.0 + score * edge, 0.0 + score]
                        else:
                            acc[0] += score * edge
                            acc[1] += score
    return scores


def mole_trust_predict(a: int, item: int, weights: dict[int, float],
                       dataset: Dataset) -> float | None:
    """Mean-centered weighted prediction of user a's rating on `item`.

    weights maps neighbor user -> positive weight (trust score or similarity).
    a's own rating of `item`, if any, is left out: a's mean is taken over its
    other items, and a never contributes. None when no weighted user rated
    the item or a rated nothing else. Result clamped to the rating scale.
    """
    raters = dataset.item_raters(item)
    contributors = [(u, weights[u]) for u in sorted(raters)
                    if u != a and u in weights]
    if not contributors:
        return None
    try:
        a_mean = dataset.mean_rating(a, exclude_item=item)
    except NoRatingsError:
        return None
    num = sum(w * (raters[u] - dataset.mean_rating(u)) for u, w in contributors)
    den = sum(w for _, w in contributors)
    return min(RATING_MAX, max(RATING_MIN, a_mean + num / den))


def pearson_similarity(u: int, v: int, item: int, dataset: Dataset) -> float | None:
    """Pearson correlation over the items both users rated other than
    `item`, the one being predicted; None below 2 such items or when either
    user's ratings of them have zero variance."""
    pu = dataset.user_ratings(u)
    pv = dataset.user_ratings(v)
    common = [i for i in pu if i in pv and i != item]
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
                           co_ratings: dict[int, int] | None = None) -> float | None:
    """Correlation-based CF: mean-centered prediction weighted by positive
    Pearson similarity between a and the item's raters, without a's rating
    of `item`.

    `co_ratings` is a's `co_rating_counts`, computed here when not given; a
    caller predicting several items for one user passes them in. A rater
    with fewer than two co-rated items besides `item` (which it rated) has
    no Pearson similarity, so it is skipped without computing one.
    """
    if co_ratings is None:
        co_ratings = co_rating_counts(a, dataset)
    held_out = item in dataset.user_ratings(a)
    weights = {}
    for u in dataset.item_raters(item):
        if u == a or co_ratings.get(u, 0) - held_out < 2:
            continue
        sim = pearson_similarity(a, u, item, dataset)
        if sim is not None and sim > 0.0:
            weights[u] = sim
    if not weights:
        return None
    return mole_trust_predict(a, item, weights, dataset)


def simple_average(user: int, item: int, dataset: Dataset) -> float | None:
    """Plain mean of the item's ratings by raters other than `user`, None
    if there are none; ratings are integers, so their sum less `user`'s is exact."""
    raters = dataset.item_raters(item)
    count = len(raters) - (user in raters)
    if not count:
        return None
    return (sum(raters.values()) - raters.get(user, 0)) / count
