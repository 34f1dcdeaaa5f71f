import random
from collections import deque
from fractions import Fraction

import pytest
from pytest import approx

from trustgrid import baselines
from trustgrid.baselines import (co_rating_counts, correlation_cf_predict,
                                 mole_trust_predict, mole_trust_scores,
                                 pearson_similarity, simple_average,
                                 tidal_trust_infer, tidal_trust_recommend)
from trustgrid.model import Dataset


def test_tidal_infer_single_chain():
    ds = Dataset([], [(0, 1, 0.9), (1, 9, 0.8)])
    assert tidal_trust_infer(0, 9, ds) == approx(0.8)


def test_tidal_infer_two_paths_max_threshold():
    ds = Dataset([], [(0, 1, 1.0), (1, 9, 0.6), (0, 2, 1.0), (2, 9, 1.0)])
    assert tidal_trust_infer(0, 9, ds) == approx(0.8)


def test_tidal_infer_unreachable():
    ds = Dataset([], [(0, 1, 1.0)], users=[9])
    assert tidal_trust_infer(0, 9, ds) is None


def test_search_baselines_refuse_invalid_arguments():
    ds = Dataset([], [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="source and sink must differ"):
        tidal_trust_infer(0, 0, ds)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        mole_trust_scores(0, ds, 0)


def test_tidal_infer_direct_edge():
    ds = Dataset([], [(0, 9, 0.4)])
    assert tidal_trust_infer(0, 9, ds) == approx(0.4)


def test_tidal_infer_uniform_chain_equals_terminal_weight():
    # with equal intermediate weights the recursive average telescopes to the
    # final edge weight; verify on chains up to length 6
    for length in range(2, 7):
        for w in (0.3, 0.7, 1.0):
            edges = [(i, i + 1, w) for i in range(length - 1)]
            edges.append((length - 1, length, 0.55))
            ds = Dataset([], edges)
            assert tidal_trust_infer(0, length, ds) == approx(0.55)


def test_tidal_recommend_equal_trust_averages():
    ds = Dataset([(1, 7, 4), (2, 7, 2)], [(0, 1, 1.0), (0, 2, 1.0)])
    res = tidal_trust_recommend(0, 7, ds)
    assert res.predicted == approx(3.0)
    assert res.depth == 1
    assert {u for u, _, _ in res.raters_considered} == {1, 2}


def test_tidal_recommend_zero_trust_averages_ratings():
    # 1e-200 * 1e-200 underflows to 0.0, so each rater's path trust is 0 and
    # the selected trusts sum to 0: the prediction is the raters' plain mean
    ds = Dataset([(1, 7, 5), (2, 7, 2)], [(0, 1, 1e-200), (0, 2, 1e-200)])
    res = tidal_trust_recommend(0, 7, ds)
    assert res.predicted == approx(3.5)
    assert res.depth == 1
    assert res.raters_considered == {(1, 0.0, 5), (2, 0.0, 2)}


def test_tidal_recommend_unreachable_item():
    # only a negative edge leads to the other rater, so the search ends
    # exhausted after expanding each node it reached: 0, 1, 3 and 2
    ds = Dataset([(0, 7, 3), (5, 7, 4)],
                 [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 5, -1.0)])
    res = tidal_trust_recommend(0, 7, ds)
    assert res.predicted is None and res.depth == -1
    assert res.raters_considered == set()
    assert res.queries_issued == 4


def test_tidal_recommend_own_rating_ignored():
    ds = Dataset([(0, 7, 5), (1, 7, 2)], [(0, 1, 1.0)])
    res = tidal_trust_recommend(0, 7, ds)
    assert res.predicted == approx(2.0)


def test_tidal_recommend_queries_counted():
    ds = Dataset([(2, 7, 4)], [(0, 1, 1.0), (1, 2, 1.0)])
    assert tidal_trust_recommend(0, 7, ds).queries_issued > 0


def test_tidal_recommend_queries_on_two_shortest_paths():
    # 0 -> {1, 2, 5}, 1 -> 3, 2 -> {3, 4}; raters 3 and 4, both at depth 2.
    # Forward search: level 1 expands 0, level 2 expands 1, 2 and 5 and
    # reaches the raters (4). Walk back from 3: 3, then 1 and 2 (3). Walk
    # back from 4: 4, then 2 (2). Total 4 + 3 + 2 = 9.
    ds = Dataset([(3, 7, 4), (4, 7, 2)],
                 [(0, 1, 1.0), (0, 2, 1.0), (0, 5, 1.0),
                  (1, 3, 1.0), (2, 3, 1.0), (2, 4, 1.0)])
    res = tidal_trust_recommend(0, 7, ds)
    assert res.depth == 2 and res.predicted == approx(3.0)
    assert res.queries_issued == 9


def _binary_recommend_oracle(source, item, edges, ratings):
    """Plain BFS: average of the item's raters at the minimum depth."""
    adj = {}
    for s, t in edges:
        adj.setdefault(s, []).append(t)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    raters = {u: r for u, r in ratings.items() if u != source and u in dist}
    if not raters:
        return None, -1
    depth = min(dist[u] for u in raters)
    at_depth = [r for u, r in raters.items() if dist[u] == depth]
    return sum(at_depth) / len(at_depth), depth


def test_tidal_binary_trust_degenerates_to_depth_average():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(3, 15)
        edges = {(s, t) for s in range(n) for t in range(n)
                 if s != t and rng.random() < 0.2}
        ratings = {u: rng.randint(1, 5) for u in range(n) if rng.random() < 0.5}
        item = 1000
        ds = Dataset([(u, item, r) for u, r in sorted(ratings.items())],
                     [(s, t, 1.0) for s, t in sorted(edges)],
                     users=range(n), items=[item])
        expected, expected_depth = _binary_recommend_oracle(0, item, edges, ratings)
        res = tidal_trust_recommend(0, item, ds)
        if expected is None:
            assert res.predicted is None and res.depth == -1
        else:
            assert res.depth == expected_depth
            assert res.predicted == approx(expected)


def _min_depth_paths(source, sink, positive):
    """Every minimum-length path from source to sink, by depth-first search
    at increasing length limits; [] when the sink is unreachable."""
    for limit in range(1, len(positive) + 2):
        paths = []

        def extend(path):
            if len(path) - 1 == limit:
                if path[-1] == sink:
                    paths.append(path)
                return
            for v in positive.get(path[-1], {}):
                if v not in path:
                    extend(path + [v])

        extend([source])
        if paths:
            return paths
    return []


def _tidal_trust_oracle(source, sink, positive):
    """Golbeck's TidalTrust on the minimum-depth paths, in exact arithmetic.

    The threshold is the max over those paths of their min edge weight. A
    node that rates the sink directly uses that rating; any other node
    averages its successors' trust, weighted by the edge, over the path
    edges at or above the threshold. None when the sink is unreachable.
    """
    paths = _min_depth_paths(source, sink, positive)
    if not paths:
        return None
    w = {(u, v): Fraction(positive[u][v]) for u in positive for v in positive[u]}
    threshold = max(min(w[e] for e in zip(p, p[1:])) for p in paths)
    successors = {}
    for p in paths:
        for u, v in zip(p, p[1:]):
            successors.setdefault(u, set()).add(v)

    def trust(u):
        if sink in successors[u]:
            return w[u, sink]
        num = den = 0
        for v in successors[u]:
            t = trust(v)
            if w[u, v] >= threshold and t is not None:
                num += w[u, v] * t
                den += w[u, v]
        return num / den if den else None

    return trust(source)


def _weighted_graph(rng, n):
    """Random signed edges: positive weights in (0, 1], some negative."""
    edges = {}
    for s in range(n):
        for t in range(n):
            if s != t and rng.random() < 0.25:
                if rng.random() < 0.15:
                    edges[s, t] = -rng.choice([1.0, rng.uniform(0.05, 1.0)])
                else:
                    edges[s, t] = rng.choice([1.0, round(rng.uniform(0.05, 1.0), 2),
                                              rng.uniform(0.05, 1.0)])
    positive = {}
    for (s, t), v in edges.items():
        if v > 0.0:
            positive.setdefault(s, {})[t] = v
    return edges, positive


def test_tidal_weighted_matches_path_enumeration_oracle():
    rng = random.Random(2005)
    item = 1000
    compared = 0
    for _ in range(100):
        n = rng.randint(3, 10)
        edges, positive = _weighted_graph(rng, n)
        ratings = {u: rng.randint(1, 5) for u in range(n) if rng.random() < 0.4}
        ds = Dataset([(u, item, r) for u, r in sorted(ratings.items())],
                     [(s, t, v) for (s, t), v in sorted(edges.items())],
                     users=range(n), items=[item])

        for sink in range(1, n):
            expected = _tidal_trust_oracle(0, sink, positive)
            got = tidal_trust_infer(0, sink, ds)
            if expected is None:
                assert got is None
            else:
                assert got == approx(float(expected))
                compared += 1

        depths = {}
        for u in ratings:
            paths = _min_depth_paths(0, u, positive) if u != 0 else []
            if paths:
                depths[u] = len(paths[0]) - 1
        res = tidal_trust_recommend(0, item, ds)
        if not depths:
            assert (res.predicted, res.depth, res.raters_considered) == (None, -1, set())
            continue
        depth = min(depths.values())
        trusts = {u: _tidal_trust_oracle(0, u, positive)
                  for u, d in depths.items() if d == depth}
        best = max(trusts.values())
        selected = {u: t for u, t in trusts.items() if t == best}
        expected = (sum(t * ratings[u] for u, t in selected.items())
                    / sum(selected.values()))
        assert res.depth == depth
        assert res.predicted == approx(float(expected))
        assert {u for u, _, _ in res.raters_considered} == set(selected)
        for u, t, r in res.raters_considered:
            assert t == approx(float(selected[u])) and r == ratings[u]
    assert compared > 200


def test_mole_scores_direct():
    ds = Dataset([], [(0, 1, 0.8)])
    assert mole_trust_scores(0, ds) == {1: approx(0.8)}


def test_mole_scores_two_predecessors():
    ds = Dataset([], [(0, 1, 1.0), (0, 2, 0.5), (1, 3, 1.0), (2, 3, 0.2)])
    scores = mole_trust_scores(0, ds)
    assert scores[3] == approx(1.1 / 1.5)


def test_mole_scores_back_edge_ignored():
    ds = Dataset([], [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.5)])
    scores = mole_trust_scores(0, ds)
    assert 0 not in scores
    assert scores == {1: approx(1.0), 2: approx(0.5)}


def test_mole_scores_horizon_cutoff():
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert 3 not in mole_trust_scores(0, ds, horizon=2)


def test_mole_scores_edge_order_invariant():
    rng = random.Random(42)
    edges = [(s, t, rng.uniform(0.1, 1.0))
             for s in range(8) for t in range(8) if s != t and rng.random() < 0.4]
    shuffled = edges[:]
    rng.shuffle(shuffled)
    a = mole_trust_scores(0, Dataset([], edges))
    b = mole_trust_scores(0, Dataset([], shuffled))
    assert a == b


def _bfs_levels(source, adj):
    """First-visit distances of a queue-driven BFS over `adj`."""
    level = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in sorted(adj.get(u, {})):
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _mole_trust_reference(source, adj, horizon):
    """MoleTrust from its definition: a node within the horizon scores the
    average of the edge statements of its positively scored predecessors one
    BFS level closer, weighted by their scores (the source scores 1).

    The sums run left to right over the predecessors in BFS order, starting
    from 0 as sum() does, so the result does not depend on the Python
    version (3.12 made float sum() compensated)."""
    level = _bfs_levels(source, adj)
    score = {source: 1.0}
    for u in sorted(level, key=level.get):
        if not 0 < level[u] <= horizon:
            continue
        preds = [(sp, adj[p][u]) for p, sp in score.items()
                 if sp > 0.0 and level[p] == level[u] - 1 and u in adj.get(p, {})]
        if preds:
            num = den = 0
            for sp, e in preds:
                num += sp * e
                den += sp
            score[u] = num / den
    del score[source]
    return score


def test_mole_scores_match_definition_on_signed_graphs():
    rng = random.Random(2007)
    blocked = 0  # forward edges out of a node scored <= 0, within the horizon
    for _ in range(150):
        n = rng.randint(3, 12)
        edges, _ = _weighted_graph(rng, n)
        adj = {}
        for (s, t), v in edges.items():
            adj.setdefault(s, {})[t] = v
        ds = Dataset([], [(s, t, v) for (s, t), v in sorted(edges.items())],
                     users=range(n))
        for horizon in (1, 2, 3, 4):
            expected = _mole_trust_reference(0, adj, horizon)
            got = mole_trust_scores(0, ds, horizon)
            # bitwise, and in BFS discovery order
            assert list(got.items()) == list(expected.items())
        level = _bfs_levels(0, adj)
        scores = _mole_trust_reference(0, adj, 4)
        blocked += sum(1 for (s, t) in edges
                       if scores.get(s, 1.0) <= 0.0 and level.get(t) == level[s] + 1
                       and level[t] <= 4)
    assert blocked > 0


def test_mole_predict_single_neighbor():
    # a's mean is 3; the neighbor's mean is 4 and rated the item 5
    ds = Dataset([(0, 1, 3), (9, 1, 3), (9, 5, 5)])
    assert mole_trust_predict(0, 5, {9: 0.5}, ds) == approx(4.0)


def test_mole_predict_no_rater():
    ds = Dataset([(0, 1, 3), (2, 5, 4)])
    assert mole_trust_predict(0, 5, {7: 1.0}, ds) is None


def test_mole_predict_zero_deviation():
    ds = Dataset([(0, 1, 3), (9, 1, 4), (9, 5, 4)])
    assert mole_trust_predict(0, 5, {9: 0.9}, ds) == approx(3.0)


def test_mole_predict_clamped():
    ds = Dataset([(0, 1, 5), (9, 1, 1), (9, 5, 5)])
    # 5 + (5 - 3) = 7 before clamping
    assert mole_trust_predict(0, 5, {9: 1.0}, ds) == 5.0


# item 9, the one predicted, is rated by neither user in the pearson cases
def test_pearson_identical_profiles():
    ds = Dataset([(0, 1, 1), (0, 2, 5), (1, 1, 1), (1, 2, 5)])
    assert pearson_similarity(0, 1, 9, ds) == approx(1.0)


def test_pearson_anticorrelated():
    ds = Dataset([(0, 1, 1), (0, 2, 5), (1, 1, 5), (1, 2, 1)])
    assert pearson_similarity(0, 1, 9, ds) == approx(-1.0)


def test_pearson_single_overlap():
    ds = Dataset([(0, 1, 3), (1, 1, 3), (1, 2, 4)])
    assert pearson_similarity(0, 1, 9, ds) is None


def test_pearson_zero_variance():
    ds = Dataset([(0, 1, 3), (0, 2, 3), (1, 1, 1), (1, 2, 5)])
    assert pearson_similarity(0, 1, 9, ds) is None


def test_pearson_symmetric():
    rng = random.Random(7)
    for _ in range(30):
        ratings = [(u, i, rng.randint(1, 5))
                   for u in (0, 1) for i in range(6) if rng.random() < 0.8]
        ds = Dataset(ratings)
        if 0 in ds.users and 1 in ds.users:
            for item in range(7):
                assert (pearson_similarity(0, 1, item, ds)
                        == pearson_similarity(1, 0, item, ds))


def _cf_reference(a, item, ds):
    """Correlation CF by its definition: a Pearson similarity for every rater."""
    weights = {}
    for u in ds.item_raters(item):
        if u != a:
            sim = pearson_similarity(a, u, item, ds)
            if sim is not None and sim > 0.0:
                weights[u] = sim
    if not weights:
        return None
    return mole_trust_predict(a, item, weights, ds)


def _cf_cases(seed):
    """(dataset, user, item) on random rating sets, for every user and item,
    so items the user rated and items it did not."""
    rng = random.Random(seed)
    for _ in range(25):
        n_users, n_items = rng.randint(3, 10), rng.randint(3, 8)
        density = rng.uniform(0.3, 0.9)
        ratings = [(u, i, rng.randint(1, 5)) for u in range(n_users)
                   for i in range(n_items) if rng.random() < density]
        ds = Dataset(ratings)
        for a in sorted(ds.users):
            for item in sorted(ds.items):
                yield ds, a, item


def test_cf_matches_definition_with_and_without_counts():
    predicted = 0
    for ds, a, item in _cf_cases(seed=31):
        want = _cf_reference(a, item, ds)
        assert correlation_cf_predict(a, item, ds) == want
        counts = co_rating_counts(a, ds)
        assert correlation_cf_predict(a, item, ds, co_ratings=counts) == want
        predicted += want is not None
    assert predicted > 100


def test_co_rating_counts():
    ds = Dataset([(0, 1, 3), (0, 2, 4), (1, 1, 5), (1, 2, 2), (2, 2, 1), (2, 3, 1)])
    assert co_rating_counts(0, ds) == {0: 2, 1: 2, 2: 1}
    assert co_rating_counts(2, ds) == {0: 1, 1: 1, 2: 2}


def test_cf_computes_similarity_only_with_two_co_ratings(monkeypatch):
    pairs = []
    original = baselines.pearson_similarity

    def counting(u, v, item, dataset):
        pu, pv = dataset.user_ratings(u), dataset.user_ratings(v)
        pairs.append(sum(1 for i in pu if i in pv and i != item))
        return original(u, v, item, dataset)

    monkeypatch.setattr(baselines, "pearson_similarity", counting)
    for ds, a, item in _cf_cases(seed=32):
        correlation_cf_predict(a, item, ds)
    assert pairs and min(pairs) >= 2


# user 9, for whom the average is predicted, did not rate item 7
def test_simple_average():
    ds = Dataset([(0, 7, 4), (1, 7, 2)], users=[9])
    assert simple_average(9, 7, ds) == approx(3.0)


def test_simple_average_exclude_only_rater():
    ds = Dataset([(0, 7, 4)])
    assert simple_average(0, 7, ds) is None


def test_simple_average_leaves_the_user_out_bit_for_bit():
    # the mean less the user's rating equals the mean of a copy without it,
    # for a user who rated the item and for one who did not (user 40)
    rng = random.Random(5)
    ratings = [(u, i, rng.randint(1, 5)) for u in range(40) for i in range(60)
               if rng.random() < 0.2]
    ds = Dataset(ratings, users=[40])
    for item in sorted(ds.items):
        raters = ds.item_raters(item)
        for user in (*raters, 40):
            rest = [v for u, v in raters.items() if u != user]
            expected = sum(rest) / len(rest) if rest else None
            assert simple_average(user, item, ds) == expected
    ds = Dataset([(0, 7, 4), (0, 8, 2), (1, 8, 5)])
    assert simple_average(0, 7, ds) is None
    assert simple_average(0, 8, ds) == 5.0


def test_simple_average_consensus():
    ds = Dataset([(0, 7, 5), (1, 7, 5), (2, 7, 5)], users=[9])
    assert simple_average(9, 7, ds) == 5.0


def test_predictions_stay_in_rating_range():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(4, 12)
        edges = [(s, t, 1.0) for s in range(n) for t in range(n)
                 if s != t and rng.random() < 0.3]
        ratings = [(u, i, rng.randint(1, 5)) for u in range(n)
                   for i in range(4) if rng.random() < 0.5]
        ds = Dataset(ratings, edges, users=range(n), items=range(4))
        for item in range(4):
            res = tidal_trust_recommend(0, item, ds)
            if res.predicted is not None:
                assert 1.0 <= res.predicted <= 5.0
            avg = simple_average(0, item, ds)
            if avg is not None:
                assert 1.0 <= avg <= 5.0
            scores = mole_trust_scores(0, ds)
            weights = {u: s for u, s in scores.items() if s > 0}
            mole = mole_trust_predict(0, item, weights, ds)
            if mole is not None:
                assert 1.0 <= mole <= 5.0
