import ast
import concurrent.futures
import hashlib
import json
import os
import random
import sys

import pytest
from pytest import approx

from trustgrid import baselines, evaluation
from trustgrid.evaluation import (METHODS, VIEW_NAMES, EmptyInputError,
                                  HeldOutResult, UnknownMethodError, build_report,
                                  coverage_metrics, delta_curve,
                                  evaluate_ratings, leave_one_out_trust, mae,
                                  maue, sample_ratings, view_predicates)
from trustgrid.ingest import SyntheticSpec, generate_synthetic
from trustgrid.model import Dataset
from trustgrid.propagation import PropagationConfig, propagate
from trustgrid.recommender import recommend


def result(user, predicted, actual=3, depth=None, item=0):
    return HeldOutResult(user, item, actual, predicted, depth, None, None, None)


def test_mae_and_maue_divergence():
    # user 1 has two perfect predictions, user 2 one error of 2
    errors = [0.0, 0.0, 2.0]
    assert mae(errors) == approx(2 / 3)
    assert maue({1: [0.0, 0.0], 2: [2.0]}) == approx(1.0)


def test_mae_maue_single_user():
    assert mae([1.5]) == maue({1: [1.5]}) == 1.5


def test_mae_all_zero():
    assert mae([0.0, 0.0]) == 0.0


def test_mae_empty():
    with pytest.raises(EmptyInputError):
        mae([])
    with pytest.raises(EmptyInputError):
        maue({})


def test_maue_equals_mae_on_balanced_users():
    per_user = {1: [1.0, 0.0], 2: [2.0, 1.0], 3: [0.0, 0.0]}
    flat = [e for errs in per_user.values() for e in errs]
    assert maue(per_user) == approx(mae(flat))


def test_coverage_metrics():
    results = [result(1, 3.0), result(1, None), result(1, 2.0), result(2, None)]
    rc, uc = coverage_metrics(results)
    assert rc == approx(0.5)   # 2 of 4 predicted
    assert uc == approx(0.5)   # user 1 covered, user 2 not


def test_coverage_metrics_ratings_fraction():
    results = [result(1, 3.0), result(1, 2.0), result(1, 4.0), result(2, None)]
    rc, _ = coverage_metrics(results)
    assert rc == approx(0.75)


def test_coverage_no_attempts():
    assert coverage_metrics([]) == (None, None)


def test_delta_curve_threshold_zero_is_global():
    triples = [(2.0, 0.5, 1.9), (0.1, 0.2, 0.3)]
    points = {p.min_delta_a: p for p in delta_curve(triples)}
    assert points[0.0].n == 2
    assert points[0.0].mean_delta_r == approx(0.35)
    assert points[1.0].n == 1
    assert points[1.0].mean_delta_r == approx(0.5)
    assert points[1.0].mean_delta_cf == approx(1.9)
    assert points[3.0].n == 0 and points[3.0].mean_delta_r is None


def test_delta_curve_nested_counts():
    triples = [(float(i) / 3, 0.1, None) for i in range(12)]
    points = delta_curve(triples)
    counts = [p.n for p in points]
    assert counts == sorted(counts, reverse=True)


def test_unknown_method():
    with pytest.raises(UnknownMethodError):
        evaluate_ratings(Dataset([(0, 1, 3)]), "nope")


def test_loo_proposed_exact_neighbor():
    ds = Dataset([(0, 7, 4), (1, 7, 4)], [(0, 1, 1.0)])
    results = evaluate_ratings(ds, "proposed")
    row = next(r for r in results if r.user == 0)
    assert row.predicted == approx(4.0)
    assert row.depth == 1


def test_loo_avg_excludes_held_out_rater():
    ds = Dataset([(0, 7, 4), (1, 7, 2), (2, 7, 3)])
    results = evaluate_ratings(ds, "avg")
    row = next(r for r in results if r.user == 2)
    assert row.predicted == approx(3.0)


def test_loo_unique_rating_is_miss():
    ds = Dataset([(0, 7, 4), (1, 8, 2), (1, 7, 3)])
    results = evaluate_ratings(ds, "avg")
    row = next(r for r in results if r.item == 8)
    assert row.predicted is None


def test_loo_consensus_identity():
    ds = Dataset([(0, 7, 4), (1, 7, 4), (2, 7, 4)])
    report = build_report(evaluate_ratings(ds, "avg"), "avg", "all")
    assert report.mae == 0.0


def test_sampling_deterministic():
    ds = generate_synthetic(SyntheticSpec(n_users=100, n_items=200, rng_seed=5))
    a = sample_ratings(ds, 0.1, seed=42)
    b = sample_ratings(ds, 0.1, seed=42)
    assert a == b
    assert len(a) == round(0.1 * ds.n_ratings)


def test_report_histogram_sums_to_attempts():
    ds = generate_synthetic(SyntheticSpec(n_users=120, n_items=150, rng_seed=9))
    results = evaluate_ratings(ds, "tidal", sample=0.2, seed=1)
    report = build_report(results, "tidal", "all")
    assert sum(report.depth_histogram.values()) == report.n_attempted
    assert report.n_attempted == len(results)


def test_view_predicates():
    ratings = [(0, i, 3) for i in range(3)]                    # cold start
    ratings += [(1, i, 1 if i % 2 else 5) for i in range(12)]  # heavy, opinionated
    ratings += [(2, i, 1 if i % 2 else 4) for i in range(10)]  # pstdev exactly 1.5
    ds = Dataset(ratings)
    views = view_predicates(ds)
    assert views["cold_start"](0, 0) and not views["cold_start"](1, 0)
    assert views["heavy_raters"](1, 0) and not views["heavy_raters"](0, 0)
    assert views["opinionated"](1, 0) and not views["opinionated"](0, 0)
    assert not views["opinionated"](2, 0)
    assert views["niche_items"](0, 0)       # every item has < 5 ratings here


def test_controversial_items_view():
    ds = Dataset([(0, 7, 1), (1, 7, 5), (0, 8, 3), (1, 8, 3),
                  (0, 9, 1), (1, 9, 4)])  # item 9: pstdev exactly 1.5
    views = view_predicates(ds)
    assert views["controversial_items"](0, 7)
    assert not views["controversial_items"](0, 8)
    assert not views["controversial_items"](0, 9)


def test_loo_trust_triangle():
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    coverage, error = leave_one_out_trust(ds, PropagationConfig())
    # only the 0->2 edge is re-inferable (through 1), value 0.8
    assert coverage == approx(1 / 3)
    assert error == approx(0.2)


def test_loo_trust_unpredictable_edge():
    ds = Dataset([], [(0, 1, 1.0)])
    coverage, error = leave_one_out_trust(ds, PropagationConfig())
    assert coverage == 0.0 and error is None


def test_evaluate_jobs_parallel_matches_serial():
    ds = generate_synthetic(SyntheticSpec(n_users=80, n_items=100, rng_seed=2))
    serial = evaluate_ratings(ds, "avg", sample=0.3, seed=3, jobs=1)
    parallel = evaluate_ratings(ds, "avg", sample=0.3, seed=3, jobs=2)
    assert serial == parallel


class _InProcessPool:
    """Stands in for ProcessPoolExecutor, which evaluate_ratings imports
    from concurrent.futures when it needs a pool: records max_workers and
    maps in this process, so no worker is forked."""
    made = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.made.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("n_users, jobs, workers", [
    (3, 8, 3), (3, 2, 2), (1, 4, None),
])
def test_evaluate_jobs_start_at_most_one_worker_per_user(monkeypatch, n_users,
                                                          jobs, workers):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(evaluation, "_worker_ctx", {})
    monkeypatch.setattr(_InProcessPool, "made", [])
    ds = Dataset([(u, i, 1 + (u + i) % 5) for u in range(n_users) for i in range(3)])
    serial = evaluate_ratings(ds, "avg", jobs=1)
    assert len({r.user for r in serial}) == n_users
    pooled = evaluate_ratings(ds, "avg", jobs=jobs)
    assert pooled == serial
    assert _InProcessPool.made == ([] if workers is None else [workers])


@pytest.mark.parametrize("method", ["mole", "tidal"])
def test_evaluate_search_jobs_parallel_matches_serial(method):
    ds = generate_synthetic(SyntheticSpec(n_users=80, n_items=100, rng_seed=2))
    serial = evaluate_ratings(ds, method, sample=0.3, seed=3, jobs=1)
    parallel = evaluate_ratings(ds, method, sample=0.3, seed=3, jobs=2)
    assert any(r.predicted is not None for r in serial)
    assert serial == parallel


def test_mole_scores_computed_once_per_user(monkeypatch):
    ds = generate_synthetic(SyntheticSpec(n_users=80, n_items=100, rng_seed=2))
    records = sample_ratings(ds, 0.3, seed=3)
    expected = []
    for user, item, _ in records:
        scores = baselines.mole_trust_scores(user, ds)
        weights = {u: s for u, s in scores.items() if s > 0.0}
        expected.append(baselines.mole_trust_predict(user, item, weights, ds))
    scored = []
    original = baselines.mole_trust_scores

    def counting(source, dataset, horizon=3):
        scored.append(source)
        return original(source, dataset, horizon)

    monkeypatch.setattr(baselines, "mole_trust_scores", counting)
    results = evaluate_ratings(ds, "mole", sample=0.3, seed=3)
    users = {u for u, _, _ in records}
    assert len(records) > len(users)
    assert sorted(scored) == sorted(users)
    assert [r.predicted for r in results] == expected


def _tidal_facts(res):
    return (res.predicted, res.depth, sorted(res.raters_considered),
            res.queries_issued)


@pytest.fixture(scope="module", params=[("binary", 5), ("uniform_signed", 6)],
                ids=["binary", "uniform_signed"])
def tidal_graph(request):
    mode, seed = request.param
    return generate_synthetic(SyntheticSpec(n_users=60, n_items=80,
                                            trust_value_mode=mode, rng_seed=seed))


@pytest.mark.parametrize("jobs", [1, 2])
def test_tidal_resumed_search_matches_fresh(tidal_graph, jobs, tmp_path,
                                            monkeypatch):
    ds = tidal_graph
    original = baselines.tidal_trust_recommend

    def recording(source, item, dataset, search=None):
        res = original(source, item, dataset, search=search)
        # one file per process, as the workers of jobs=2 run in their own
        with open(tmp_path / str(os.getpid()), "a", encoding="utf-8") as fh:
            fh.write(repr(((source, item), _tidal_facts(res))) + "\n")
        return res

    monkeypatch.setattr(baselines, "tidal_trust_recommend", recording)
    results = evaluate_ratings(ds, "tidal", jobs=jobs)
    monkeypatch.undo()
    got = dict(ast.literal_eval(line) for f in tmp_path.iterdir()
               for line in f.read_text().splitlines())
    assert sorted(got) == [(u, i) for u, i, _ in ds.rating_list()]
    for r in results:
        fresh = baselines.tidal_trust_recommend(r.user, r.item, ds)
        assert got[r.user, r.item] == _tidal_facts(fresh)
        assert (r.predicted, r.depth) == ((None, None) if fresh.predicted is None
                                          else (fresh.predicted, fresh.depth))
    assert any(r.predicted is not None for r in results)


def test_tidal_search_deeper_than_needed_matches_fresh(tidal_graph):
    ds = tidal_graph
    positive = ds.trust_adjacency.positive_out
    deeper = 0  # queries answered by a search already past their depth
    for user in sorted(ds.users):
        fresh = {i: baselines.tidal_trust_recommend(user, i, ds) for i in sorted(ds.items)}
        # farthest first, items with no reachable rater (which exhaust the
        # search) before all others
        order = sorted(fresh, key=lambda i: (fresh[i].depth != -1, -fresh[i].depth, i))
        search = baselines._Search(positive, user)
        for item in order:
            searched = len(search.levels) - 1
            res = baselines.tidal_trust_recommend(user, item, ds, search=search)
            assert _tidal_facts(res) == _tidal_facts(fresh[item])
            deeper += 0 <= res.depth < searched
    assert deeper > 100


def test_tidal_search_started_once_per_user(monkeypatch):
    ds = generate_synthetic(SyntheticSpec(n_users=80, n_items=100, rng_seed=2))
    started = []

    class Counting(baselines._Search):
        __slots__ = ()

        def __init__(self, adj, source):
            started.append(source)
            super().__init__(adj, source)

    monkeypatch.setattr(baselines, "_Search", Counting)
    evaluate_ratings(ds, "tidal", sample=0.3, seed=3)
    users = [u for u, _, _ in sample_ratings(ds, 0.3, seed=3)]
    assert len(users) > len(set(users))
    assert started == sorted(set(users))


def test_delta_baselines_run_for_hits_only(monkeypatch):
    ds = generate_synthetic(SyntheticSpec(n_users=80, n_items=100, rng_seed=2))
    calls = []
    original = baselines.correlation_cf_predict

    def counting(a, item, dataset, co_ratings=None):
        calls.append((a, item))
        return original(a, item, dataset, co_ratings=co_ratings)

    monkeypatch.setattr(baselines, "correlation_cf_predict", counting)
    results = evaluate_ratings(ds, "proposed", sample=0.3, seed=3)
    hits = [(r.user, r.item) for r in results if r.predicted is not None]
    assert 0 < len(hits) < len(results)
    assert calls == hits
    assert all(r.delta_a is None and r.delta_cf is None
               for r in results if r.predicted is None)


@pytest.mark.parametrize("method", ["proposed", "tidal", "cf"])
def test_co_ratings_built_once_per_user_with_a_hit(method, monkeypatch):
    # a sparse trust graph, so some users get no proposed or tidal hit
    ds = generate_synthetic(SyntheticSpec(n_users=80, n_items=100,
                                          avg_out_degree=1.0, rng_seed=2))
    counted = []
    original = baselines.co_rating_counts

    def counting(a, dataset):
        counted.append(a)
        return original(a, dataset)

    monkeypatch.setattr(baselines, "co_rating_counts", counting)
    results = evaluate_ratings(ds, method, sample=0.3, seed=3, jobs=1)
    sampled = {r.user for r in results}
    hit = {r.user for r in results if r.predicted is not None}
    if method == "cf":
        assert counted == sorted(sampled)
    else:
        assert hit and hit < sampled
        assert counted == sorted(hit)


def test_sampling_empty_population():
    assert sample_ratings(Dataset([], [(0, 1, 1.0)]), 0.5, seed=1) == []
    assert leave_one_out_trust(Dataset([(0, 7, 4)]), sample=0.5) == (None, None)


# small graphs with every view but one non-empty (binary: no controversial item)
@pytest.fixture(scope="module", params=[("binary", 2), ("uniform_signed", 4)],
                ids=["binary", "uniform_signed"])
def view_graph(request):
    mode, seed = request.param
    ds = generate_synthetic(SyntheticSpec(n_users=50, n_items=50,
                                          avg_ratings_per_user=7.0,
                                          trust_value_mode=mode, rng_seed=seed))
    return ds, propagate(ds, PropagationConfig())


@pytest.mark.parametrize("sample, jobs", [(None, 1), (0.4, 2)])
@pytest.mark.parametrize("method", METHODS)
def test_view_filter_keeps_records_and_reports(view_graph, method, sample, jobs):
    ds, state = view_graph
    predicates = view_predicates(ds)
    everything = evaluate_ratings(ds, method, sample=sample, seed=4, state=state,
                                  jobs=jobs)
    for view in VIEW_NAMES:
        results = evaluate_ratings(ds, method, sample=sample, seed=4, state=state,
                                   jobs=jobs, view=view)
        in_view = [r for r in everything if predicates[view](r.user, r.item)]
        assert results == in_view
        assert (build_report(results, method, view).to_dict()
                == build_report(in_view, method, view).to_dict())


def test_view_filter_predicts_only_records_in_view(view_graph, monkeypatch):
    ds, state = view_graph
    predicates = view_predicates(ds)
    calls = []
    original = evaluation.recommend

    def counting(state, user, item, dataset):
        calls.append((user, item))
        return original(state, user, item, dataset)

    monkeypatch.setattr(evaluation, "recommend", counting)
    for view in VIEW_NAMES:
        calls.clear()
        evaluate_ratings(ds, "proposed", sample=0.5, seed=2, state=state, view=view)
        assert calls == [(u, i) for u, i, _ in sample_ratings(ds, 0.5, seed=2)
                         if predicates[view](u, i)]


def test_evaluate_unknown_view_raises():
    with pytest.raises(ValueError, match="unknown view"):
        evaluate_ratings(Dataset([(0, 7, 4)]), "avg", view="nosuch")


def _with_rating(ds, user, item, value):
    """`ds` rebuilt with user's rating of item set to value."""
    ratings = [(u, i, value if (u, i) == (user, item) else v)
               for u, i, v in ds.rating_list()]
    return Dataset(ratings, ds.trust_edge_list(), users=ds.users, items=ds.items)


def _library_prediction(method, state, user, item, ds):
    """What the method's public function predicts, called with its defaults."""
    if method == "proposed":
        rec = recommend(state, user, item, ds)
        return rec and (rec.predicted, rec.confidence, rec.rating_recall)
    if method == "tidal":
        return baselines.tidal_trust_recommend(user, item, ds).predicted
    if method == "mole":
        scores = baselines.mole_trust_scores(user, ds)
        weights = {u: s for u, s in scores.items() if s > 0.0}
        return baselines.mole_trust_predict(user, item, weights, ds)
    if method == "cf":
        return baselines.correlation_cf_predict(user, item, ds)
    return baselines.simple_average(user, item, ds)


@pytest.mark.parametrize("method", METHODS)
def test_no_predictor_sees_the_rating_it_predicts(method):
    ds = generate_synthetic(SyntheticSpec(n_users=60, n_items=60, rng_seed=8))
    state = propagate(ds)  # reads only trust, which the rebuilt datasets keep
    records = [(u, i, v) for u, i, v in ds.rating_list()
               if len(ds.item_raters(i)) > 1]
    random.Random(1).shuffle(records)
    horizon = baselines.DEFAULT_HORIZON
    hits, misses = [], []
    for user, item, actual in records:
        got = evaluation._predictor(ds, state, method, horizon, user)(item)
        bucket = hits if got[0] is not None else misses
        if len(bucket) < 8:
            bucket.append((user, item, actual, got))
    assert len(hits) == 8
    for user, item, actual, got in hits + misses:
        library = _library_prediction(method, state, user, item, ds)
        assert (library is None) == (got[0] is None)
        for value in range(1, 6):
            if value == actual:
                continue
            changed = _with_rating(ds, user, item, value)
            assert evaluation._predictor(changed, state, method, horizon,
                                         user)(item) == got
            assert _library_prediction(method, state, user, item, changed) == library


# the Dataset accessor each view's statistics are computed from
VIEW_READS = {"all": set(), "cold_start": {"user_ratings"},
              "heavy_raters": {"user_ratings"}, "opinionated": {"user_ratings"},
              "niche_items": {"item_raters"}, "controversial_items": {"item_raters"}}


@pytest.mark.parametrize("view", VIEW_NAMES)
def test_view_computes_only_the_statistics_it_reads(view_graph, monkeypatch, view):
    ds, state = view_graph
    computed = []

    class Recording(evaluation._Stats):
        def __missing__(self, key):
            computed.append((self.ratings.__name__, key))
            return super().__missing__(key)

    monkeypatch.setattr(evaluation, "_Stats", Recording)
    evaluate_ratings(ds, "avg", state=state, view=view)
    assert {name for name, _ in computed} == VIEW_READS[view]
    # once per user or item of a record the view was asked about
    assert len(computed) == len(set(computed))
    records = ds.rating_list()
    if VIEW_READS[view] == {"user_ratings"}:
        assert {key for _, key in computed} == {u for u, _, _ in records}
    elif VIEW_READS[view] == {"item_raters"}:
        assert {key for _, key in computed} == {i for _, i, _ in records}


# per (method, view) on the graph below: the records attempted, and the
# sha256 of the report's JSON as statistics computed for every user and item
# up front gave it. Float sum() rounds differently from Python 3.12 on
# (ROADMAP item 1), so the digests are checked below 3.12 only.
VIEW_REPORTS = {
    ("proposed", "all"): (
        383, "b225fb14f0859fb62ff826b792fb26a0eabf5a399d9b1f9e4a528fbc44b5c33a"),
    ("proposed", "cold_start"): (
        41, "ed1edd707c73385e930e8e4066c068dcd2bb7733209306835e51e9aea564740e"),
    ("proposed", "heavy_raters"): (
        25, "69a61be37926066070632e30de89c41c5ddca9c847663510153e6277c107b2d8"),
    ("proposed", "opinionated"): (
        22, "f14b73242cd1d36f70849d8dc485fec5a769f54a0adc4855463ed21dd557f03c"),
    ("proposed", "niche_items"): (
        139, "2073760253c6dd9289670edec6bd356a6818793da353ab74853790f90839accd"),
    ("proposed", "controversial_items"): (
        4, "9edc98ecb873d65e3f3432ed2630fe177bb7943fa35c3e16865b34cb8038bd64"),
    ("tidal", "all"): (
        383, "f212fd1458f93deebbc4744936348f48772bf215178c28cfd023bd73d651244e"),
    ("tidal", "cold_start"): (
        41, "d32ac7930732f03fa31ab629d6ede84a60899137b2ea23c99d9155dee5860117"),
    ("tidal", "heavy_raters"): (
        25, "0c168d4d459d168402205848fd53d653485f1a51d2d34a344eb5961cee9db4dd"),
    ("tidal", "opinionated"): (
        22, "05dec181683f2ab0d0d995a109b556da8299b410cfee074c0445c9bcf63eb6f4"),
    ("tidal", "niche_items"): (
        139, "35e6487b6e7a281ec7f2ecac9cd6bfbc52735004ef6a1a8dd6b9cae811f98be1"),
    ("tidal", "controversial_items"): (
        4, "f1638a5bdd1055154b109de0cb59ab094843f26d091133c04e3320cc4147403f"),
}


@pytest.fixture(scope="module")
def report_graph():
    ds = generate_synthetic(SyntheticSpec(n_users=60, n_items=90,
                                          avg_ratings_per_user=6.0, rng_seed=3))
    return ds, propagate(ds)


@pytest.mark.parametrize("method, view", VIEW_REPORTS)
def test_view_reports_unchanged(report_graph, method, view):
    ds, state = report_graph
    attempted, digest = VIEW_REPORTS[method, view]
    report = build_report(evaluate_ratings(ds, method, view=view, state=state),
                          method, view).to_dict()
    assert report["n_attempted"] == attempted
    if sys.version_info < (3, 12):
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
