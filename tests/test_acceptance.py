"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (with the tolerance it checked)
through the capture so the gate is readable straight off the pytest output.
"""

import os
import random
import time
from collections import deque
from statistics import fmean

import pytest
from pytest import approx

from oracle import dense_fixed_point, random_graph
from trustgrid.baselines import tidal_trust_recommend
from trustgrid.cli import main
from trustgrid.evaluation import (delta_curve, evaluate_ratings, build_report,
                                  mae, maue)
from trustgrid.ingest import (SyntheticSpec, dataset_stats, generate_synthetic,
                              load_dataset)
from trustgrid.model import Dataset
from trustgrid.propagation import (PropagationConfig, init_network,
                                   propagate, run_round)
from trustgrid.recommender import confidence, recommend


def _report(capsys, ok, text):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {text}")
    assert ok


def _inferred_map(state):
    return {(x, y): trust for x, t in state.tables.items()
            for y, (trust, hops) in t.items() if hops > 1}


def _acceptance_graphs(count=200):
    rng = random.Random(20240817)
    return [random_graph(rng, max_nodes=10) for _ in range(count)]


def test_criterion_1_chain_law(capsys):
    # Weighted averaging over a single trusted neighbor cancels the neighbor
    # weight, so the converged endpoint trust on a uniform chain of k edges
    # with damping L is L^(k-1) * t -- not L^(k-1) * t^k, which the naive
    # "multiply every edge" reading would suggest (the two agree at t = 1.0).
    start = time.perf_counter()
    ok = True
    for t in (0.5, 0.8, 1.0):
        for k in range(1, 7):
            ds = Dataset([], [(i, i + 1, t) for i in range(k)])
            state = propagate(ds, PropagationConfig(damping=0.8,
                                                    store_threshold=0.0))
            got, _ = state.tables[0][k]
            ok = ok and state.converged and abs(got - 0.8 ** (k - 1) * t) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(capsys, ok, "criterion-1 chain law: converged endpoint trust == "
            f"0.8^(k-1)*t within 1e-12, k=1..6, t in {{0.5,0.8,1.0}} "
            f"({elapsed:.2f}s < 1s)")


def test_criterion_2_oracle_equivalence(capsys):
    start = time.perf_counter()
    ok = True
    for n, edges in _acceptance_graphs():
        ds = Dataset([], [(s, t, v) for (s, t), v in sorted(edges.items())],
                     users=range(n))
        config = PropagationConfig(damping=0.8, store_threshold=0.7,
                                   tolerance=1e-12, max_rounds=100)
        got = _inferred_map(propagate(ds, config))
        want = dense_fixed_point(n, edges, 0.8, 0.7, max_rounds=100, tol=1e-12)
        ok = ok and set(got) == set(want)
        ok = ok and all(abs(got[k] - want[k]) <= 1e-9 for k in got)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(capsys, ok, "criterion-2 oracle equivalence: 200 random signed "
            f"graphs (<=10 nodes) match the centralized fixed point within "
            f"1e-9 ({elapsed:.2f}s < 10s)")


def test_criterion_3_contraction(capsys):
    # Once the inferred entry set stops changing, each round's max_change is a
    # damped weighted average of the previous round's, so consecutive ratios
    # are bounded by the damping factor and convergence follows geometrically.
    # The storage threshold can keep borderline entries flapping in and out
    # forever on a few graphs; there the entry set never stabilizes and the
    # contraction property is vacuous, so those graphs are counted and the
    # checks apply to the stabilizing majority.
    ok = True
    oscillating = 0
    rounds = 150
    for n, edges in _acceptance_graphs():
        ds = Dataset([], [(s, t, v) for (s, t), v in sorted(edges.items())],
                     users=range(n))
        config = PropagationConfig(damping=0.8, store_threshold=0.7,
                                   tolerance=0.0, max_rounds=rounds)
        state = init_network(ds)
        history = []  # (inferred key set, max_change) per round
        for _ in range(rounds):
            state, change, _ = run_round(state, ds, config)
            history.append((frozenset(_inferred_map(state)), change))
        stable_from = 0
        for idx in range(1, len(history)):
            if history[idx][0] != history[idx - 1][0]:
                stable_from = idx + 1
        if stable_from >= rounds - 2:
            oscillating += 1
            continue
        # ratio bound, ignoring float dust below the convergence tolerance
        for idx in range(stable_from + 1, len(history)):
            prev, cur = history[idx - 1][1], history[idx][1]
            if prev > 1e-6:
                ok = ok and cur / prev <= 0.8 + 1e-9
        ok = ok and any(change <= 1e-6 for _, change in
                        history[stable_from:stable_from + 50])
    ok = ok and oscillating <= 20
    _report(capsys, ok, "criterion-3 contraction: post-stabilization "
            "max_change ratios <= 0.8+1e-9 and convergence to 1e-6 within 50 "
            f"rounds of stabilization ({200 - oscillating}/200 graphs "
            f"stabilize; {oscillating} threshold-flapping limit cycles)")


def test_criterion_4_prediction_and_confidence_units(capsys):
    contributors = [(10, 0.9, 4), (11, 0.3, 2)]
    predicted = (sum(t * r for _, t, r in contributors)
                 / sum(t for _, t, _ in contributors))
    conf = confidence(contributors)
    ok = predicted == approx(3.5, abs=1e-12) and conf == approx(0.6, abs=1e-12)
    # same numbers through the full recommender path
    ds = Dataset([(10, 7, 4), (11, 7, 2)], [(0, 10, 0.9), (0, 11, 0.3)])
    rec = recommend(propagate(ds, PropagationConfig()), 0, 7, ds)
    ok = ok and rec.predicted == approx(3.5, abs=1e-12)
    ok = ok and rec.confidence == approx(0.6, abs=1e-12)
    _report(capsys, ok, "criterion-4 unit values: weighted prediction 3.5 and "
            "confidence 0.6 reproduce within 1e-12")


def test_criterion_5_tidal_binary_degeneracy(capsys):
    rng = random.Random(777)
    ok = True
    checked = 0
    for _ in range(100):
        n, edges = random_graph(rng, max_nodes=10, signed=False)
        edges = {k: 1.0 for k in edges}
        ratings = [(u, 7, rng.randint(1, 5)) for u in range(n)
                   if rng.random() < 0.5]
        if not ratings:
            continue
        ds = Dataset(ratings,
                     [(s, t, v) for (s, t), v in sorted(edges.items())],
                     users=range(n))
        raters = {u: r for u, _, r in ratings}
        adj = {}
        for (s, t) in edges:
            adj.setdefault(s, []).append(t)
        for source in range(n):
            # oracle: plain BFS for the closest raters, then their plain mean
            dist = {source: 0}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v in adj.get(u, ()):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            found = [(d, u) for u, d in dist.items()
                     if u != source and u in raters]
            result = tidal_trust_recommend(source, 7, ds)
            if not found:
                ok = ok and result.predicted is None
                continue
            depth = min(d for d, _ in found)
            values = [raters[u] for d, u in found if d == depth]
            ok = ok and result.depth == depth
            ok = ok and result.predicted == fmean(values)
            checked += 1
    ok = ok and checked > 100
    _report(capsys, ok, "criterion-5 binary degeneracy: tidal recommendation "
            f"exactly equals the min-depth rater average on {checked} "
            "source/graph cases")


def test_criterion_6_coverage_direction(capsys):
    start = time.perf_counter()
    spec = SyntheticSpec(n_users=2000, n_items=6000, avg_out_degree=10.0,
                         avg_ratings_per_user=15.0, trust_value_mode="binary",
                         rng_seed=6)
    ds = generate_synthetic(spec)
    config = PropagationConfig(damping=0.8, store_threshold=0.7)
    state = propagate(ds, config)

    def run(method):
        results = evaluate_ratings(ds, method, state=state)
        report = build_report(results, method, "all")
        return report.ratings_coverage, report.mae

    prop_cov, prop_mae = run("proposed")
    tidal_cov, tidal_mae = run("tidal")
    elapsed = time.perf_counter() - start
    ok = (prop_cov < tidal_cov and prop_mae <= tidal_mae and elapsed < 300.0)
    _report(capsys, ok, "criterion-6 coverage direction: proposed coverage "
            f"{prop_cov:.3f} < tidal {tidal_cov:.3f} and proposed MAE "
            f"{prop_mae:.3f} <= tidal {tidal_mae:.3f} on 2000-user synthetic "
            f"({elapsed:.0f}s < 300s)")


def test_criterion_7_full_dataset_spot_check(capsys):
    ratings_path = os.environ.get("TRUSTGRID_EPINIONS_RATINGS")
    trust_path = os.environ.get("TRUSTGRID_EPINIONS_TRUST")
    if not (ratings_path and trust_path and os.path.exists(ratings_path)
            and os.path.exists(trust_path)):
        with capsys.disabled():
            print("SKIP criterion-7 full-dataset spot check: no dump "
                  "configured (set TRUSTGRID_EPINIONS_RATINGS / "
                  "TRUSTGRID_EPINIONS_TRUST)")
        pytest.skip("full dataset dump not available")
    ds = load_dataset(ratings_path, trust_path)
    stats = dataset_stats(ds)
    ok = (stats.n_users == 49290 and stats.n_items == 139738
          and stats.n_ratings == 664824 and stats.n_trust_edges == 487181)
    results = evaluate_ratings(ds, "tidal", sample=0.01, seed=0)
    report = build_report(results, "tidal", "all")
    ok = ok and abs(report.mae - 0.874) <= 0.15
    positive_depths = {d: c for d, c in report.depth_histogram.items() if d > 0}
    ok = ok and max(positive_depths, key=positive_depths.get) == 2
    _report(capsys, ok, "criterion-7 full-dataset spot check: exact counts, "
            "1% tidal MAE within +-0.15 of 0.874, depth mode 2")


def test_criterion_8_metric_definitions(capsys):
    ok = mae([0.0, 0.0, 2.0]) == 2.0 / 3.0
    ok = ok and maue({1: [0.0, 0.0], 2: [2.0]}) == 1.0
    triples = [(float(i) / 3.0, 0.1, None) for i in range(12)]
    counts = [p.n for p in delta_curve(triples)]
    ok = ok and counts == sorted(counts, reverse=True)
    _report(capsys, ok, "criterion-8 metric definitions: MAE 2/3 vs MAUE 1.0 "
            "divergence and nested delta-curve counts hold exactly")


def test_criterion_9_cli_determinism(capsys, tmp_path):
    ok = True
    r, t = tmp_path / "r.txt", tmp_path / "t.txt"
    synth = ["synth", "--users", "150", "--items", "300", "--seed", "9",
             "--out-ratings", str(r), "--out-trust", str(t)]
    outs = []
    for _ in range(2):
        assert main(synth) == 0
        outs.append((r.read_bytes(), t.read_bytes()))
    ok = ok and outs[0] == outs[1]

    snap = tmp_path / "net.snap"
    snaps = []
    for _ in range(2):
        snap.unlink(missing_ok=True)
        assert main(["propagate", "--trust", str(t),
                     "--snapshot", str(snap)]) == 0
        snaps.append(snap.read_bytes())
    ok = ok and snaps[0] == snaps[1]

    out = tmp_path / "report.json"
    reports = []
    for _ in range(2):
        assert main(["evaluate", "--ratings", str(r), "--trust", str(t),
                     "--method", "tidal", "--sample", "0.5", "--seed", "4",
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    ok = ok and reports[0] == reports[1]
    _report(capsys, ok, "criterion-9 determinism: synth, propagate, and "
            "evaluate outputs byte-identical across two seeded runs")
