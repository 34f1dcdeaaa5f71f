import copy
import math
import random
import struct
from array import array
from dataclasses import replace

import pytest
from pytest import approx

from oracle import dense_fixed_point, random_graph, reference_round
from trustgrid import propagation
from trustgrid.model import Dataset, UnknownUserError
from trustgrid.propagation import (DIRECT, INFERRED, NetworkState, PropagationConfig,
                                   init_network, propagate, query_trust,
                                   run_round)


def chain_dataset(weights):
    return Dataset([], [(i, i + 1, w) for i, w in enumerate(weights)])


def edges_dataset(edges):
    return Dataset([], [(s, t, v) for (s, t), v in sorted(edges.items())])


def inferred_map(state):
    return {(x, y): trust for x, t in state.tables.items()
            for y, (trust, hops) in t.items() if hops > 1}


def test_init_network_direct_only():
    ds = Dataset([], [(0, 1, 1.0)])
    state = init_network(ds)
    assert state.round == 0 and not state.converged
    assert state.tables[0] == {1: (1.0, 1)}
    assert query_trust(state, 0, 1) == (1.0, DIRECT, 1)
    assert state.tables[1] == {}


def test_init_network_no_edges():
    state = init_network(Dataset([(0, 5, 3), (1, 5, 4)]))
    assert all(not t for t in state.tables.values())


def test_init_network_keeps_direct_distrust():
    state = init_network(Dataset([], [(0, 1, -0.3)]))
    assert state.tables[0][1] == (-0.3, 1)


def test_run_round_chain():
    ds = chain_dataset([1.0, 1.0])
    state = init_network(ds)
    config = PropagationConfig()
    state, change, added = run_round(state, ds, config)
    assert state.tables[0][2] == (approx(0.8), 2)
    assert query_trust(state, 0, 2) == (approx(0.8), INFERRED, 2)
    assert change == approx(0.8) and added == 1
    state, change, added = run_round(state, ds, config)
    assert change == 0.0 and added == 0


@pytest.mark.parametrize("edges, value", [
    ([(0, 1, 1.0), (1, 9, 0.5)], 0.4),
    ([(0, 1, 1.0), (1, 9, 1.0), (0, 2, 0.2), (2, 9, 0.1)], 0.68),
    ([(0, 1, -0.5), (1, 9, 1.0)], None),  # no average through distrust
], ids=["single-path", "two-paths", "distrusted-neighbor"])
def test_run_round_one_round_average(edges, value):
    ds = Dataset([], edges)
    state, change, added = run_round(init_network(ds), ds,
                                     PropagationConfig(store_threshold=0.0))
    if value is None:
        assert 9 not in state.tables[0] and (change, added) == (0.0, 0)
    else:
        assert state.tables[0][9] == (approx(value), 2)
        assert change == approx(value) and added == 1


def test_run_round_isolated_node():
    ds = Dataset([], [(0, 1, 1.0)], users=[5])
    state = init_network(ds)
    state, _, _ = run_round(state, ds, PropagationConfig())
    assert state.tables[5] == {}


def test_propagate_chain_converges():
    ds = chain_dataset([1.0, 1.0])
    state = propagate(ds, PropagationConfig(tolerance=0.0))
    assert state.converged and state.round == 2
    assert query_trust(state, 0, 2) == (approx(0.8), INFERRED, 2)


def test_propagate_max_rounds_zero():
    ds = chain_dataset([1.0, 1.0])
    state = propagate(ds, PropagationConfig(max_rounds=0))
    assert state.round == 0 and not state.converged
    assert inferred_map(state) == {}


def test_query_trust_no_self_entry():
    state = propagate(chain_dataset([1.0, 1.0]))
    assert query_trust(state, 0, 0) is None


def test_query_trust_unknown_user():
    state = propagate(chain_dataset([1.0]))
    for x, y in ((42, 0), (0, 42)):
        with pytest.raises(UnknownUserError, match="unknown user 42"):
            query_trust(state, x, y)


def test_chain_law():
    # single-path weighted averaging cancels the neighbor weight, so endpoint
    # trust on a uniform chain of k edges is damping^(k-1) * t
    for t in (0.5, 0.8, 1.0):
        for k in range(1, 7):
            ds = chain_dataset([t] * k)
            config = PropagationConfig(damping=0.8, store_threshold=0.0)
            state = propagate(ds, config)
            expected = 0.8 ** (k - 1) * t
            trust, _ = state.tables[0][k]
            assert trust == approx(expected, abs=1e-12)


def test_direct_entries_immutable():
    rng = random.Random(11)
    n, edges = random_graph(rng, max_nodes=9)
    ds = edges_dataset(edges)
    config = PropagationConfig(store_threshold=0.2)
    state = init_network(ds)
    for _ in range(6):
        state, _, _ = run_round(state, ds, config)
        direct = {(x, y): trust for x, t in state.tables.items()
                  for y, (trust, hops) in t.items() if hops == 1}
        assert direct == edges


def test_run_round_leaves_input_state_unchanged():
    # synchronous rounds read only round-k tables, so the input must survive
    rng = random.Random(17)
    for _ in range(10):
        n, edges = random_graph(rng, max_nodes=9)
        ds = edges_dataset(edges)
        config = PropagationConfig(store_threshold=0.2)
        state = init_network(ds)
        for _ in range(4):
            before = copy.deepcopy(state)
            after, _, _ = run_round(state, ds, config)
            assert state == before
            state = after


def test_propagate_deterministic():
    rng = random.Random(5)
    n, edges = random_graph(rng, max_nodes=10)
    ds = edges_dataset(edges)
    config = PropagationConfig(store_threshold=0.3)
    assert propagate(ds, config) == propagate(ds, config)


def test_propagate_matches_run_round_sequence(monkeypatch):
    # propagate equals stepping run_round by hand, bit for bit, though
    # run_round always sums every target: on the signed graphs at threshold
    # 0.25 propagate mostly does too; on binary graphs with the defaults
    # every round of propagate runs on rows, and propagate builds its own
    rng = random.Random(13)
    runs = [(random_graph(rng, max_nodes=8)[1],
             PropagationConfig(store_threshold=0.25, max_rounds=12), None)
            for _ in range(20)]
    runs += [({(s, t): v for s, t, v in binary_graph(seed, n).trust_edge_list()},
              PropagationConfig(max_rounds=12), "rows")
             for seed, n in ((3, 30), (4, 12), (5, 8), (6, 20))]
    seen = record_kernels(monkeypatch)
    for edges, config, kernel in runs:
        ds = edges_dataset(edges)
        state = init_network(ds)
        seen.clear()
        for _ in range(config.max_rounds):
            state, change, _ = run_round(state, ds, config)
            if change <= config.tolerance:
                state.converged = True
                break
        assert set(seen) <= {"full"}
        seen.clear()
        got = propagate(edges_dataset(edges), config)
        if kernel is not None:
            assert seen == [kernel] * got.round
        assert (got.round, got.converged) == (state.round, state.converged)
        assert bits(got.tables) == bits(state.tables)


@pytest.mark.parametrize("max_rounds, expected", [
    (48, None), (49, 0.8), (50, 0.72), (51, None),
])
def test_default_rule_has_no_fixed_point(max_rounds, expected):
    # 2 and 3 trust each other and 0, which trusts 1. Their entry for 1 cycles
    # 0.8, 0.72, 0.688 (dropped: below 0.7), then 0.8 again. While stored its
    # only fixed value is v = 0.4 + 0.4v = 2/3, below the threshold, so the
    # result depends on the round the run stops at
    ds = Dataset([], [(0, 1, 1.0), (2, 0, 1.0), (2, 3, 1.0), (3, 0, 1.0),
                      (3, 2, 1.0)])
    state = propagate(ds, PropagationConfig(max_rounds=max_rounds))
    assert not state.converged
    for owner in (2, 3):
        entry = state.tables[owner].get(1)
        if expected is None:
            assert entry is None
        else:
            assert entry == (approx(expected, abs=1e-12), 2)


def test_dag_entry_growth_bound():
    # on acyclic graphs the entry set stops growing after longest-path rounds
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(3, 12)
        edges = {}
        for s in range(n):
            for t in range(s + 1, n):  # forward edges only: a DAG
                if rng.random() < 0.4:
                    edges[(s, t)] = rng.uniform(0.1, 1.0)
        if not edges:
            continue
        ds = edges_dataset(edges)
        config = PropagationConfig(store_threshold=0.0, tolerance=0.0)
        # longest path length by DP over the topological order
        longest = {u: 0 for u in range(n)}
        for s in range(n - 1, -1, -1):
            for (a, b), _ in edges.items():
                if a == s:
                    longest[a] = max(longest[a], 1 + longest[b])
        rounds_needed = max(1, max(longest.values()) - 1)
        state = init_network(ds)
        for _ in range(rounds_needed):
            state, _, _ = run_round(state, ds, config)
        frozen = set(inferred_map(state))
        for _ in range(3):
            state, _, added = run_round(state, ds, config)
            assert added == 0
        assert set(inferred_map(state)) == frozen


def test_inferred_bound_damping_power():
    # an inferred entry at h hops starts out bounded by damping^(h-1) on DAGs
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(3, 12)
        edges = {}
        for s in range(n):
            for t in range(s + 1, n):
                if rng.random() < 0.35:
                    value = rng.uniform(0.05, 1.0)
                    if rng.random() < 0.2:
                        value = -value
                    edges[(s, t)] = value
        ds = edges_dataset(edges)
        config = PropagationConfig(damping=0.8, store_threshold=0.0,
                                   tolerance=0.0)
        state = propagate(ds, config)
        for x, table in state.tables.items():
            for y, (trust, hops) in table.items():
                if hops > 1:
                    assert abs(trust) <= 0.8 ** (hops - 1) + 1e-12


def test_oracle_equivalence_small_graphs():
    rng = random.Random(1234)
    for _ in range(40):
        n, edges = random_graph(rng, max_nodes=10)
        ds = edges_dataset(edges)
        config = PropagationConfig(damping=0.8, store_threshold=0.3,
                                   tolerance=1e-12, max_rounds=100)
        state = propagate(ds, config)
        expected = dense_fixed_point(n, edges, 0.8, 0.3,
                                     max_rounds=100, tol=1e-12)
        got = inferred_map(state)
        assert set(got) == set(expected)
        for key in got:
            assert got[key] == approx(expected[key], abs=1e-9)


def bits(tables):
    """Tables with every value as its IEEE bytes, so -0.0 != 0.0."""
    return {x: {y: (struct.pack("<d", v), h) for y, (v, h) in t.items()}
            for x, t in tables.items()}


def valued_graph(rng, kind, n):
    """Random directed graph of one value kind, as a Dataset."""
    choose = {
        "binary": lambda: 1.0,
        "positive": lambda: rng.uniform(0.05, 1.0),
        "signed": lambda: rng.choice((-1, 1)) * rng.uniform(0.05, 1.0),
        "quarters": lambda: rng.choice((-0.0, 0.0, 0.25, 0.5, 0.75, 1.0)),
        "signed quarters": lambda: rng.choice((-1.0, -0.5, -0.25, -0.0, 0.0,
                                               0.25, 0.5, 0.75, 1.0)),
    }[kind]
    p = rng.uniform(0.15, 0.45)
    return edges_dataset({(s, t): choose() for s in range(n) for t in range(n)
                          if s != t and rng.random() < p})


def step_matches_reference(state, ds, config):
    """run_round's next state, after checking it bit for bit against the
    reference round."""
    expected, change, added = reference_round(
        state.tables, ds, config.damping, config.store_threshold)
    state, got_change, got_added = run_round(state, ds, config)
    assert bits(state.tables) == bits(expected)
    assert struct.pack("<d", got_change) == struct.pack("<d", change)
    assert got_added == added
    return state


def assert_rounds_match_reference(state, ds, config, rounds):
    for _ in range(rounds):
        state = step_matches_reference(state, ds, config)


@pytest.mark.parametrize("kind", ["binary", "positive", "signed", "quarters"])
def test_run_round_matches_reference_round(kind):
    # run_round sums every target in its own kernel; the reference averages
    # every target and then filters, so they must agree bit for bit,
    # including thresholds at, just above and just below damping^2
    rng = random.Random(kind)
    for _ in range(12):
        ds = valued_graph(rng, kind, rng.randint(3, 14))
        damping = rng.choice((0.8, 1.0, 0.5, rng.uniform(0.3, 1.0)))
        d2 = damping * damping
        for threshold in (d2, math.nextafter(d2, 1.0), math.nextafter(d2, 0.0),
                          min(1.0, d2 * (1 + 1e-12)), 0.7, 0.0):
            config = PropagationConfig(damping=damping, store_threshold=threshold)
            assert_rounds_match_reference(init_network(ds), ds, config, 10)


def assert_propagate_matches_reference(ds, config, rounds=10):
    """propagate with max_rounds r, for r = 1..rounds, equals r reference
    rounds bit for bit, or as many as it ran before it converged."""
    history = [init_network(ds).tables]
    changes = []
    for _ in range(rounds):
        tables, change, _ = reference_round(history[-1], ds, config.damping,
                                            config.store_threshold)
        history.append(tables)
        changes.append(change)
    for r in range(1, rounds + 1):
        got = propagate(ds, replace(config, max_rounds=r))
        stop = next((n for n, change in enumerate(changes[:r], 1)
                     if change <= config.tolerance), r)
        assert got.round == stop
        assert got.converged == (changes[stop - 1] <= config.tolerance)
        assert bits(got.tables) == bits(history[stop])


def subnormal_graph():
    # 0's only weight, 5e-324, rounds w * 0.8 * v up to w, so 0 stores the
    # values 1 holds undamped: 1.0 for 2 in round 1, then 0.8 for 3, which 1
    # holds at hops 2. Only the bound's underflow term keeps propagate from
    # the index, which would never sum 3 for 0
    return Dataset([], [(0, 1, 5e-324), (1, 2, 1.0), (2, 3, 1.0)])


@pytest.mark.parametrize("kind", ["binary", "positive", "signed", "quarters",
                                  "signed quarters"])
def test_propagate_matches_reference_rounds(monkeypatch, kind):
    # propagate decides once per run whether every round may sum only the
    # index's targets, from W, the largest positive trust value, and the
    # config; its bound is tightest at threshold fl(d * fl(d * W)), so every
    # run at it, one ulp above, one ulp below and just above, where the
    # bound admits rows, must agree with the reference bit for bit,
    # whichever kernel it takes. On signed graphs the rows also sum the neg
    # slots, at hops they track; -0.0 edges are not negative
    rng = random.Random(kind)
    runs = [(valued_graph(rng, kind, rng.randint(3, 14)),
             rng.choice((0.8, 1.0, 0.5, rng.uniform(0.3, 1.0))))
            for _ in range(8)]
    if kind == "positive":
        runs.append((subnormal_graph(), 0.8))
    seen = record_kernels(monkeypatch)
    passed = record_hops(monkeypatch)
    for ds, damping in runs:
        top = max((v for _, _, v in ds.trust_edge_list()), default=0.0)
        edge = damping * (damping * max(top, 0.0))
        for threshold in (edge, math.nextafter(edge, 1.0),
                          math.nextafter(edge, 0.0),
                          min(1.0, edge * (1 + 1e-12)), 0.7):
            config = PropagationConfig(damping=damping, store_threshold=threshold)
            assert_propagate_matches_reference(ds, config)
    assert set(seen) == {"full", "rows"}
    tracked = {hops is not None for hops in passed}
    assert tracked == ({False, True} if kind.startswith("signed") else {False})


def hand_state(tables):
    return NetworkState({x: dict(t) for x, t in tables.items()})


@pytest.mark.parametrize("tables", [
    # an inferred entry above damping: 0.8 * 0.95 = 0.76 must be stored
    {0: {1: (1.0, 1)}, 1: {2: (1.0, 1), 3: (0.95, 2)}, 2: {}, 3: {}},
    # a hops-1 entry the dataset lacks still reports on its target
    {0: {1: (1.0, 1)}, 1: {2: (1.0, 1), 3: (1.0, 1)}, 2: {}, 3: {}},
])
def test_run_round_matches_reference_on_hand_made_states(tables):
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0)], users=[3])
    config = PropagationConfig()
    assert_rounds_match_reference(hand_state(tables), ds, config, 1)
    state, _, _ = run_round(hand_state(tables), ds, config)
    assert 3 in state.tables[0]


def test_run_round_bound_covers_subnormal_weights():
    # a weight of 5e-324 rounds w * 0.8 * 0.85 up to w, so the computed
    # average is 1.0 although the exact one is 0.68 < 0.7: a round that
    # pruned by the exact average would drop this target
    ds = Dataset([], [(0, 1, 5e-324), (1, 2, 1.0)], users=[3])
    tables = {0: {1: (5e-324, 1)}, 1: {2: (1.0, 1), 3: (0.85, 2)}, 2: {}, 3: {}}
    assert_rounds_match_reference(hand_state(tables), ds, PropagationConfig(), 1)
    state, _, _ = run_round(hand_state(tables), ds, PropagationConfig())
    assert state.tables[0][3] == (1.0, 3)


def test_run_round_bound_covers_rounding():
    # two contributions of 0.8 * M each average to one ulp above the
    # product 0.8 * M; at that threshold a round that pruned by the product
    # would drop this target
    w1, w2, top = 0.7559893274013729, 0.9007966249094171, 0.5687853183810455
    ds = Dataset([], [(0, 1, w1), (0, 2, w2)], users=[3])
    tables = {0: {1: (w1, 1), 2: (w2, 1)}, 1: {3: (top, 2)}, 2: {3: (top, 2)},
              3: {}}
    value = (0.0 + w1 * 0.8 * top + w2 * 0.8 * top) / (w1 + w2)
    assert value > 0.8 * top
    config = PropagationConfig(store_threshold=value)
    assert_rounds_match_reference(hand_state(tables), ds, config, 1)
    state, _, _ = run_round(hand_state(tables), ds, config)
    assert state.tables[0][3] == (value, 3)


def test_run_round_refuses_a_table_without_its_direct_entries():
    ds = Dataset([], [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
    tables = {0: {1: (1.0, 1), 2: (1.0, 1)}, 1: {}, 2: {}, 3: {}}
    with pytest.raises(ValueError,
                       match="user 2's table lacks its direct trust entry for 3"):
        run_round(hand_state(tables), ds, PropagationConfig())


def record_kernels(monkeypatch):
    """The kernels later rounds take, in call order: "full" for each node
    that sums with _node_sums, "rows" for each round of _row_round."""
    seen = []
    for name, label in (("_node_sums", "full"), ("_row_round", "rows")):
        def recording(*args, kernel=getattr(propagation, name), label=label):
            seen.append(label)
            return kernel(*args)
        monkeypatch.setattr(propagation, name, recording)
    return seen


def record_hops(monkeypatch):
    """The hops argument of each _row_round call, in call order."""
    passed = []
    row_round = propagation._row_round
    monkeypatch.setattr(propagation, "_row_round",
                        lambda *args: passed.append(args[4]) or row_round(*args))
    return passed


def record_builds(monkeypatch):
    """The Datasets _build_index is called on from now on, in call order."""
    built = []
    build = propagation._build_index
    monkeypatch.setattr(propagation, "_build_index",
                        lambda dataset: built.append(dataset) or build(dataset))
    return built


def binary_graph(seed=3, n=30):
    rng = random.Random(seed)
    return edges_dataset({(s, t): 1.0 for s in range(n) for t in range(n)
                          if s != t and rng.random() < 0.15})


@pytest.mark.parametrize("ds, config, indexed", [
    (binary_graph(), PropagationConfig(), True),
    (binary_graph(), PropagationConfig(damping=0.9), False),
    (binary_graph(), PropagationConfig(store_threshold=0.0), False),
    (edges_dataset({**{e: 1.0 for e in [(0, 1), (1, 2), (2, 3), (3, 0)]},
                    (2, 0): -0.5}), PropagationConfig(), True),
])
def test_run_round_prunes_only_under_the_bound(monkeypatch, ds, config, indexed):
    # propagate chooses the kernel once per run, so either every round of
    # it runs on rows or none does, and it builds the index only then;
    # run_round, before or after, neither builds nor reads it
    seen = record_kernels(monkeypatch)
    built = record_builds(monkeypatch)
    run_round(init_network(ds), ds, config)
    assert set(seen) == {"full"} and built == []
    seen.clear()
    state = propagate(ds, replace(config, max_rounds=4))
    assert state.round >= 2
    assert seen == (["rows"] * state.round if indexed
                    else ["full"] * (state.round * len(state.tables)))
    assert built == ([ds] if indexed else [])
    seen.clear()
    run_round(state, ds, config)
    assert set(seen) == {"full"}


def test_run_round_switching_kernels_matches_reference_round(monkeypatch):
    # at damping 0.9 a round from direct entries alone is bounded, and the
    # 0.9s it stores make the next one unbounded; on the cycle 0 -> 1,
    # 2 <-> 3, 2 -> 0, 3 -> 0 the entries of 2 and 3 for 1 then fall from
    # 0.9 towards 9/11 and the rounds are bounded again. propagate's bound
    # must hold for every round of a run, so it fails at 0.9 on binary
    # graphs, whose runs sum every target from round 1; no run switches
    # kernel. At, one ulp above and one ulp below damping^2 every round of
    # run_round and every propagate must agree with the reference bit for bit
    rng = random.Random("switch")
    graphs = [Dataset([], [(0, 1, 1.0), (2, 0, 1.0), (2, 3, 1.0), (3, 0, 1.0),
                           (3, 2, 1.0)])]
    graphs += [valued_graph(rng, kind, rng.randint(4, 14))
               for kind in ("binary", "positive") for _ in range(8)]
    seen = record_kernels(monkeypatch)
    d2 = 0.9 * 0.9
    for ds in graphs:
        binary = {v for _, _, v in ds.trust_edge_list()} == {1.0}
        for threshold in (d2, math.nextafter(d2, 1.0), math.nextafter(d2, 0.0)):
            config = PropagationConfig(damping=0.9, store_threshold=threshold)
            assert_rounds_match_reference(init_network(ds), ds, config, 8)
            seen.clear()
            assert_propagate_matches_reference(ds, config, 8)
            assert len(set(seen)) == 1
            assert not binary or seen[0] == "full"


@pytest.mark.parametrize("tables", [
    # 1 holds 3, outside its direct targets and its (empty) ys: the index
    # would sum 0's entry for 3 from 2 alone, 0.8, instead of 0.6
    {0: {1: (1.0, 1), 2: (1.0, 1)}, 1: {3: (0.5, 2)}, 2: {3: (1.0, 1)}, 3: {}},
    # 2 holds its trust in 3 at hops 2, not as the direct entry it lacks
    {0: {1: (1.0, 1), 2: (1.0, 1)}, 1: {3: (0.5, 2)}, 2: {3: (0.5, 2)}, 3: {}},
], ids=["key-outside-ys", "direct-entry-missing"])
def test_run_round_falls_back_on_states_the_index_does_not_cover(monkeypatch,
                                                                 tables):
    # no run of propagate reaches these states; run_round sums every target
    # on them, as on any state
    ds = Dataset([], [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
    config = PropagationConfig()
    seen = record_kernels(monkeypatch)
    assert_rounds_match_reference(hand_state(tables), ds, config, 1)
    assert set(seen) == {"full"}


def test_propagate_builds_the_index_only_for_a_round(monkeypatch):
    # at max_rounds 0 no round reads the index, so propagate builds none;
    # a run with rounds builds its own, as the Dataset keeps none
    ds = binary_graph()
    built = record_builds(monkeypatch)
    assert propagate(ds, PropagationConfig(max_rounds=0)) == init_network(ds)
    assert built == []
    for _ in range(2):
        propagate(ds, PropagationConfig(max_rounds=1))
    assert built == [ds, ds]


def hub_graph():
    # 1 trusts 300 users, so 0's ys, which holds them all, and 1's row both
    # have more than 256 slots; the other users trust a few of them
    rng = random.Random("hub")
    edges = {(0, 1): 1.0, **{(1, t): 1.0 for t in range(2, 302)}}
    for s in range(2, 302):
        for t in rng.sample(range(302), 3):
            if t != s:
                edges[s, t] = 1.0
    return edges_dataset(edges)


def test_propagate_on_rows_wider_than_a_byte(monkeypatch):
    # the bound fails at fl(d * fl(d * W)) and one ulp either side, so
    # those runs check the full kernel on the hub; 0.65 and 0.7 run on rows
    # whose slot pairs need two bytes
    ds = hub_graph()
    seen = record_kernels(monkeypatch)
    edge = 0.8 * (0.8 * 1.0)
    for threshold in (edge, math.nextafter(edge, 1.0),
                      math.nextafter(edge, 0.0), 0.65, 0.7):
        config = PropagationConfig(store_threshold=threshold)
        seen.clear()
        assert_propagate_matches_reference(ds, config, 4)
        assert set(seen) == ({"rows"} if threshold >= 0.65 else {"full"})
    index = propagation._build_index(ds)
    (ps, qs), = index.pairs[0]
    assert len(index.ys[0]) > 256 and len(ps) > 256
    assert (type(ps), ps.typecode) == (type(qs), qs.typecode) == (array, "H")


def test_mostly_positive_graph_matches_reference_rounds(monkeypatch):
    # binary graphs with one edge in 30 made -1.0: only the targets that
    # distrust reaches get neg slots, some of them stored at hops 3 or more
    rng = random.Random("few negative")
    passed = record_hops(monkeypatch)
    deep = 0
    for seed, n in ((3, 30), (4, 40), (7, 25)):
        edges = {(s, t): v for s, t, v in binary_graph(seed, n).trust_edge_list()}
        for edge in rng.sample(sorted(edges), len(edges) // 30):
            edges[edge] = -1.0
        ds = edges_dataset(edges)
        passed.clear()
        assert_propagate_matches_reference(ds, PropagationConfig(), 12)
        assert passed and None not in passed
        index = propagation._build_index(ds)
        assert 0 < sum(map(len, index.neg.values())) < sum(map(len, index.ys.values()))
        state = propagate(ds, PropagationConfig(max_rounds=12))
        deep += sum(hops >= 3 for t in state.tables.values() for _, hops in t.values())
    assert deep > 0


def chain(value):
    return [(0, 1, 1.0), (1, 2, 1.0), (2, 3, value)]


@pytest.mark.parametrize("edges, tracked", [
    (chain(1.0), False), (chain(-0.0), False), (chain(-1.0), True),
    # a negative edge, but 1 holds 2 at hops 1, so 0 has 2 in ys, not neg
    ([(0, 1, 1.0), (1, 2, -1.0)], False),
], ids=["1.0-False", "-0.0-False", "-1.0-True", "direct-negative-False"])
def test_rows_keep_hops_only_for_what_distrust_reaches(monkeypatch, edges,
                                                       tracked):
    # on the chain 0 -> 1 -> 2 -> 3 only a negative trust from 2 in 3 gives
    # 0 a neg slot for 3, and only a run with a neg slot keeps hops
    ds = Dataset([], edges)
    passed = record_hops(monkeypatch)
    assert_propagate_matches_reference(ds, PropagationConfig(), 3)
    assert passed and {hops is not None for hops in passed} == {tracked}
    neg = propagation._build_index(ds).neg
    assert neg == {x: (3,) if tracked and x == 0 else () for x in ds.users}


def test_neg_slot_stores_one_more_than_its_fewest_contributor_hops():
    # 3 and 6 distrust 4. 0 trusts 1 and 5; 1 holds 4 at hops 3 (from 2)
    # from round 2 on, and 5 holds it at hops 2 from round 1 on, so 0 has no
    # contributor for 4 in round 1, one at hops 2 in round 2, and both in
    # round 3, when the fewer hops, 2, still give it hops 3
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, -1.0),
                      (0, 5, 1.0), (5, 6, 1.0), (6, 4, -1.0)])
    assert propagation._build_index(ds).neg[0] == (4,)
    for rounds, entry in ((1, None), (2, (approx(-0.64), 3)),
                          (3, (approx(-0.576), 3))):
        state = propagate(ds, PropagationConfig(max_rounds=rounds))
        assert state.tables[0].get(4) == entry
    assert state.tables[1][4] == (approx(-0.64), 3)
    assert_propagate_matches_reference(ds, PropagationConfig(), 5)


def distrust_fan_graph():
    # 2 distrusts 300 users, which 1 holds at hops 2 and 0 at hops 3, so 0's
    # neg segment and 1's row both have more than 256 slots; the other users
    # trust or distrust a few of them
    rng = random.Random("fan")
    edges = {(0, 1): 1.0, (1, 2): 1.0,
             **{(2, t): -rng.uniform(0.05, 1.0) for t in range(3, 303)}}
    for s in range(3, 303):
        for t in rng.sample(range(303), 2):
            if t != s:
                edges[s, t] = rng.choice((-1, 1)) * rng.uniform(0.05, 1.0)
    return edges_dataset(edges)


def test_propagate_on_neg_slots_wider_than_a_byte(monkeypatch):
    ds = distrust_fan_graph()
    seen = record_kernels(monkeypatch)
    for threshold in (0.65, 0.7):
        seen.clear()
        assert_propagate_matches_reference(
            ds, PropagationConfig(store_threshold=threshold), 4)
        assert set(seen) == {"rows"}
    index = propagation._build_index(ds)
    (ps, qs), = index.pairs[0]
    assert len(index.neg[0]) > 256 and len(ps) > 256
    assert (type(ps), ps.typecode) == (type(qs), qs.typecode) == (array, "H")


def test_propagate_on_a_segment_only_its_two_kinds_make_wider_than_a_byte(
        monkeypatch):
    # 0's ys holds 1's 200 direct targets and its neg the 100 users 2
    # distrusts: each kind of slot fits a byte, but 0's segment of 300
    # slots does not, so its slot pairs take their width from the segment
    edges = {(0, 1): 1.0, **{(1, t): 1.0 for t in range(2, 202)},
             **{(2, u): -1.0 for u in range(202, 302)}}
    ds = edges_dataset(edges)
    index = propagation._build_index(ds)
    assert (len(index.ys[0]), len(index.neg[0])) == (200, 100)
    (ps, qs), = index.pairs[0]
    assert len(ps) == 300
    assert (type(ps), ps.typecode) == (array, "H")
    seen = record_kernels(monkeypatch)
    assert_propagate_matches_reference(ds, PropagationConfig(), 4)
    assert set(seen) == {"rows"}


def converging_runs(tolerance):
    """(Dataset, config) pairs at `tolerance` whose rounds run on rows:
    graphs of binary, positive and quarter values and, at a positive
    tolerance, of tiny values, scaled so that their threshold lies below
    the tolerance and the largest values they store above it: a round can
    then drop an entry and still converge."""
    rng = random.Random(f"converge {tolerance}")
    kinds = ["binary", "positive", "quarters"] * 20
    kinds += ["tiny"] * (100 if tolerance else 0)
    runs = []
    for kind in kinds:
        ds = valued_graph(rng, "positive" if kind == "tiny" else kind,
                          rng.randint(3, 12))
        top = max((v for _, _, v in ds.trust_edge_list()), default=0.0)
        damping = rng.choice((0.5, 0.8, 0.9, rng.uniform(0.3, 0.95)))
        threshold = damping * top * rng.uniform(damping, 1.0)
        if kind == "tiny" and top > 0.0:
            # the largest stored value, about damping * top, rises above
            # the tolerance by a factor below 1 / damping
            scale = tolerance / (damping * top) * rng.uniform(1.0, 1.0 / damping)
            ds = edges_dataset({(s, t): v * scale
                                for s, t, v in ds.trust_edge_list()})
            top *= scale
            threshold = rng.uniform(damping * damping * top, tolerance)
        config = PropagationConfig(damping=damping, store_threshold=threshold,
                                   max_rounds=40, tolerance=tolerance)
        if propagation._bounded_index(ds, config) is not None:
            runs.append((ds, config))
    return runs


def test_propagate_on_rows_converges_as_run_round_does(monkeypatch):
    # propagate's round and converged come from each row round's own
    # max_change, which must equal run_round's, as must entries_added,
    # including in a round that converges though it drops an entry
    row_rounds = []
    row_round = propagation._row_round
    monkeypatch.setattr(propagation, "_row_round", lambda *args: (
        row_rounds.append(row_round(*args)) or row_rounds[-1]))
    converged = {0.0: 0, 1e-6: 0, 1e-3: 0}
    dropped_as_it_converged = 0
    for tolerance in converged:
        for ds, config in converging_runs(tolerance):
            state = init_network(ds)
            steps = []
            for _ in range(config.max_rounds):
                previous = state
                state, change, added = run_round(state, ds, config)
                steps.append((struct.pack("<d", change), added))
                if change <= tolerance:
                    state.converged = True
                    break
            if state.converged and state.round > 1:
                converged[tolerance] += 1
                dropped_as_it_converged += bool(inferred_map(previous).keys()
                                                - inferred_map(state).keys())
            row_rounds.clear()
            got = propagate(ds, config)
            assert [(struct.pack("<d", change), added)
                    for _, change, added in row_rounds] == steps
            assert (got.round, got.converged) == (state.round, state.converged)
            assert bits(got.tables) == bits(state.tables)
    assert min(converged.values()) >= 20
    assert dropped_as_it_converged > 0
