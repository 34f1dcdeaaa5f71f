import copy
import random

import pytest
from pytest import approx

from oracle import dense_fixed_point, random_graph
from trustgrid.model import Dataset, UnknownUserError
from trustgrid.propagation import (DIRECT, INFERRED, PropagationConfig,
                                   infer_trust, init_network, propagate,
                                   query_trust, run_round)


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


def test_infer_trust_single_path():
    ds = Dataset([], [(0, 1, 1.0), (1, 9, 0.5)])
    state = init_network(ds)
    assert infer_trust(0, 9, state.tables, 0.8) == approx(0.4)


def test_infer_trust_two_paths():
    ds = Dataset([], [(0, 1, 1.0), (1, 9, 1.0), (0, 2, 0.2), (2, 9, 0.1)])
    state = init_network(ds)
    assert infer_trust(0, 9, state.tables, 0.8) == approx(0.68)


def test_infer_trust_distrusted_neighbor_excluded():
    ds = Dataset([], [(0, 1, -0.5), (1, 9, 1.0)])
    state = init_network(ds)
    assert infer_trust(0, 9, state.tables, 0.8) is None


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


def test_propagate_matches_run_round_sequence():
    # propagate equals stepping run_round by hand
    rng = random.Random(13)
    for _ in range(20):
        n, edges = random_graph(rng, max_nodes=8)
        ds = edges_dataset(edges)
        config = PropagationConfig(store_threshold=0.25, max_rounds=12)
        state = init_network(ds)
        for _ in range(config.max_rounds):
            state, change, _ = run_round(state, ds, config)
            if change <= config.tolerance:
                state.converged = True
                break
        assert state == propagate(ds, config)


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
