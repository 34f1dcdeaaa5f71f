import copy
import random

import pytest

from trustgrid import propagation
from trustgrid.evaluation import evaluate_ratings, leave_one_out_trust
from trustgrid.ingest import SyntheticSpec, generate_synthetic
from trustgrid.model import Dataset, NoRatingsError, UnknownItemError
from trustgrid.propagation import PropagationConfig, propagate


def test_mean_rating():
    ds = Dataset([(1, 10, 4), (1, 11, 5), (2, 10, 3)])
    assert ds.mean_rating(1) == 4.5
    assert ds.mean_rating(2) == 3.0


def test_mean_rating_no_ratings():
    ds = Dataset([(1, 10, 4)], [(1, 2, 1.0)])
    with pytest.raises(NoRatingsError):
        ds.mean_rating(2)


def test_item_raters():
    ds = Dataset([(1, 10, 4), (2, 10, 2), (1, 11, 5)])
    assert set(ds.item_raters(10).items()) == {(1, 4), (2, 2)}
    assert ds.item_raters(11) == {1: 5}


def test_item_raters_unknown_item():
    ds = Dataset([(1, 10, 4)])
    with pytest.raises(UnknownItemError):
        ds.item_raters(999)


def test_empty_item_has_no_raters():
    ds = Dataset([(1, 10, 4)], items=[11])
    assert ds.item_raters(11) == {}


def test_direct_trust_directedness():
    ds = Dataset([], [(1, 2, 1.0)])
    assert ds.trust_adjacency.out == {1: [(2, 1.0)]}
    assert ds.trust_adjacency.positive_in == {2: [(1, 1.0)]}


def test_rating_value_range_rejected():
    with pytest.raises(ValueError):
        Dataset([(1, 10, 6)])
    with pytest.raises(ValueError):
        Dataset([(1, 10, 0)])


def test_trust_value_range_rejected():
    with pytest.raises(ValueError):
        Dataset([], [(1, 2, 1.5)])


def test_duplicate_rating_last_wins():
    ds = Dataset([(1, 10, 4), (1, 10, 2)])
    assert ds.user_ratings(1) == {10: 2}
    assert ds.warnings.duplicate_ratings == 1


def test_self_trust_dropped_with_warning():
    ds = Dataset([], [(1, 1, 1.0), (1, 2, 0.5)])
    assert ds.trust_adjacency.out == {1: [(2, 0.5)]}
    assert ds.warnings.self_trust_edges == 1


def test_trust_edges_last_wins_and_adjacency_sorted():
    edges = [(0, 1, 0.5), (2, 0, 0.9), (0, 1, -0.25), (1, 2, 0.0),
             (2, 2, 1.0), (3, 0, 0.7), (1, 0, -0.6), (2, 0, 0.3), (0, 3, 1.0),
             (0, 1, 0.75), (3, 2, 1.0)]
    random.Random(4).shuffle(edges)
    ds = Dataset([], edges)
    last = {}
    for s, t, v in edges:
        if s != t:
            last[s, t] = v
    expected = sorted((s, t, v) for (s, t), v in last.items())
    assert ds.trust_edge_list() == expected
    assert ds.n_trust_edges == len(expected) == 7
    assert ds.warnings.duplicate_trust_edges == 3
    assert ds.warnings.self_trust_edges == 1
    out, positive_out, positive_in = {}, {}, {}
    for s, t, v in expected:
        out.setdefault(s, []).append((t, v))
        if v > 0.0:
            positive_out.setdefault(s, []).append((t, v))
            positive_in.setdefault(t, []).append((s, v))
    assert ds.trust_adjacency == (out, positive_out, positive_in)
    # the 0.0 edge 1 -> 2 and the negative edge 1 -> 0 are in `out` only
    assert ds.trust_adjacency.out[1] == [(0, -0.6), (2, 0.0)]
    assert 1 not in ds.trust_adjacency.positive_out
    assert 1 not in {s for pairs in ds.trust_adjacency.positive_in.values()
                     for s, _ in pairs}


def test_index_consistency():
    records = [(u, i, (u + i) % 5 + 1) for u in range(8) for i in range(u % 4)]
    ds = Dataset(records)
    per_user_total = sum(len(ds.user_ratings(u)) for u in ds.users)
    per_item_total = sum(len(ds.item_raters(i)) for i in ds.items)
    assert per_user_total == ds.n_ratings == per_item_total == len(records)


@pytest.mark.parametrize("mode", ["binary", "uniform_signed"])
def test_nothing_writes_to_a_dataset(mode):
    # a Dataset is read-only once built, so workers may share it: neither
    # propagation, on rows or on tables, nor evaluation leaves a trace on it
    ds = generate_synthetic(SyntheticSpec(n_users=40, n_items=120,
                                          trust_value_mode=mode, rng_seed=2))
    calls = [lambda: propagate(ds),
             lambda: evaluate_ratings(ds, "proposed"),
             lambda: leave_one_out_trust(ds, sample=0.05)]
    for call in calls:
        before = copy.deepcopy(vars(ds))
        call()
        assert vars(ds) == before
    # both graphs' runs took rows
    bounded = propagation._bounded_index(ds, PropagationConfig()) is not None
    assert bounded
