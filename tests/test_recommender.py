import pytest
from hypothesis import given, strategies as st
from pytest import approx

from trustgrid.model import Dataset, UnknownUserError
from trustgrid.propagation import NetworkState, propagate
from trustgrid.recommender import (EmptyContributorsError, confidence,
                                   neighborhood_raters, recommend)


def state_with_table(owner, trusts):
    """NetworkState whose only populated table maps target -> trust value."""
    tables = {owner: dict(trusts)}
    for t in trusts:
        tables.setdefault(t, {})
    return NetworkState(tables, round=1)


def test_neighborhood_raters_intersection():
    ds = Dataset([(1, 7, 4), (2, 7, 2), (3, 7, 5)], users=[0])
    state = state_with_table(0, {1: (0.9, 1), 2: (0.3, 2)})
    assert set(neighborhood_raters(state, 0, 7, ds)) == {(1, 0.9, 4), (2, 0.3, 2)}


def test_neighborhood_raters_negative_trust_filtered():
    ds = Dataset([(1, 7, 4)], users=[0])
    state = state_with_table(0, {1: (-0.5, 1)})
    assert neighborhood_raters(state, 0, 7, ds) == []


def test_neighborhood_raters_empty_item():
    ds = Dataset([(1, 8, 4)], users=[0], items=[7])
    state = state_with_table(0, {1: (0.9, 1)})
    assert neighborhood_raters(state, 0, 7, ds) == []


def test_neighborhood_raters_own_rating_excluded():
    ds = Dataset([(0, 7, 5), (1, 7, 3)])
    state = state_with_table(0, {1: (1.0, 1)})
    assert set(neighborhood_raters(state, 0, 7, ds)) == {(1, 1.0, 3)}


def test_neighborhood_raters_unknown_user():
    ds = Dataset([(1, 7, 4)])
    state = state_with_table(0, {1: (1.0, 1)})
    with pytest.raises(UnknownUserError):
        neighborhood_raters(state, 42, 7, ds)


def test_recommend_weighted_average():
    ds = Dataset([(1, 7, 4), (2, 7, 2)], users=[0])
    state = state_with_table(0, {1: (0.9, 1), 2: (0.3, 2)})
    rec = recommend(state, 0, 7, ds)
    assert rec.predicted == approx(3.5)
    assert rec.rating_recall == approx(1.0)


def test_recommend_single_contributor():
    ds = Dataset([(1, 7, 5)], users=[0])
    state = state_with_table(0, {1: (0.8, 1)})
    assert recommend(state, 0, 7, ds).predicted == approx(5.0)


def test_recommend_no_contributors():
    ds = Dataset([(9, 7, 5)], users=[0])
    state = state_with_table(0, {1: (0.8, 1)})
    assert recommend(state, 0, 7, ds) is None


def test_recommend_rating_recall_partial():
    ds = Dataset([(1, 7, 4), (2, 7, 2), (3, 7, 5)], users=[0])
    state = state_with_table(0, {1: (0.9, 1)})
    assert recommend(state, 0, 7, ds).rating_recall == approx(1 / 3)


def test_confidence_worked_example():
    assert confidence([(1, 0.9, 4), (2, 0.3, 2)]) == approx(0.6)


def test_confidence_consensus_epsilon_floor():
    assert confidence([(1, 0.8, 4), (2, 0.8, 4)]) == approx(0.8 / 1e-6)


def test_confidence_single_contributor():
    assert confidence([(1, 0.5, 3)]) == approx(0.5 / 1e-6)


def test_confidence_empty():
    with pytest.raises(EmptyContributorsError):
        confidence([])


@given(st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(1, 5)),
                min_size=1, max_size=8))
def test_prediction_is_convex_combination(pairs):
    ds = Dataset([(i + 1, 7, r) for i, (_, r) in enumerate(pairs)], users=[0])
    state = state_with_table(0, {i + 1: (t, 1) for i, (t, _) in enumerate(pairs)})
    rec = recommend(state, 0, 7, ds)
    ratings = [r for _, r in pairs]
    assert min(ratings) - 1e-9 <= rec.predicted <= max(ratings) + 1e-9


@given(st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(1, 5)),
                min_size=1, max_size=8),
       st.floats(0.1, 0.9))
def test_trust_scaling_invariance(pairs, scale):
    ds = Dataset([(i + 1, 7, r) for i, (_, r) in enumerate(pairs)], users=[0])
    base = state_with_table(0, {i + 1: (t, 1) for i, (t, _) in enumerate(pairs)})
    scaled = state_with_table(
        0, {i + 1: (t * scale, 1) for i, (t, _) in enumerate(pairs)})
    a = recommend(base, 0, 7, ds)
    b = recommend(scaled, 0, 7, ds)
    assert b.predicted == approx(a.predicted)
    assert b.confidence == approx(a.confidence * scale)


def test_monotone_in_top_rater_trust():
    ds = Dataset([(1, 7, 5), (2, 7, 2)], users=[0])
    previous = None
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        state = state_with_table(0, {1: (t, 1), 2: (0.4, 1)})
        predicted = recommend(state, 0, 7, ds).predicted
        if previous is not None:
            assert predicted >= previous
        previous = predicted


def test_recall_one_iff_all_raters_trusted():
    ds = Dataset([(1, 7, 4), (2, 7, 2)], [(0, 1, 1.0), (0, 2, 0.5)])
    state = propagate(ds)
    rec = recommend(state, 0, 7, ds)
    assert rec.rating_recall == 1.0
