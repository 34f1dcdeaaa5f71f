"""Trust-weighted rating prediction over the propagated neighborhood."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Dataset, TrustgridError
from .propagation import NetworkState, UnknownUserError

CONFIDENCE_VARIANCE_FLOOR = 1e-6


class EmptyContributorsError(TrustgridError):
    pass


@dataclass(slots=True)
class Recommendation:
    user: int
    item: int
    predicted: float
    confidence: float
    contributors: set  # (user, trust, rating)
    rating_recall: float  # fraction of the item's other raters actually used


def neighborhood_raters(state: NetworkState, x: int, item: int,
                        dataset: Dataset) -> list[tuple[int, float, int]]:
    """Positively-trusted neighbors of x (direct or inferred) that rated `item`,
    as (user, trust, rating) triples. x's own rating is never included."""
    if x not in state.tables:
        raise UnknownUserError(f"unknown user {x}")
    raters = dataset.item_raters(item)
    out = []
    for y in sorted(raters):
        if y == x:
            continue
        entry = state.tables[x].get(y)
        if entry is not None and entry[0] > 0.0:
            out.append((y, entry[0], raters[y]))
    return out


def confidence(contributors) -> float:
    """Mean contributor trust divided by the population variance of their
    ratings, floored at a small epsilon so consensus yields high confidence."""
    contributors = list(contributors)
    if not contributors:
        raise EmptyContributorsError("confidence needs at least one contributor")
    trusts = [t for _, t, _ in contributors]
    ratings = [r for _, _, r in contributors]
    mean_rating = sum(ratings) / len(ratings)
    variance = sum((r - mean_rating) ** 2 for r in ratings) / len(ratings)
    return (sum(trusts) / len(trusts)) / max(variance, CONFIDENCE_VARIANCE_FLOOR)


def recommend(state: NetworkState, x: int, item: int,
              dataset: Dataset) -> Recommendation | None:
    """Weighted-average prediction of x's rating on `item`, or None when no
    positively-trusted neighbor rated it."""
    contributors = neighborhood_raters(state, x, item, dataset)
    if not contributors:
        return None
    num = sum(t * r for _, t, r in contributors)
    den = sum(t for _, t, _ in contributors)
    predicted = num / den
    other_raters = sum(1 for u in dataset.item_raters(item) if u != x)
    return Recommendation(
        user=x,
        item=item,
        predicted=predicted,
        confidence=confidence(contributors),
        contributors=set(contributors),
        rating_recall=len(contributors) / other_raters,
    )
