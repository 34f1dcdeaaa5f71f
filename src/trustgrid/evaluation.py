"""Leave-one-out evaluation harness and metrics.

For each held-out rating the chosen method predicts it from the remaining
data; misses count against coverage. Reports bundle MAE, MAUE, coverages,
rating-recall, a per-attempt depth histogram, and the delta curve comparing
the method against the item average and correlation CF at increasing
disagreement thresholds.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from itertools import groupby
from operator import itemgetter

from . import baselines
from .model import Dataset, TrustgridError
from .propagation import NetworkState, PropagationConfig, propagate
from .recommender import recommend

METHODS = ("proposed", "tidal", "mole", "avg", "cf")
VIEW_NAMES = ("all", "cold_start", "heavy_raters", "opinionated",
              "niche_items", "controversial_items")
DEFAULT_DELTA_THRESHOLDS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


class UnknownMethodError(TrustgridError):
    pass


class EmptyInputError(TrustgridError):
    pass


@dataclass(slots=True)
class HeldOutResult:
    """Outcome of predicting one hidden rating."""

    user: int
    item: int
    actual: int
    predicted: float | None
    depth: int | None          # search/propagation depth, where the method has one
    rating_recall: float | None
    # the deltas are None on a miss, where the delta curve never reads them
    delta_a: float | None      # |actual - item average without this user|
    delta_cf: float | None     # |actual - correlation-CF prediction|


@dataclass(slots=True)
class DeltaCurvePoint:
    min_delta_a: float
    n: int
    mean_delta_r: float | None
    mean_delta_a: float | None
    mean_delta_cf: float | None


@dataclass(slots=True)
class EvalReport:
    method: str
    view: str
    n_attempted: int
    n_predicted: int
    mae: float | None
    maue: float | None
    ratings_coverage: float | None
    users_coverage: float | None
    mean_rating_recall: float | None
    depth_histogram: dict[int, int] = field(default_factory=dict)
    delta_curve: list[DeltaCurvePoint] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["depth_histogram"] = {str(k): v for k, v in sorted(self.depth_histogram.items())}
        return d


# -- views ----------------------------------------------------------------

def _count_and_spread(values) -> tuple[int, bool]:
    """(n, population stdev > 1.5) of integer ratings, decided exactly:
    n·Σr² − (Σr)² is n² times the variance, and variance > 9/4 holds iff
    4·(n·Σr² − (Σr)²) > 9·n²."""
    n = len(values)
    total = sum(values)
    squares = sum(v * v for v in values)
    return n, 4 * (n * squares - total * total) > 9 * n * n


class _Stats(dict):
    """`_count_and_spread` of the ratings `ratings(key)` maps, computed at a
    key's first lookup, so a view pays only for the users or items it
    reads."""

    def __init__(self, ratings):
        super().__init__()
        self.ratings = ratings

    def __missing__(self, key):
        stats = self[key] = _count_and_spread(self.ratings(key).values())
        return stats


def view_predicates(dataset: Dataset):
    """Per-view (user, item) predicates, computed from the full dataset. A
    view computes the statistics it reads when it first reads them: `all`
    none, the user views per-user ones, the item views per-item ones."""
    user_stats = _Stats(dataset.user_ratings)
    item_stats = _Stats(dataset.item_raters)

    return {
        "all": lambda u, i: True,
        "cold_start": lambda u, i: 1 <= user_stats[u][0] <= 4,
        "heavy_raters": lambda u, i: user_stats[u][0] > 10,
        "opinionated": lambda u, i: user_stats[u][0] > 4 and user_stats[u][1],
        "niche_items": lambda u, i: item_stats[i][0] < 5,
        "controversial_items": lambda u, i: item_stats[i][1],
    }


# -- metric primitives ----------------------------------------------------

def mae(errors) -> float:
    errors = list(errors)
    if not errors:
        raise EmptyInputError("mae of empty input")
    return sum(errors) / len(errors)


def maue(per_user_errors) -> float:
    """Unweighted mean of per-user MAEs, so heavy raters do not dominate."""
    if not per_user_errors:
        raise EmptyInputError("maue of empty input")
    return sum(mae(errs) for errs in per_user_errors.values()) / len(per_user_errors)


def coverage_metrics(results):
    """(ratings_coverage, users_coverage); users with zero attempts are
    excluded from the users-coverage denominator. (None, None) if no attempts."""
    results = list(results)
    if not results:
        return None, None
    predicted = sum(1 for r in results if r.predicted is not None)
    users_attempted = {r.user for r in results}
    users_predicted = {r.user for r in results if r.predicted is not None}
    return predicted / len(results), len(users_predicted) / len(users_attempted)


def delta_curve(triples):
    """Mean deltas restricted to held-out ratings with delta_a >= threshold,
    one point per threshold of DEFAULT_DELTA_THRESHOLDS.

    `triples` holds (delta_a, delta_r, delta_cf) rows; delta_cf may be None
    and is then skipped in its own mean only.
    """
    triples = list(triples)
    points = []
    for tau in DEFAULT_DELTA_THRESHOLDS:
        bucket = [t for t in triples if t[0] >= tau]
        cf_values = [t[2] for t in bucket if t[2] is not None]
        points.append(DeltaCurvePoint(
            min_delta_a=tau,
            n=len(bucket),
            mean_delta_r=mae(t[1] for t in bucket) if bucket else None,
            mean_delta_a=mae(t[0] for t in bucket) if bucket else None,
            mean_delta_cf=mae(cf_values) if cf_values else None,
        ))
    return points


# -- leave-one-out over ratings -------------------------------------------

def _predictor(dataset, state, method, horizon, user):
    """`predict(item) -> (predicted, depth, rating_recall)` for `user`'s
    held-out ratings. What depends only on the user is built here, once:
    its TidalTrust forward search (resumed as deep as each item needs), its
    positive MoleTrust weights or its CF co-rating counts."""
    if method == "proposed":
        def predict(item):
            rec = recommend(state, user, item, dataset)
            if rec is None:
                return None, None, None
            depth = min(state.tables[user][y][1] for y, _, _ in rec.contributors)
            return rec.predicted, depth, rec.rating_recall
    elif method == "tidal":
        search = baselines._Search(dataset.trust_adjacency.positive_out, user)

        def predict(item):
            res = baselines.tidal_trust_recommend(user, item, dataset, search=search)
            if res.predicted is None:
                return None, None, None
            others = sum(1 for u in dataset.item_raters(item) if u != user)
            recall = len(res.raters_considered) / others
            return res.predicted, res.depth, recall
    elif method == "mole":
        scores = baselines.mole_trust_scores(user, dataset, horizon)
        weights = {u: s for u, s in scores.items() if s > 0.0}

        def predict(item):
            return baselines.mole_trust_predict(user, item, weights, dataset), None, None
    elif method == "avg":
        def predict(item):
            return baselines.simple_average(user, item, dataset), None, None
    else:  # "cf"; callers check the method first
        co_ratings = baselines.co_rating_counts(user, dataset)

        def predict(item):
            return baselines.correlation_cf_predict(
                user, item, dataset, co_ratings=co_ratings), None, None
    return predict


def _evaluate_user(dataset, state, method, horizon, user, records):
    """HeldOutResults of `user`'s held-out (item, actual) records, in order.
    A hit also runs the delta baselines, reusing the prediction when the
    method is one; the CF predictor is built at the user's first hit."""
    predict = _predictor(dataset, state, method, horizon, user)
    cf_predict = None
    results = []
    for item, actual in records:
        predicted, depth, recall = predict(item)
        if predicted is None:
            results.append(HeldOutResult(user, item, actual, None, None, None,
                                         None, None))
            continue
        if method == "avg":
            avg = predicted
        else:
            avg = baselines.simple_average(user, item, dataset)
        if method == "cf":
            cf = predicted
        else:
            cf_predict = cf_predict or _predictor(dataset, state, "cf", horizon, user)
            cf = cf_predict(item)[0]
        results.append(HeldOutResult(
            user=user, item=item, actual=actual, predicted=predicted,
            depth=depth, rating_recall=recall,
            delta_a=abs(actual - avg) if avg is not None else None,
            delta_cf=abs(actual - cf) if cf is not None else None,
        ))
    return results


_worker_ctx = {}


def _init_worker(dataset, state, method, horizon):
    _worker_ctx["args"] = (dataset, state, method, horizon)


def _worker_task(group):
    return _evaluate_user(*_worker_ctx["args"], *group)


def _sample(population, fraction: float | None, seed: int):
    """Deterministic uniform sample of a sorted population, at least one
    record; the population itself when fraction is None or >= 1, or when it
    is empty."""
    if fraction is None or fraction >= 1.0 or not population:
        return population
    k = max(1, round(fraction * len(population)))
    return sorted(random.Random(seed).sample(population, k))


def sample_ratings(dataset: Dataset, fraction: float | None, seed: int):
    """Deterministic uniform sample of (user, item, value) records."""
    return _sample(dataset.rating_list(), fraction, seed)


def evaluate_ratings(dataset: Dataset, method: str, *,
                     sample: float | None = None, seed: int = 0,
                     view: str = "all",
                     horizon: int = baselines.DEFAULT_HORIZON,
                     state: NetworkState | None = None,
                     jobs: int = 1) -> list[HeldOutResult]:
    """Run leave-one-out prediction over (sampled) ratings for one method.

    This is the one place a view is applied: the sample is drawn from all
    ratings, then only its records in `view` (by `view_predicates`, built
    once; ValueError for an unknown view) are predicted and returned, so a
    view's results are the full sample's results filtered by the view.
    For `proposed`, propagation runs once, with the default settings, on the
    full trust graph (hiding a rating leaves trust edges untouched); a
    precomputed `state` skips it.
    The records come sorted by user and are evaluated one user at a time
    (`_evaluate_user`), so a user's TidalTrust search, MoleTrust weights and
    CF co-rating counts are built once; with `jobs` > 1 up to `jobs`
    workers, never more than the users, get whole users. Results keep the
    order of the records.
    """
    if method not in METHODS:
        raise UnknownMethodError(f"unknown method {method!r}")
    predicates = view_predicates(dataset)
    if view not in predicates:
        raise ValueError(f"unknown view {view!r}")
    keep = predicates[view]
    if method == "proposed" and state is None:
        state = propagate(dataset)
    records = ((u, i, v) for u, i, v in sample_ratings(dataset, sample, seed)
               if keep(u, i))
    groups = [(user, [(i, v) for _, i, v in rows])
              for user, rows in groupby(records, key=itemgetter(0))]
    # a fork pool starts all its workers at once, needed or not
    workers = min(jobs, len(groups))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                 initializer=_init_worker,
                                 initargs=(dataset, state, method, horizon)) as pool:
            per_user = list(pool.map(_worker_task, groups, chunksize=16))
    else:
        per_user = [_evaluate_user(dataset, state, method, horizon, user, rows)
                    for user, rows in groups]
    return [r for results in per_user for r in results]


def build_report(results, method: str, view: str) -> EvalReport:
    """Aggregate held-out results into the metric bundle of a report labelled
    `method` and `view`; `evaluate_ratings` has already applied the view."""
    rows = list(results)
    hits = [r for r in rows if r.predicted is not None]
    errors = [abs(r.actual - r.predicted) for r in hits]
    per_user: dict[int, list[float]] = {}
    for r in hits:
        per_user.setdefault(r.user, []).append(abs(r.actual - r.predicted))
    recalls = [r.rating_recall for r in hits if r.rating_recall is not None]

    histogram: dict[int, int] = {}
    for r in rows:
        if r.predicted is None:
            key = -1
        else:
            key = r.depth if r.depth is not None else 0
        histogram[key] = histogram.get(key, 0) + 1

    triples = [(r.delta_a, abs(r.actual - r.predicted), r.delta_cf)
               for r in hits if r.delta_a is not None]
    ratings_cov, users_cov = coverage_metrics(rows)

    return EvalReport(
        method=method,
        view=view,
        n_attempted=len(rows),
        n_predicted=len(hits),
        mae=mae(errors) if errors else None,
        maue=maue(per_user) if per_user else None,
        ratings_coverage=ratings_cov,
        users_coverage=users_cov,
        mean_rating_recall=mae(recalls) if recalls else None,
        depth_histogram=histogram,
        delta_curve=delta_curve(triples),
    )


# -- leave-one-out over trust edges ---------------------------------------

def leave_one_out_trust(dataset: Dataset,
                        config: PropagationConfig | None = None,
                        sample: float | None = None, seed: int = 0):
    """Hide each (sampled) trust edge, re-propagate, and try to re-infer it.

    Returns (coverage, mae): the fraction of hidden edges for which an
    inferred value exists, and the mean absolute error over those. Either is
    None when undefined.
    """
    config = config or PropagationConfig()
    all_edges = dataset.trust_edge_list()
    edges = _sample(all_edges, sample, seed)
    if not edges:
        return None, None

    errors = []
    for held_out in edges:
        remaining = [e for e in all_edges if e != held_out]
        state = propagate(Dataset((), remaining), config)
        source, target, value = held_out
        inferred = state.tables.get(source, {}).get(target)
        if inferred is not None:
            errors.append(abs(inferred[0] - value))
    coverage = len(errors) / len(edges)
    return coverage, (mae(errors) if errors else None)
