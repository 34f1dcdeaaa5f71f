"""Core domain types: the validity rules for a rating and a trust edge, and
the immutable Dataset, whose trust adjacency is built with it and is the
only store of its trust edges."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

RATING_MIN = 1
RATING_MAX = 5


class TrustgridError(Exception):
    """Base class for all errors raised by this package."""


class UnknownUserError(TrustgridError):
    pass


class UnknownItemError(TrustgridError):
    pass


class NoRatingsError(TrustgridError):
    """The user has no ratings, so a rating mean is undefined."""


def check_rating(user: int, item: int, value: int) -> None:
    """Raise ValueError unless (user, item, value) is a valid rating."""
    if not isinstance(value, int) or not RATING_MIN <= value <= RATING_MAX:
        raise ValueError(f"rating value {value!r} not an integer in "
                         f"[{RATING_MIN},{RATING_MAX}]")
    if user < 0 or item < 0:
        raise ValueError("user and item ids must be non-negative")


def check_trust_edge(source: int, target: int, value: float) -> None:
    """Raise ValueError unless (source, target, value) is a valid trust edge.

    Self edges are not an error here; Dataset drops and counts them.
    """
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"trust value {value!r} outside [-1,1]")
    if source < 0 or target < 0:
        raise ValueError("user ids must be non-negative")


class TrustAdjacency(NamedTuple):
    """A Dataset's trust edges as (neighbour, value) lists sorted by neighbour."""

    out: dict[int, list[tuple[int, float]]]           # source -> every target
    positive_out: dict[int, list[tuple[int, float]]]  # source -> targets, value > 0
    positive_in: dict[int, list[tuple[int, float]]]   # target -> sources, value > 0


@dataclass(slots=True)
class IngestWarnings:
    """Counters for input records that were dropped or overwritten during construction."""

    duplicate_ratings: int = 0
    duplicate_trust_edges: int = 0
    self_trust_edges: int = 0


class Dataset:
    """Immutable store of users, items, ratings and directed trust edges.

    Construction validates every record with ``check_rating`` and
    ``check_trust_edge`` and builds per-user and per-item rating indexes and
    ``trust_adjacency``, the only store of the trust edges. Duplicate (user,
    item) ratings and duplicate (source, target) edges resolve to the last
    occurrence; self-trust edges are dropped. All three events are counted in
    ``warnings``. After construction the dataset is read-only and safe to
    share across workers.
    """

    def __init__(self, ratings=(), trust_edges=(), users=(), items=()):
        self.warnings = IngestWarnings()
        by_user: dict[int, dict[int, int]] = {}
        by_item: dict[int, dict[int, int]] = {}
        for user, item, value in ratings:
            check_rating(user, item, value)
            row = by_user.get(user)
            if row is None:
                by_user[user] = {item: value}
            else:
                if item in row:
                    self.warnings.duplicate_ratings += 1
                row[item] = value
            raters = by_item.get(item)
            if raters is None:
                by_item[item] = {user: value}
            else:
                raters[user] = value
        self._ratings_by_user = by_user
        self._ratings_by_item = by_item

        edges: dict[tuple[int, int], float] = {}
        for source, target, value in trust_edges:
            if source == target:
                self.warnings.self_trust_edges += 1
                continue
            check_trust_edge(source, target, value)
            n_edges = len(edges)
            edges[source, target] = value
            if len(edges) == n_edges:  # an earlier edge was replaced
                self.warnings.duplicate_trust_edges += 1

        # Propagation and the search baselines all walk these lists; building
        # them from the edges sorted by (source, target) fixes every walk's
        # (and every float sum's) order.
        self.trust_adjacency = TrustAdjacency({}, {}, {})
        out, positive_out, positive_in = self.trust_adjacency
        for (s, t), v in sorted(edges.items()):
            out.setdefault(s, []).append((t, v))
            if v > 0.0:
                positive_out.setdefault(s, []).append((t, v))
                positive_in.setdefault(t, []).append((s, v))

        # zip(*edges) splits the (source, target) keys into sources and targets
        self.users: set[int] = set(users).union(by_user, *zip(*edges))
        self.items: set[int] = set(items).union(by_item)

    # -- counts -----------------------------------------------------------

    @property
    def n_ratings(self) -> int:
        return sum(len(r) for r in self._ratings_by_user.values())

    @property
    def n_trust_edges(self) -> int:
        return sum(len(t) for t in self.trust_adjacency.out.values())

    # -- accessors --------------------------------------------------------

    def _check_user(self, user: int):
        if user not in self.users:
            raise UnknownUserError(f"unknown user {user}")

    def user_ratings(self, user: int) -> dict[int, int]:
        """All ratings by `user` as an item -> value map (empty if none)."""
        self._check_user(user)
        return self._ratings_by_user.get(user, {})

    def mean_rating(self, user: int, exclude_item: int | None = None) -> float:
        """Arithmetic mean of the user's rating values.

        `exclude_item` leaves one item's rating out (used by leave-one-out
        evaluation); ratings are integers, so subtracting it from the sum is
        exact. Raises NoRatingsError when no rating remains.
        """
        profile = self.user_ratings(user)
        count = len(profile) - (exclude_item in profile)
        if not count:
            raise NoRatingsError(f"user {user} has no ratings")
        return (sum(profile.values()) - profile.get(exclude_item, 0)) / count

    def item_raters(self, item: int) -> dict[int, int]:
        """All (user -> value) ratings of `item`; empty map if unrated."""
        if item not in self.items:
            raise UnknownItemError(f"unknown item {item}")
        return self._ratings_by_item.get(item, {})

    def trust_edge_list(self) -> list[tuple[int, int, float]]:
        """All edges as (source, target, value), sorted by (source, target)."""
        return [(s, t, v) for s, targets in self.trust_adjacency.out.items()
                for t, v in targets]

    def rating_list(self) -> list[tuple[int, int, int]]:
        """All ratings as (user, item, value), sorted for determinism."""
        return [(u, i, v)
                for u in sorted(self._ratings_by_user)
                for i, v in sorted(self._ratings_by_user[u].items())]
