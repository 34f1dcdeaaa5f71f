"""Core domain types: users, items, ratings, trust edges, and the immutable Dataset."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, slots=True)
class Rating:
    user: int
    item: int
    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or not RATING_MIN <= self.value <= RATING_MAX:
            raise ValueError(f"rating value {self.value!r} not an integer in "
                             f"[{RATING_MIN},{RATING_MAX}]")
        if self.user < 0 or self.item < 0:
            raise ValueError("user and item ids must be non-negative")


@dataclass(frozen=True, slots=True)
class TrustEdge:
    source: int
    target: int
    value: float

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError(f"self-trust edge on user {self.source}")
        if not -1.0 <= self.value <= 1.0:
            raise ValueError(f"trust value {self.value!r} outside [-1,1]")
        if self.source < 0 or self.target < 0:
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

    Construction validates every record (ratings are integers in [1,5], trust
    values lie in [-1,1], no self-trust) and builds per-user and per-item
    indexes. Duplicate (user, item) ratings and duplicate (source, target)
    edges resolve to the last occurrence; self-trust edges are dropped. All
    three events are counted in ``warnings``. After construction the dataset
    is read-only and safe to share across workers.
    """

    def __init__(self, ratings=(), trust_edges=(), users=(), items=()):
        self.warnings = IngestWarnings()
        self._ratings_by_user: dict[int, dict[int, int]] = {}
        self._ratings_by_item: dict[int, dict[int, int]] = {}
        self._trust_out: dict[int, dict[int, float]] = {}
        self.users: set[int] = set(users)
        self.items: set[int] = set(items)

        for user, item, value in ratings:
            Rating(user, item, value)  # validate
            self.users.add(user)
            self.items.add(item)
            by_user = self._ratings_by_user.setdefault(user, {})
            if item in by_user:
                self.warnings.duplicate_ratings += 1
            by_user[item] = value
            self._ratings_by_item.setdefault(item, {})[user] = value

        for source, target, value in trust_edges:
            if source == target:
                self.warnings.self_trust_edges += 1
                continue
            TrustEdge(source, target, value)  # validate
            self.users.add(source)
            self.users.add(target)
            out = self._trust_out.setdefault(source, {})
            if target in out:
                self.warnings.duplicate_trust_edges += 1
            out[target] = value

    # -- counts -----------------------------------------------------------

    @property
    def n_ratings(self) -> int:
        return sum(len(r) for r in self._ratings_by_user.values())

    @property
    def n_trust_edges(self) -> int:
        return sum(len(t) for t in self._trust_out.values())

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

        `exclude_item` drops one item from the profile first (used by
        leave-one-out evaluation). Raises NoRatingsError when nothing remains.
        """
        profile = self.user_ratings(user)
        if exclude_item is not None:
            profile = {i: v for i, v in profile.items() if i != exclude_item}
        if not profile:
            raise NoRatingsError(f"user {user} has no ratings")
        return sum(profile.values()) / len(profile)

    def item_raters(self, item: int) -> dict[int, int]:
        """All (user -> value) ratings of `item`; empty map if unrated."""
        if item not in self.items:
            raise UnknownItemError(f"unknown item {item}")
        return self._ratings_by_item.get(item, {})

    def direct_trust(self, source: int, target: int) -> float | None:
        """The directed edge value source -> target, or None if absent."""
        self._check_user(source)
        self._check_user(target)
        return self._trust_out.get(source, {}).get(target)

    def trust_neighbors(self, user: int) -> dict[int, float]:
        """Outgoing trust edges of `user` as a target -> value map."""
        self._check_user(user)
        return self._trust_out.get(user, {})

    def trust_edge_list(self) -> list[tuple[int, int, float]]:
        """All edges as (source, target, value), sorted for determinism."""
        return [(s, t, v)
                for s in sorted(self._trust_out)
                for t, v in sorted(self._trust_out[s].items())]

    @cached_property
    def trust_adjacency(self) -> TrustAdjacency:
        """Out- and in-lists of the trust graph, built on first use and
        shared read-only by every caller.

        Propagation and the search baselines all walk these lists; building
        them from the sorted edge list fixes every walk's (and every float
        sum's) order.
        """
        adjacency = TrustAdjacency({}, {}, {})
        for s, t, v in self.trust_edge_list():
            adjacency.out.setdefault(s, []).append((t, v))
            if v > 0.0:
                adjacency.positive_out.setdefault(s, []).append((t, v))
                adjacency.positive_in.setdefault(t, []).append((s, v))
        return adjacency

    def rating_list(self) -> list[tuple[int, int, int]]:
        """All ratings as (user, item, value), sorted for determinism."""
        return [(u, i, v)
                for u in sorted(self._ratings_by_user)
                for i, v in sorted(self._ratings_by_user[u].items())]
