"""File ingestion, synthetic dataset generation, and trust-table snapshots.

Rating and trust files are whitespace-delimited text, one record per line,
with `#` comment lines allowed (the layout of the public Epinions dumps);
one reader parses both and save_dataset writes both.
Snapshots persist a propagated network state as versioned text so expensive
propagation runs can be cached and reloaded bit-exactly; each header records
the damping, storage threshold, round and convergence it was built with, and
a run reuses it only when they fit and each loaded table's direct entries
equal its user's trust edges.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from .model import (Dataset, RATING_MAX, RATING_MIN, TrustgridError,
                    check_rating, check_trust_edge)
from .propagation import DIRECT, INFERRED, NetworkState

SNAPSHOT_MAGIC = "trustgrid-snapshot"
SNAPSHOT_VERSION = "v1"


class ParseError(TrustgridError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class VersionError(TrustgridError):
    pass


class StaleSnapshotError(TrustgridError):
    """A snapshot was built with other propagation settings, round limit or
    trust edges than this run's."""


def _not_plain(line_no, raw) -> None:
    """Check a line that is not plain ASCII without `_`: a blank or `#`
    comment line may hold anything and is skipped, any other is a
    ParseError. int() and float() also read `1_0` as 10 and other scripts'
    digits, and a byte a file's encoding cannot decode (read as a surrogate
    escape) would otherwise go unnamed."""
    line = raw.strip()
    if line and not line.startswith("#"):
        raise ParseError(line_no, f"fields must be plain ASCII without '_': "
                                  f"{line!r}")


def _check_integers(line_no, line, fields):
    """ParseError unless each of `fields`, which int() reads, is spelled as
    str() spells its value: int() also reads `+10` and `010` as 10 and `-0`
    as 0, so one id could go by two spellings."""
    for field in fields:
        if str(int(field)) != field:
            raise ParseError(line_no, f"non-canonical integer {field!r} in "
                                      f"{line!r}")


def _parse(stream, cast, check, bad_field):
    """`id id value` lines as (int, int, cast(value)) tuples that `check`
    accepts, read in one pass over `stream`; a ParseError names the first
    bad line. Blank lines and `#` comment lines are skipped."""
    records = []
    for line_no, raw in enumerate(stream, 1):
        if not raw.isascii() or "_" in raw:
            _not_plain(line_no, raw)
            continue
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(fields)}")
        try:
            record = int(fields[0]), int(fields[1]), cast(fields[2])
        except ValueError:
            raise ParseError(line_no, f"{bad_field} field in "
                                      f"{raw.strip()!r}") from None
        # only a field that starts with +, - or 0, that is, one that sorts
        # before "1", can be non-canonical
        if (fields[0] < "1" or fields[1] < "1"
                or cast is int and fields[2] < "1"):
            _check_integers(line_no, raw.strip(),
                            fields if cast is int else fields[:2])
        try:
            check(*record)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        records.append(record)
    return records


def parse_ratings(stream) -> list[tuple[int, int, int]]:
    """Parse `user item rating` lines into (user, item, value) tuples."""
    return _parse(stream, int, check_rating, "non-integer")


def parse_trust(stream) -> list[tuple[int, int, float]]:
    """Parse `source target trust` lines into (source, target, value) tuples."""
    return _parse(stream, float, check_trust_edge, "malformed")


def load_dataset(ratings_path=None, trust_path=None) -> Dataset:
    """Build a Dataset from rating and/or trust files."""
    ratings = []
    trust = []
    if ratings_path is not None:
        with open(ratings_path, encoding="utf-8", errors="surrogateescape") as fh:
            ratings = parse_ratings(fh)
    if trust_path is not None:
        with open(trust_path, encoding="utf-8", errors="surrogateescape") as fh:
            trust = parse_trust(fh)
    return Dataset(ratings, trust)


def save_dataset(dataset: Dataset, ratings_path, trust_path, comment: str) -> None:
    """Write `dataset` as the rating and trust files load_dataset reads back
    to the same rating_list() and trust_edge_list(), each opening with
    `comment` as a `#` line. Trust values keep full precision."""
    with open(ratings_path, "w", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        for u, i, v in dataset.rating_list():
            fh.write(f"{u} {i} {v}\n")
    with open(trust_path, "w", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        for s, t, v in dataset.trust_edge_list():
            fh.write(f"{s} {t} {v!r}\n")


# -- synthetic data -------------------------------------------------------

_COMMUNITY_SIZE = 50       # users per taste community
_IN_COMMUNITY_BIAS = 0.9   # chance that a trust edge stays in its community
_RATING_NOISE = 0.8        # stdev of a rating around its community's item mean


@dataclass(slots=True)
class SyntheticSpec:
    """Parameters for a seeded synthetic dataset.

    Defaults mirror the large Epinions crawl's shape: ~10 trust neighbors and
    ~15 ratings per user, items outnumbering users roughly 3:1. Users are
    grouped into small taste communities; trust edges stay mostly inside a
    community and ratings are drawn around a per-(community, item) mean, so
    trust links correlate with rating agreement.
    """

    n_users: int = 1000
    n_items: int = 3000
    avg_out_degree: float = 10.0
    avg_ratings_per_user: float = 15.0
    trust_value_mode: str = "binary"  # or "uniform_signed"
    rng_seed: int = 0

    def __post_init__(self):
        # written as `not x > 0` so that NaN is refused too
        if not (self.n_users > 0 and self.n_items > 0):
            raise ValueError("user and item counts must be positive")
        if not (self.avg_out_degree > 0 and self.avg_ratings_per_user > 0):
            raise ValueError("averages must be positive")
        # _poisson stops when a product of uniforms falls to exp(-mean); once
        # that leaves the normal range (mean above about 708.4) the product
        # underflows first and silently caps the draw
        if any(math.exp(-mean) < sys.float_info.min
               for mean in (self.avg_out_degree, self.avg_ratings_per_user)):
            raise ValueError("averages must be at most about 708")
        if self.trust_value_mode not in ("binary", "uniform_signed"):
            raise ValueError(f"unknown trust_value_mode {self.trust_value_mode!r}")


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's method; fine for the small means used here
    limit = math.exp(-mean)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset for a given spec and seed."""
    rng = random.Random(spec.rng_seed)
    n = spec.n_users
    n_comm = max(1, n // _COMMUNITY_SIZE)
    community = [u * n_comm // n for u in range(n)]
    members = {}
    for u in range(n):
        members.setdefault(community[u], []).append(u)

    def trust_value():
        if spec.trust_value_mode == "binary":
            return 1.0
        v = 0.0
        while v == 0.0:
            v = rng.uniform(-1.0, 1.0)
        return v

    edges = []
    for u in range(n):
        degree = _poisson(rng, spec.avg_out_degree)
        targets: set[int] = set()
        attempts = 0
        while len(targets) < degree and attempts < degree * 20:
            attempts += 1
            if n > 1 and rng.random() < _IN_COMMUNITY_BIAS:
                pool = members[community[u]]
                t = pool[rng.randrange(len(pool))]
            else:
                t = rng.randrange(n)
            if t != u:
                targets.add(t)
        for t in sorted(targets):
            edges.append((u, t, trust_value()))

    item_means: dict[tuple[int, int], float] = {}
    ratings = []
    for u in range(n):
        count = _poisson(rng, spec.avg_ratings_per_user)
        items: set[int] = set()
        while len(items) < min(count, spec.n_items):
            items.add(rng.randrange(spec.n_items))
        for item in sorted(items):
            key = (community[u], item)
            if key not in item_means:
                item_means[key] = rng.uniform(RATING_MIN, RATING_MAX)
            value = round(rng.gauss(item_means[key], _RATING_NOISE))
            ratings.append((u, item, min(RATING_MAX, max(RATING_MIN, value))))

    return Dataset(ratings, edges, users=range(n), items=range(spec.n_items))


# -- statistics -----------------------------------------------------------

@dataclass(slots=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_ratings: int
    n_trust_edges: int
    avg_neighbors: float
    avg_ratings_per_user: float
    avg_ratings_per_item: float


def dataset_stats(dataset: Dataset) -> DatasetStats:
    n_users = len(dataset.users)
    n_items = len(dataset.items)
    n_ratings = dataset.n_ratings
    n_edges = dataset.n_trust_edges
    return DatasetStats(
        n_users=n_users,
        n_items=n_items,
        n_ratings=n_ratings,
        n_trust_edges=n_edges,
        avg_neighbors=n_edges / n_users if n_users else 0.0,
        avg_ratings_per_user=n_ratings / n_users if n_users else 0.0,
        avg_ratings_per_item=n_ratings / n_items if n_items else 0.0,
    )


# -- snapshots ------------------------------------------------------------

def save_snapshot(state: NetworkState, path, config) -> None:
    """Write a network state, propagated under `config`, as versioned text;
    the header records its round, `config`'s damping and storage threshold,
    and whether it converged. Floats keep full precision."""
    header = (f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} round={state.round} "
              f"lambda={config.damping!r} threshold={config.store_threshold!r} "
              f"converged={int(state.converged)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for owner in sorted(state.tables):
            table = state.tables[owner]
            fh.write(f"node {owner}\n")
            for target in sorted(table):
                trust, hops = table[target]
                origin = DIRECT if hops == 1 else INFERRED
                fh.write(f"{owner} {target} {trust!r} {origin} {hops}\n")


def _count(text: str) -> int:
    value = int(text)
    if str(value) != text:  # int() also reads +1 and 01 as 1
        raise ValueError(text)
    return value


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


def _read_header(fh, path) -> dict:
    """A snapshot's first line: magic, version, then `round` (an int, as
    str() spells it), `converged` (a bool), `lambda` and `threshold`
    (floats), each once as key=value; a missing, repeated, malformed or
    unknown token is a ParseError on line 1."""
    header = fh.readline().split()
    if len(header) < 3 or header[0] != SNAPSHOT_MAGIC:
        raise VersionError(f"{path}: not a trustgrid snapshot")
    if header[1] != SNAPSHOT_VERSION:
        raise VersionError(f"{path}: unsupported snapshot version {header[1]}")
    kinds = {"round": _count, "converged": _flag, "lambda": float, "threshold": float}
    fields = {}
    for token in header[2:]:
        key, sep, text = token.partition("=")
        if not sep or key not in kinds or key in fields:
            raise ParseError(1, f"{path}: unknown or repeated header token {token!r}")
        try:
            fields[key] = kinds[key](text)
        except ValueError:
            raise ParseError(1, f"{path}: malformed header field "
                                f"{key}={text!r}") from None
    for key in kinds:
        if key not in fields:
            raise ParseError(1, f"{path}: header lacks {key}=")
    return fields


def _origin_defect(origin: str, hops: int) -> str:
    """Why an entry's origin and hops do not fit, checked in this order."""
    if origin not in (DIRECT, INFERRED):
        return f"unknown entry origin {origin!r}"
    if hops < 1:
        return f"hops {hops} below 1"
    return f"{origin} entry with hops {hops}"


def load_snapshot(path, dataset: Dataset, config) -> NetworkState:
    """This run's state, bit-exact: each dataset user's table holds the
    entries a snapshot lists for it, and its direct entries must equal the
    user's trust edges. StaleSnapshotError when the snapshot's damping,
    storage threshold, round or entries do not fit this run. The file is
    read in one pass; each direct line is checked against the trust edges
    as it is read, but a mismatch is reported only after every line has
    passed its own checks, so a line's defect is reported first."""
    out = dataset.trust_adjacency.out
    tables = {user: {} for user in sorted(dataset.users)}
    state = NetworkState(tables)
    matched = {}    # owner -> how many of its trust edges a direct line equals
    differs = set()  # owners with a direct line that equals no trust edge
    # an owner's entry lines come together, so its id, table and trust edges
    # are looked up once per run of lines with the same owner field, `block`
    block = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        meta = _read_header(fh, path)
        for key, value in (("lambda", config.damping),
                           ("threshold", config.store_threshold)):
            if meta[key] != value:
                raise StaleSnapshotError(
                    f"{path}: snapshot was built with {key}={meta[key]!r}, "
                    f"but this run uses {key}={value!r}")
        state.round, state.converged = meta["round"], meta["converged"]
        # a run converges in a round from 1 to max_rounds or stops
        # unconverged at max_rounds
        if not (0 < state.round <= config.max_rounds if state.converged
                else state.round == config.max_rounds):
            raise StaleSnapshotError(
                f"{path}: snapshot "
                f"{'converged' if state.converged else 'stopped unconverged'} "
                f"at round {state.round}, but this run uses "
                f"max_rounds={config.max_rounds}")
        for line_no, raw in enumerate(fh, 2):
            if not raw.isascii() or "_" in raw:
                _not_plain(line_no, raw)
                continue
            fields = raw.split()
            if not fields or fields[0][0] == "#":
                continue
            if len(fields) != 5:
                if fields[0] != "node" or len(fields) != 2:
                    raise ParseError(line_no,
                                     f"expected 5 fields, got {len(fields)}")
                # every dataset user has a table, listed or not, so a node
                # line is only checked
                try:
                    int(fields[1])
                except ValueError:
                    raise ParseError(line_no, f"malformed field in "
                                              f"{raw.strip()!r}") from None
                if fields[1] < "1":  # as in _parse
                    _check_integers(line_no, raw.strip(), fields[1:])
                continue
            owner_s, target_s, trust_s, origin, hops_s = fields
            try:
                if owner_s != block:
                    owner = int(owner_s)
                target, hops = int(target_s), int(hops_s)
                trust = float(trust_s)
            except ValueError:
                raise ParseError(line_no, f"malformed field in "
                                          f"{raw.strip()!r}") from None
            if owner_s < "1" or target_s < "1" or hops_s < "1":
                _check_integers(line_no, raw.strip(), (owner_s, target_s, hops_s))
            # hops 1 marks a direct entry
            if origin != (DIRECT if hops == 1 else INFERRED) or hops < 1:
                raise ParseError(line_no, _origin_defect(origin, hops))
            if not -1.0 <= trust <= 1.0:
                raise ParseError(line_no, f"trust value {trust} outside [-1,1]")
            if owner == target:
                raise ParseError(line_no, f"self entry of user {owner}")
            if owner_s != block:
                block, table, edges = owner_s, tables.get(owner), out.get(owner, ())
            if table is None or target not in tables:
                user = owner if table is None else target
                raise StaleSnapshotError(f"{path}: line {line_no}: user "
                                         f"{user} is not in this run's input")
            if target in table:
                raise ParseError(line_no, f"repeated entry {owner} {target}")
            if hops == 1:
                # save_snapshot lists an owner's direct entries in the order
                # of its trust edges; a file in another order is searched
                k = matched.get(owner, 0)
                if (k < len(edges) and edges[k] == (target, trust)
                        or (target, trust) in edges):
                    matched[owner] = k + 1
                else:
                    differs.add(owner)
            elif 0.0 <= trust < config.store_threshold:
                # run_round never stores a positive value below the threshold
                raise StaleSnapshotError(
                    f"{path}: line {line_no}: inferred trust {trust!r} is "
                    f"below this run's threshold={config.store_threshold!r}")
            table[target] = (trust, hops)
    differs.update(user for user, edges in out.items()
                   if matched.get(user, 0) != len(edges))
    if differs:
        raise StaleSnapshotError(f"{path}: direct trust of user {min(differs)} "
                                 "differs from the trust input")
    return state
