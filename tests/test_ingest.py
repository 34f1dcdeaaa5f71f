import io
import re

import pytest

from trustgrid.ingest import (DatasetStats, ParseError, StaleSnapshotError,
                              SyntheticSpec, VersionError, dataset_stats,
                              generate_synthetic, load_dataset, load_snapshot,
                              parse_ratings, parse_trust, save_dataset,
                              save_snapshot)
from trustgrid.model import Dataset
from trustgrid.propagation import PropagationConfig, init_network, propagate


def test_parse_ratings_basic():
    text = "# comment\n1 100 5\n2 100 3\n"
    assert parse_ratings(io.StringIO(text)) == [(1, 100, 5), (2, 100, 3)]


def test_parse_ratings_empty():
    assert parse_ratings(io.StringIO("")) == []


def test_parse_ratings_out_of_range():
    with pytest.raises(ParseError, match="line 1"):
        parse_ratings(io.StringIO("1 100 9\n"))


@pytest.mark.parametrize("bad, message", [
    ("1 100 0", "rating value 0 not an integer in [1,5]"),
    ("-1 100 5", "user and item ids must be non-negative"),
    ("1 -100 5", "user and item ids must be non-negative"),
    ("0 7 x", "non-integer field in '0 7 x'"),
], ids=["rating-0", "negative-user", "negative-item", "non-integer"])
def test_parse_ratings_invalid_record_names_line(bad, message):
    with pytest.raises(ParseError) as info:
        parse_ratings(io.StringIO(f"1 100 5\n{bad}\n"))
    assert str(info.value) == f"line 2: {message}"
    assert info.value.line_no == 2


def test_parse_ratings_malformed():
    with pytest.raises(ParseError, match="line 2"):
        parse_ratings(io.StringIO("1 100 5\n1 100\n"))


def test_parse_trust_binary_and_signed():
    assert parse_trust(io.StringIO("7 9 1\n")) == [(7, 9, 1.0)]
    assert parse_trust(io.StringIO("7 9 -0.5\n")) == [(7, 9, -0.5)]


def test_parse_trust_out_of_range():
    with pytest.raises(ParseError):
        parse_trust(io.StringIO("7 9 2\n"))


@pytest.mark.parametrize("bad, message", [
    ("7 9 nan", "trust value nan outside [-1,1]"),
    ("7 9 -1.5", "trust value -1.5 outside [-1,1]"),
    ("-7 9 1", "user ids must be non-negative"),
    ("7 9 x", "malformed field in '7 9 x'"),
], ids=["nan", "below-minus-1", "negative-source", "malformed"])
def test_parse_trust_invalid_record_names_line(bad, message):
    with pytest.raises(ParseError) as info:
        parse_trust(io.StringIO(f"7 9 1\n{bad}\n"))
    assert str(info.value) == f"line 2: {message}"
    assert info.value.line_no == 2


@pytest.mark.parametrize("field", ["+10", "010", "00", "-0", "-010"])
@pytest.mark.parametrize("parse, template", [
    (parse_ratings, "{} 10 1"), (parse_ratings, "0 {} 1"),
    (parse_ratings, "0 10 {}"), (parse_trust, "{} 10 1"),
    (parse_trust, "0 {} 1"),
], ids=["rating-user", "rating-item", "rating-value", "trust-source",
        "trust-target"])
def test_non_canonical_integer_names_its_line(parse, template, field):
    # int() reads +10 and 010 as 10, so `0 010 1` after `0 10 1` would
    # silently name item 10 again and count as a duplicate
    bad = template.format(field)
    with pytest.raises(ParseError) as info:
        parse(io.StringIO(f"0 10 1\n{bad}\n"))
    assert str(info.value) == f"line 2: non-canonical integer {field!r} in {bad!r}"


def test_zero_is_a_canonical_id():
    assert parse_ratings(io.StringIO("0 0 1\n")) == [(0, 0, 1)]
    assert parse_trust(io.StringIO("0 10 0\n10 0 -0.0\n")) == [(0, 10, 0.0),
                                                               (10, 0, -0.0)]


def test_parse_totality():
    lines = ["# header"] + [f"{u} {u + 1} 1" for u in range(50)]
    assert len(parse_trust(io.StringIO("\n".join(lines)))) == 50


# fields that int() reads as 10 or 3, or that UTF-8 cannot decode at all
NOT_PLAIN = {"underscore": b"1_0", "arabic-indic-digit": "٣".encode(),
             "not-utf8": b"\xff"}


@pytest.mark.parametrize("field", NOT_PLAIN.values(), ids=NOT_PLAIN)
@pytest.mark.parametrize("kind", ["ratings", "trust"])
def test_data_line_not_plain_ascii_names_its_line(tmp_path, kind, field):
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(b"# header\n0 10 1\n0 " + field + b" 1\n")
    with pytest.raises(ParseError, match="^line 3: fields must be plain ASCII"):
        load_dataset(**{f"{kind}_path": path})


def test_save_dataset_round_trip(tmp_path):
    ds = Dataset([(0, 7, 4), (3, 2, 1)],
                 [(0, 3, 0.1 + 0.2), (3, 0, -1.0), (2, 0, 1.0)])
    assert len(repr(0.1 + 0.2)) == 19  # 17 significant digits
    ratings, trust = tmp_path / "r.txt", tmp_path / "t.txt"
    save_dataset(ds, ratings, trust, '{"seed": 0}')
    assert trust.read_text().splitlines()[0] == '# {"seed": 0}'
    loaded = load_dataset(ratings, trust)
    assert loaded.rating_list() == ds.rating_list()
    assert loaded.trust_edge_list() == ds.trust_edge_list()


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_users=200, n_items=400, rng_seed=7)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a.rating_list() == b.rating_list()
    assert a.trust_edge_list() == b.trust_edge_list()


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_users=0)
    with pytest.raises(ValueError):
        SyntheticSpec(avg_out_degree=-1)
    with pytest.raises(ValueError):
        SyntheticSpec(trust_value_mode="nope")
    for field in ("avg_out_degree", "avg_ratings_per_user"):
        with pytest.raises(ValueError, match="averages must be positive"):
            SyntheticSpec(**{field: float("nan")})
        # above about 708.4, exp(-mean) is no normal float and the Poisson
        # draw would silently cap near 745
        for mean in (709.0, 800.0, 1000.0, float("inf")):
            with pytest.raises(ValueError, match="averages must be at most about 708"):
                SyntheticSpec(**{field: mean})
        SyntheticSpec(**{field: 708.0})


def test_synthetic_degree_close_to_spec():
    spec = SyntheticSpec(n_users=2000, n_items=4000, avg_out_degree=10.0,
                         rng_seed=1)
    stats = dataset_stats(generate_synthetic(spec))
    assert 8.0 <= stats.avg_neighbors <= 12.0


def test_synthetic_no_self_edges_no_duplicates_in_range():
    ds = generate_synthetic(SyntheticSpec(n_users=300, n_items=300,
                                          trust_value_mode="uniform_signed",
                                          rng_seed=3))
    edges = ds.trust_edge_list()
    assert len(edges) == len({(s, t) for s, t, _ in edges})
    assert all(s != t and -1.0 <= v <= 1.0 and v != 0.0 for s, t, v in edges)
    assert all(1 <= v <= 5 for _, _, v in ds.rating_list())
    assert ds.warnings.self_trust_edges == 0


def test_dataset_stats_simple():
    ds = Dataset([(1, 10, 4), (2, 11, 3)])
    stats = dataset_stats(ds)
    assert stats.n_users == 2 and stats.n_ratings == 2
    assert stats.avg_ratings_per_user == 1.0


def test_dataset_stats_empty():
    stats = dataset_stats(Dataset())
    assert stats == DatasetStats(0, 0, 0, 0, 0.0, 0.0, 0.0)


def test_snapshot_round_trip(tmp_path):
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 0.813772), (2, 0, -0.25),
                      (0, 3, 0.9), (3, 4, 1.0)])
    config = PropagationConfig(store_threshold=0.3)
    state = propagate(ds, config)
    path = tmp_path / "state.snap"
    save_snapshot(state, path, config)
    loaded = load_snapshot(path, ds, config)
    assert loaded == state


def test_snapshot_round_trip_init_state(tmp_path):
    ds = Dataset([], [(0, 1, -0.3)])
    state = init_network(ds)
    path = tmp_path / "init.snap"
    config = PropagationConfig(max_rounds=0)
    save_snapshot(state, path, config)
    loaded = load_snapshot(path, ds, config)
    assert loaded == state
    assert all(hops == 1 for t in loaded.tables.values()
               for _, hops in t.values())
    entry_lines = [line for line in path.read_text().splitlines()[1:]
                   if not line.startswith("node ")]
    assert [line.split()[3] for line in entry_lines] == ["direct"]


# the damping and storage threshold of PropagationConfig(), which the headers
# of the hand-written snapshots below record
SETTINGS = "lambda=0.8 threshold=0.7"


def test_snapshot_unknown_version(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_text("trustgrid-snapshot v999 round=0\n")
    with pytest.raises(VersionError):
        load_snapshot(path, Dataset(), PropagationConfig())


def test_snapshot_not_a_snapshot(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(VersionError):
        load_snapshot(path, Dataset(), PropagationConfig())


@pytest.mark.parametrize("bad_line", [
    "0 1 0.5 inferred",      # too few fields
    "0 1 high inferred 2",   # non-numeric trust
    "0 1 0.5 inferred two",  # non-numeric hops
    "0 one 0.5 inferred 2",  # non-numeric target
    "0 1 0.5 inferred 0",    # hops below 1
    "node zero",             # non-numeric node id
    "0 1 nan inferred 2",    # trust not finite
    "0 1 7.5 direct 1",      # trust outside [-1, 1]
    "0 1 0.5 direct 2",      # direct entries have hops 1
    "0 1 0.5 inferred 1",    # inferred entries have hops >= 2
    "0 1 1.0 direct 1",      # repeats line 4
    "0 2 0.9 inferred 2",    # repeats line 5
    "0 1 0.9 inferred 2",    # repeats line 4's (owner, target)
    "0 0 0.9 inferred 2",    # self entry
    "1 0 0.5 guessed 2",     # unknown entry origin
])
def test_snapshot_bad_line_reports_its_file_line(tmp_path, bad_line):
    path = tmp_path / "bad.snap"
    path.write_text(f"trustgrid-snapshot v1 round=1 {SETTINGS} converged=0\n"
                    "# comment\nnode 0\n0 1 1.0 direct 1\n0 2 0.9 inferred 2\n"
                    + bad_line + "\n")
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ParseError, match="^line 6: "):
        load_snapshot(path, ds, PropagationConfig(max_rounds=1))


@pytest.mark.parametrize("line", ["node +1", "node 01", "01 2 1.0 direct 1",
                                  "1 +2 1.0 direct 1", "1 2 1.0 direct 01",
                                  "-0 2 1.0 direct 1"])
def test_snapshot_non_canonical_integer_names_its_line(tmp_path, line):
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0)])
    path = tmp_path / "bad.snap"

    def write(lines):
        path.write_text(f"trustgrid-snapshot v1 round=1 {SETTINGS} converged=1\n"
                        "node 0\n0 1 1.0 direct 1\n0 2 0.9 inferred 2\n"
                        + "\n".join(lines) + "\n")

    write(["node 1", "1 2 1.0 direct 1"])
    load_snapshot(path, ds, PropagationConfig())
    write([line, "1 2 1.0 direct 1"] if line.startswith("node") else [line])
    with pytest.raises(ParseError, match="^line 5: non-canonical integer"):
        load_snapshot(path, ds, PropagationConfig())


@pytest.mark.parametrize("hops", NOT_PLAIN.values(), ids=NOT_PLAIN)
def test_snapshot_line_not_plain_ascii_names_its_line(tmp_path, hops):
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0)])
    path = tmp_path / "bad.snap"

    def write(field):
        path.write_bytes(f"trustgrid-snapshot v1 round=1 {SETTINGS} converged=1\n"
                         "node 0\n0 1 1.0 direct 1\n".encode()
                         + b"0 2 0.9 inferred " + field + b"\n1 2 1.0 direct 1\n")

    write(b"2")
    load_snapshot(path, ds, PropagationConfig())
    write(hops)
    with pytest.raises(ParseError, match="^line 4: fields must be plain ASCII"):
        load_snapshot(path, ds, PropagationConfig())


@pytest.mark.parametrize("field", [
    "round=x", "round=-0", "round=00", "round=+0", "converged=x", "converged=7",
    "lambda=abc", "threshold=x", "lambda=na", "threshold=na",
])
def test_snapshot_bad_header_field_is_line_1(tmp_path, field):
    path = tmp_path / "bad.snap"
    key, value = field.split("=")
    fields = {"round": "0", "converged": "0", "lambda": "0.8", "threshold": "0.7",
              key: value}
    header = " ".join(f"{k}={v}" for k, v in fields.items())
    path.write_text(f"trustgrid-snapshot v1 {header}\nnode 0\n")
    with pytest.raises(ParseError, match=f"^line 1: .*{key}='{re.escape(value)}'"):
        load_snapshot(path, Dataset(), PropagationConfig())


@pytest.mark.parametrize("entry", ["0 9 0.8 inferred 2", "9 0 0.8 inferred 2"])
def test_snapshot_entry_of_user_outside_dataset_is_stale(tmp_path, entry):
    path = tmp_path / "net.snap"
    path.write_text(f"trustgrid-snapshot v1 round=0 {SETTINGS} converged=0\n"
                    "0 1 1.0 direct 1\n"
                    + entry + "\n")
    ds = Dataset([], [(0, 1, 1.0)])
    with pytest.raises(StaleSnapshotError,
                       match="line 3: user 9 is not in this run's input"):
        load_snapshot(path, ds, PropagationConfig(max_rounds=0))


@pytest.mark.parametrize("trust", ["0.1", "0.0"])
def test_snapshot_inferred_entry_below_threshold_is_stale(tmp_path, trust):
    path = tmp_path / "net.snap"
    path.write_text(f"trustgrid-snapshot v1 round=1 {SETTINGS} converged=0\n"
                    f"0 1 1.0 direct 1\n1 2 1.0 direct 1\n0 2 {trust} inferred 2\n")
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(StaleSnapshotError, match="line 4: .*threshold=0.7"):
        load_snapshot(path, ds, PropagationConfig(max_rounds=1))


def test_snapshot_inferred_line_before_its_direct_line_is_repeated(tmp_path):
    path = tmp_path / "net.snap"
    path.write_text(f"trustgrid-snapshot v1 round=1 {SETTINGS} converged=0\n"
                    "0 1 0.9 inferred 2\n0 1 1.0 direct 1\n")
    ds = Dataset([], [(0, 1, 1.0)])
    with pytest.raises(ParseError, match="^line 3: repeated entry 0 1$"):
        load_snapshot(path, ds, PropagationConfig(max_rounds=1))


def test_snapshot_user_without_direct_lines_is_stale(tmp_path):
    # user 1's only direct line, 1 2 1.0, is missing; its inferred line is not
    path = tmp_path / "net.snap"
    path.write_text(f"trustgrid-snapshot v1 round=1 {SETTINGS} converged=0\n"
                    "node 0\n0 1 1.0 direct 1\n0 2 0.8 inferred 2\n"
                    "node 1\n1 3 0.8 inferred 2\nnode 2\n2 3 1.0 direct 1\n")
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(StaleSnapshotError,
                       match="direct trust of user 1 differs from the trust input"):
        load_snapshot(path, ds, PropagationConfig(max_rounds=1))


def test_snapshot_round_trip_tables_ending_in_inferred_entries(tmp_path):
    # 0 and 1 infer their highest targets, so their tables end inferred
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    config = PropagationConfig(max_rounds=1)
    state = propagate(ds, config)
    path = tmp_path / "state.snap"
    save_snapshot(state, path, config)
    lines = path.read_text().splitlines()
    for owner in (0, 1):
        last = lines[lines.index(f"node {owner}") + 1 + len(state.tables[owner]) - 1]
        assert last.split()[3] == "inferred"
    assert load_snapshot(path, ds, config) == state


def test_snapshot_negative_inferred_entry_loads(tmp_path):
    path = tmp_path / "net.snap"
    path.write_text(f"trustgrid-snapshot v1 round=1 {SETTINGS} converged=0\n"
                    "0 1 1.0 direct 1\n1 2 -1.0 direct 1\n0 2 -0.8 inferred 2\n")
    ds = Dataset([], [(0, 1, 1.0), (1, 2, -1.0)])
    state = load_snapshot(path, ds, PropagationConfig(max_rounds=1))
    assert state.tables[0] == {1: (1.0, 1), 2: (-0.8, 2)}


@pytest.mark.parametrize("header", [
    "round=4 converged=1", "round=2 converged=0", "round=0 converged=1",
    "round=-1 converged=1",
])
def test_snapshot_round_no_run_reaches_is_stale(tmp_path, header):
    path = tmp_path / "net.snap"
    path.write_text(f"trustgrid-snapshot v1 {header} {SETTINGS}\n")
    with pytest.raises(StaleSnapshotError, match="max_rounds=3"):
        load_snapshot(path, Dataset(), PropagationConfig(max_rounds=3))


@pytest.mark.parametrize("key", ["round", "converged", "lambda", "threshold"])
def test_snapshot_header_without_field_is_line_1(tmp_path, key):
    fields = {"round": "0", "converged": "0", "lambda": "0.8", "threshold": "0.7"}
    del fields[key]
    header = " ".join(f"{k}={v}" for k, v in fields.items())
    path = tmp_path / "net.snap"
    path.write_text(f"trustgrid-snapshot v1 {header}\n")
    with pytest.raises(ParseError, match=f"^line 1: .*header lacks {key}="):
        load_snapshot(path, Dataset(), PropagationConfig(max_rounds=0))


@pytest.mark.parametrize("extra", [
    "lambda=0.8",   # repeats a field, with the value this run uses
    "round=0",      # repeats a field, with the same value
    "junk",         # a token without =
    "lambda",       # a field name without =
    "tol=0.5",      # a key no snapshot records
    "=0.8",         # an empty key
])
def test_snapshot_header_extra_token_is_line_1(tmp_path, extra):
    path = tmp_path / "net.snap"
    path.write_text(f"trustgrid-snapshot v1 round=0 {SETTINGS} converged=0 {extra}\n")
    with pytest.raises(ParseError, match=f"^line 1: .*header token '{extra}'"):
        load_snapshot(path, Dataset(), PropagationConfig(max_rounds=0))


# -- each reader takes one pass over its file -------------------------------

# The trust edges the snapshot lines below are checked against.
READER_EDGES = [(0, 1, 1.0), (0, 2, 0.5), (1, 2, 1.0)]
SNAPSHOT_HEADER = f"trustgrid-snapshot v1 round=1 {SETTINGS} converged=1"


def _read(tmp_path, kind, body: bytes):
    """Load `body` as the data lines of a `kind` file, after its first line
    (a comment, or a snapshot's header), and return what was read."""
    path = tmp_path / f"{kind}.txt"
    first = SNAPSHOT_HEADER if kind == "snapshot" else "# first line"
    path.write_bytes(first.encode() + b"\n" + body)
    if kind == "snapshot":
        return load_snapshot(path, Dataset([], READER_EDGES),
                             PropagationConfig(max_rounds=1)).tables
    ds = load_dataset(**{f"{kind}_path": path})
    return ds.rating_list() if kind == "ratings" else ds.trust_edge_list()


# per kind: three good data lines, one with a malformed field, and one whose
# last field is a byte UTF-8 cannot decode
READER_LINES = {
    "ratings": (["0 10 1", "1 10 2", "2 11 3"], "0 10 x", b"0 10 \xff"),
    "trust": (["0 1 1", "0 2 0.5", "1 2 1"], "0 9 x", b"0 9 \xff"),
    "snapshot": (["0 1 1.0 direct 1", "0 2 0.5 direct 1", "1 2 1.0 direct 1"],
                 "0 2 high inferred 2", b"1 0 0.9 inferred \xff"),
}
MALFORMED = {"ratings": "non-integer field in '0 10 x'",
             "trust": "malformed field in '0 9 x'",
             "snapshot": "malformed field in '0 2 high inferred 2'"}


@pytest.mark.parametrize("kind", READER_LINES)
@pytest.mark.parametrize("first", ["malformed", "not-plain"])
def test_first_bad_line_wins_across_defect_kinds(tmp_path, kind, first):
    good, malformed, not_plain = READER_LINES[kind]
    bad = [malformed.encode(), not_plain]
    if first == "not-plain":
        bad.reverse()
    # file lines 2 to 6; the bad ones are lines 3 and 5
    lines = [good[0].encode(), bad[0], good[1].encode(), bad[1], good[2].encode()]
    with pytest.raises(ParseError) as info:
        _read(tmp_path, kind, b"".join(line + b"\n" for line in lines))
    assert info.value.line_no == 3
    if first == "malformed":
        assert str(info.value) == f"line 3: {MALFORMED[kind]}"
    else:
        assert str(info.value).startswith("line 3: fields must be plain ASCII")


@pytest.mark.parametrize("kind", READER_LINES)
def test_crlf_blank_and_comment_lines_parse(tmp_path, kind):
    good = READER_LINES[kind][0]
    expected = _read(tmp_path, kind, "".join(f"{line}\n" for line in good).encode())
    lines = ["", "# a comment", good[0], "   ", "\t# an indented comment",
             f"  {good[1]}\t", "# ¬ ascii, which a comment may hold", good[2], ""]
    assert _read(tmp_path, kind, "".join(f"{line}\r\n" for line in lines)
                 .encode()) == expected


@pytest.mark.parametrize("entry, message", [
    ("0 2 0.5 guessed 0", "unknown entry origin 'guessed'"),  # before hops
    ("0 2 0.5 Direct 1", "unknown entry origin 'Direct'"),
    ("0 2 0.5 direct 0", "hops 0 below 1"),
    ("0 2 0.5 inferred -1", "hops -1 below 1"),
    ("0 2 0.5 direct 2", "direct entry with hops 2"),
    ("0 2 0.5 inferred 1", "inferred entry with hops 1"),
])
def test_snapshot_entry_origin_and_hops_defects(tmp_path, entry, message):
    with pytest.raises(ParseError) as info:
        _read(tmp_path, "snapshot", f"0 1 1.0 direct 1\n{entry}\n".encode())
    assert str(info.value) == f"line 3: {message}"


DIRECT_LINES = ["node 0", "0 1 1.0 direct 1", "0 2 0.5 direct 1",
                "node 1", "1 2 1.0 direct 1", "node 2"]
STALE_USER_0 = (StaleSnapshotError, "direct trust of user 0 differs from the trust input")


@pytest.mark.parametrize("edit, refusal", [
    ({2: None}, STALE_USER_0),                                 # missing
    ({2: "0 2 0.25 direct 1"}, STALE_USER_0),                  # other value
    ({5: "1 0 1.0 direct 1"},                                  # no such edge
     (StaleSnapshotError, "direct trust of user 1 differs")),
    ({4: "1 2 1.0 direct 1\n1 2 1.0 direct 1"},
     (ParseError, "^line 7: repeated entry 1 2$")),
    # users are checked in id order, not in the order their lines come
    ({0: "node 1\n1 2 -1.0 direct 1\nnode 0", 2: None, 4: None}, STALE_USER_0),
    # a line's own defect, even on a later line, is reported first
    ({2: "0 2 0.25 direct 1", 5: "node x"},
     (ParseError, "^line 7: malformed field in 'node x'$")),
], ids=["missing", "other-value", "no-such-edge", "repeated", "user-order",
        "line-defect-first"])
def test_snapshot_direct_entry_not_the_trust_edge_is_refused(tmp_path, edit,
                                                             refusal):
    lines = [edit.get(n, line) for n, line in enumerate(DIRECT_LINES)]
    body = "".join(f"{line}\n" for line in lines if line is not None)
    error, message = refusal
    with pytest.raises(error, match=message):
        _read(tmp_path, "snapshot", body.encode())


def test_snapshot_direct_entries_in_any_order_load(tmp_path):
    lines = ["0 2 0.5 direct 1", "1 2 1.0 direct 1", "0 1 1.0 direct 1"]
    tables = _read(tmp_path, "snapshot", "".join(f"{line}\n" for line in lines)
                   .encode())
    assert tables == {0: {2: (0.5, 1), 1: (1.0, 1)}, 1: {2: (1.0, 1)}, 2: {}}


def test_snapshot_with_crlf_line_ends_round_trips(tmp_path):
    ds = Dataset([], [(0, 1, 1.0), (1, 2, 0.813772), (2, 0, -0.25),
                      (0, 3, 0.9), (3, 4, 1.0)])
    config = PropagationConfig(store_threshold=0.3)
    state = propagate(ds, config)
    path = tmp_path / "state.snap"
    save_snapshot(state, path, config)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_snapshot(path, ds, config) == state
