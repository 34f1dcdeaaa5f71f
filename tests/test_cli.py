import hashlib
import json
import os
import subprocess
import sys

import pytest

import trustgrid
from trustgrid import baselines, evaluation, propagation
from trustgrid.cli import build_parser, main
from trustgrid.ingest import load_dataset
from trustgrid.propagation import PropagationConfig


@pytest.fixture()
def small_dataset(tmp_path):
    ratings = tmp_path / "ratings.txt"
    trust = tmp_path / "trust.txt"
    ratings.write_text("# synthetic\n0 7 4\n1 7 4\n1 8 2\n2 7 3\n")
    trust.write_text("0 1 1\n1 2 1\n0 2 1\n")
    return ratings, trust


def test_stats_output(small_dataset, capsys):
    ratings, trust = small_dataset
    assert main(["stats", "--ratings", str(ratings), "--trust", str(trust)]) == 0
    out = capsys.readouterr().out
    assert "users=3" in out
    assert "ratings=4" in out
    assert "trust_edges=3" in out


def test_ingest_reports_warnings(tmp_path, capsys):
    ratings = tmp_path / "r.txt"
    ratings.write_text("0 7 4\n0 7 5\n")
    trust = tmp_path / "t.txt"
    trust.write_text("1 1 1\n")
    assert main(["ingest", "--ratings", str(ratings), "--trust", str(trust)]) == 0
    out = capsys.readouterr().out
    assert "duplicate_ratings=1" in out
    assert "self_trust_edges=1" in out


def test_malformed_input_is_data_error(tmp_path, capsys):
    ratings = tmp_path / "r.txt"
    ratings.write_text("0 7 99\n")
    assert main(["stats", "--ratings", str(ratings)]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["evaluate"]) == 1


def test_recommend_unknown_user_is_data_error(small_dataset, caplog):
    ratings, trust = small_dataset
    code = main(["recommend", "--ratings", str(ratings), "--trust", str(trust),
                 "--user", "999", "--item", "7", "--method", "avg"])
    assert code == 2
    assert "999" in caplog.text


def test_recommend_unknown_item_is_data_error(small_dataset, caplog, capsys):
    ratings, trust = small_dataset
    code = main(["recommend", "--ratings", str(ratings), "--trust", str(trust),
                 "--user", "0", "--item", "99"])
    assert code == 2
    assert "unknown item 99" in caplog.text
    assert capsys.readouterr().out == ""


def test_recommend_proposed_without_trusted_rater(small_dataset, capsys):
    ratings, trust = small_dataset
    code = main(["recommend", "--ratings", str(ratings), "--trust", str(trust),
                 "--user", "2", "--item", "8"])
    assert code == 0
    assert capsys.readouterr().out == (
        "no prediction: no positively-trusted neighbor rated this item\n")


def test_recommend_proposed(small_dataset, capsys):
    ratings, trust = small_dataset
    code = main(["recommend", "--ratings", str(ratings), "--trust", str(trust),
                 "--user", "0", "--item", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted=" in out and "confidence=" in out


def test_trust_query_without_target_is_usage_error(small_dataset, caplog, capsys):
    _, trust = small_dataset
    assert main(["trust", "--trust", str(trust), "--source", "1"]) == 1
    assert "trust query needs --source and --target" in caplog.text
    assert capsys.readouterr().out == ""


def test_trust_query(small_dataset, capsys):
    ratings, trust = small_dataset
    code = main(["trust", "--trust", str(trust), "--source", "1", "--target", "2"])
    assert code == 0
    assert "origin=direct" in capsys.readouterr().out


def test_propagate_snapshots_byte_identical(small_dataset, tmp_path, capsys):
    _, trust = small_dataset
    snaps = []
    for name in ("a.snap", "b.snap"):
        path = tmp_path / name
        assert main(["propagate", "--trust", str(trust),
                     "--snapshot", str(path)]) == 0
        snaps.append(path.read_bytes())
    assert snaps[0] == snaps[1]


def test_synth_byte_identical_and_parseable(tmp_path, capsys):
    outs = []
    for tag in ("x", "y"):
        r = tmp_path / f"r{tag}.txt"
        t = tmp_path / f"t{tag}.txt"
        assert main(["synth", "--users", "60", "--items", "80", "--seed", "3",
                     "--out-ratings", str(r), "--out-trust", str(t)]) == 0
        outs.append((r.read_bytes(), t.read_bytes()))
    assert outs[0] == outs[1]
    r, t = tmp_path / "rx.txt", tmp_path / "tx.txt"
    assert main(["stats", "--ratings", str(r), "--trust", str(t)]) == 0


@pytest.mark.parametrize("flag, value, message", [
    ("--users", "0", "user and item counts must be positive"),
    ("--items", "0", "user and item counts must be positive"),
    ("--degree", "-1", "averages must be positive"),
    ("--degree", "nan", "averages must be positive"),
    ("--ratings-per-user", "0", "averages must be positive"),
    ("--degree", "1000", "averages must be at most about 708"),
    ("--ratings-per-user", "inf", "averages must be at most about 708"),
])
def test_synth_out_of_range_is_usage_error(tmp_path, flag, value, message, caplog,
                                           capsys):
    r, t = tmp_path / "r.txt", tmp_path / "t.txt"
    assert main(["synth", "--users", "5", "--items", "5", flag, value,
                 "--out-ratings", str(r), "--out-trust", str(t)]) == 1
    assert f"usage error: {message}" in caplog.text
    assert capsys.readouterr().out == ""
    assert not r.exists() and not t.exists()


def test_trust_leave_one_out_prints_library_result(tmp_path, capsys):
    trust = tmp_path / "t.txt"
    # 0->2 and 1->3 can be re-inferred through 1 and 2; the other four cannot
    trust.write_text("0 1 1\n1 2 1\n0 2 0.9\n2 3 1\n1 3 0.6\n3 4 1\n")
    ds = load_dataset(None, str(trust))
    for flags, sample in (([], None), (["--sample", "0.5", "--seed", "3"], 0.5)):
        coverage, error = evaluation.leave_one_out_trust(
            ds, PropagationConfig(), sample=sample, seed=3)
        assert 0.0 < coverage < 1.0
        argv = ["trust", "--trust", str(trust), "--leave-one-out", *flags]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == f"coverage={coverage:.4f} mae={error:.4f}\n"
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def test_evaluate_report_deterministic(tmp_path, capsys):
    r = tmp_path / "r.txt"
    t = tmp_path / "t.txt"
    assert main(["synth", "--users", "60", "--items", "80", "--seed", "3",
                 "--out-ratings", str(r), "--out-trust", str(t)]) == 0
    reports = []
    for name in ("rep1.json", "rep2.json"):
        out = tmp_path / name
        code = main(["evaluate", "--ratings", str(r), "--trust", str(t),
                     "--method", "avg", "--sample", "0.5", "--seed", "11",
                     "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        record["config"].pop("out")
        reports.append(json.dumps(record, sort_keys=True))
    assert reports[0] == reports[1]


def test_evaluate_proposed_with_snapshot_cache(tmp_path, capsys):
    r = tmp_path / "r.txt"
    t = tmp_path / "t.txt"
    assert main(["synth", "--users", "60", "--items", "80", "--seed", "3",
                 "--out-ratings", str(r), "--out-trust", str(t)]) == 0
    snap = tmp_path / "net.snap"
    query = ["evaluate", "--ratings", str(r), "--trust", str(t),
             "--method", "proposed", "--sample", "0.3", "--seed", "1"]
    capsys.readouterr()
    assert main(query) == 0
    fresh = capsys.readouterr().out
    assert "method=proposed" in fresh
    for _ in range(2):  # second run loads the cached snapshot
        assert main(query + ["--snapshot", str(snap)]) == 0
        assert capsys.readouterr().out == fresh
    assert snap.exists()


def test_only_propagate_builds_the_propagation_index(tmp_path, monkeypatch,
                                                     capsys):
    # propagate builds the index once for all its rounds; evaluating from a
    # snapshot, or with any baseline, never propagates and must not build it
    r, t, snap = tmp_path / "r.txt", tmp_path / "t.txt", tmp_path / "net.snap"
    assert main(["synth", "--users", "40", "--items", "80", "--seed", "3",
                 "--out-ratings", str(r), "--out-trust", str(t)]) == 0
    built = []
    build = propagation._build_index
    monkeypatch.setattr(propagation, "_build_index",
                        lambda dataset: built.append(dataset) or build(dataset))
    assert main(["propagate", "--trust", str(t), "--snapshot", str(snap)]) == 0
    assert len(built) == 1
    for method in ("proposed", "tidal", "mole", "cf", "avg"):
        flags = ["--snapshot", str(snap)] if method == "proposed" else []
        assert main(["evaluate", "--ratings", str(r), "--trust", str(t),
                     "--method", method, *flags]) == 0
    assert len(built) == 1


def _baseline_recommend_line(method, user, item, ds):
    """The line `recommend --method <method>` prints, from the library."""
    depth = None
    if method == "tidal":
        res = baselines.tidal_trust_recommend(user, item, ds)
        predicted, depth = res.predicted, res.depth
    elif method == "mole":
        scores = baselines.mole_trust_scores(user, ds)
        weights = {u: s for u, s in scores.items() if s > 0.0}
        predicted = baselines.mole_trust_predict(user, item, weights, ds)
    elif method == "cf":
        predicted = baselines.correlation_cf_predict(user, item, ds)
    else:
        predicted = baselines.simple_average(user, item, ds)
    if predicted is None:
        return "no prediction"
    if depth is None:
        return f"predicted={predicted:.4f}"
    return f"predicted={predicted:.4f} depth={depth}"


@pytest.mark.parametrize("method", ["tidal", "mole", "cf", "avg"])
def test_recommend_baseline_matches_library(method, tmp_path, capsys):
    r, t = tmp_path / "r.txt", tmp_path / "t.txt"
    assert main(["synth", "--users", "40", "--items", "200", "--degree", "3",
                 "--seed", "3", "--out-ratings", str(r), "--out-trust", str(t)]) == 0
    ds = load_dataset(r, t)
    # the first held-out rating the method misses and the first it predicts
    cases = {}
    for user, item, _ in ds.rating_list():
        line = _baseline_recommend_line(method, user, item, ds)
        cases.setdefault(line == "no prediction", (user, item, line))
    assert sorted(cases) == [False, True]
    for user, item, line in cases.values():
        capsys.readouterr()
        assert main(["recommend", "--ratings", str(r), "--trust", str(t),
                     "--method", method, "--user", str(user),
                     "--item", str(item)]) == 0
        assert capsys.readouterr().out == line + "\n"


def test_snapshot_with_other_settings_is_data_error(small_dataset, tmp_path,
                                                    caplog, capsys):
    _, trust = small_dataset
    snap = tmp_path / "net.snap"
    assert main(["propagate", "--trust", str(trust), "--lambda", "0.5",
                 "--snapshot", str(snap)]) == 0
    query = ["trust", "--trust", str(trust), "--source", "0", "--target", "2",
             "--snapshot", str(snap)]
    assert main(query) == 2
    assert "lambda=0.5" in caplog.text
    caplog.clear()
    assert main(query + ["--lambda", "0.5", "--threshold", "0.6"]) == 2
    assert "threshold=0.7" in caplog.text and "lambda" not in caplog.text
    assert main(query + ["--lambda", "0.5"]) == 0


@pytest.mark.parametrize("old, new", [
    ("lambda=0.8 ", ""), ("threshold=0.7 ", ""),
    ("lambda=0.8", "lambda=na"), ("threshold=0.7", "threshold=na"),
    # the last lambda is this run's, so a header read last-wins would load
    ("lambda=0.8", "lambda=0.5 lambda=0.8"),
    ("lambda=0.8", "lambda=0.8 junk"), ("lambda=0.8", "lambda=0.8 tol=0.5"),
], ids=["no-lambda", "no-threshold", "lambda-na", "threshold-na",
        "repeated-lambda", "junk-token", "unknown-key"])
@pytest.mark.parametrize("command", ["trust", "recommend", "evaluate"])
def test_snapshot_without_settings_is_data_error(small_dataset, tmp_path, command,
                                                 old, new, caplog, capsys):
    ratings, trust = small_dataset
    snap = tmp_path / "net.snap"
    assert main(["propagate", "--trust", str(trust), "--snapshot", str(snap)]) == 0
    capsys.readouterr()
    text = snap.read_text()
    assert old in text.splitlines()[0]
    snap.write_text(text.replace(old, new, 1))
    argv = {
        "trust": ["trust", "--source", "0", "--target", "2"],
        "recommend": ["recommend", "--ratings", str(ratings), "--user", "0",
                      "--item", "7"],
        "evaluate": ["evaluate", "--ratings", str(ratings), "--method", "proposed"],
    }[command]
    assert main(argv + ["--trust", str(trust), "--snapshot", str(snap)]) == 2
    assert f"line 1: {snap}: " in caplog.text
    assert capsys.readouterr().out == ""


def test_unconverged_state_warns_on_stderr_only(tmp_path, caplog, capsys):
    trust = tmp_path / "t.txt"
    trust.write_text("0 1 1\n1 2 1\n2 3 1\n")  # converges in round 3
    query = ["trust", "--trust", str(trust), "--source", "0", "--target", "2"]
    assert main(query + ["--max-rounds", "1"]) == 0
    cut = capsys.readouterr().out
    assert "propagation did not converge: stopped at round 1" in caplog.text
    caplog.clear()
    assert main(query) == 0
    assert capsys.readouterr().out == cut
    assert "converge" not in caplog.text


def test_snapshot_from_other_trust_edges_is_data_error(tmp_path, caplog, capsys):
    a, b, snap = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "net.snap"
    a.write_text("0 1 1\n1 2 1\n")
    b.write_text("0 1 1\n1 2 -1\n")  # one edge flipped
    assert main(["propagate", "--trust", str(a), "--snapshot", str(snap)]) == 0
    capsys.readouterr()
    query = ["trust", "--trust", str(b), "--source", "0", "--target", "2"]
    assert main(query) == 0
    assert "trust=-0.800000" in capsys.readouterr().out
    assert main(query + ["--snapshot", str(snap)]) == 2
    assert capsys.readouterr().out == ""
    assert "direct trust of user 1 differs" in caplog.text


def test_snapshot_covers_raters_without_trust_edges(tmp_path, capsys):
    r, t, snap = tmp_path / "r.txt", tmp_path / "t.txt", tmp_path / "net.snap"
    r.write_text("0 7 4\n1 7 4\n2 7 3\n5 7 2\n5 8 1\n0 8 2\n")  # 5: no edges
    t.write_text("0 1 1\n1 2 1\n0 2 1\n")
    assert main(["propagate", "--trust", str(t), "--snapshot", str(snap)]) == 0
    capsys.readouterr()
    query = ["evaluate", "--ratings", str(r), "--trust", str(t),
             "--method", "proposed"]
    assert main(query) == 0
    fresh = capsys.readouterr().out
    assert main(query + ["--snapshot", str(snap)]) == 0
    assert capsys.readouterr().out == fresh


def test_snapshot_from_other_max_rounds_is_data_error(tmp_path, caplog, capsys):
    trust, snap = tmp_path / "t.txt", tmp_path / "net.snap"
    trust.write_text("0 1 1\n1 2 1\n2 3 1\n")  # converges in round 3
    query = ["trust", "--trust", str(trust), "--threshold", "0",
             "--source", "0", "--target", "3"]
    assert main(["propagate", "--trust", str(trust), "--threshold", "0",
                 "--max-rounds", "1", "--snapshot", str(snap)]) == 0
    capsys.readouterr()
    assert main(query) == 0
    assert capsys.readouterr().out == "trust=0.640000 origin=inferred hops=3\n"
    assert main(query + ["--snapshot", str(snap)]) == 2  # stopped at round 1
    assert capsys.readouterr().out == ""
    assert "max_rounds=50" in caplog.text
    assert main(query + ["--max-rounds", "1", "--snapshot", str(snap)]) == 0
    assert capsys.readouterr().out == "no trust entry\n"
    snap.unlink()
    assert main(query + ["--snapshot", str(snap)]) == 0  # writes round 3
    capsys.readouterr()
    caplog.clear()
    assert main(query + ["--max-rounds", "2", "--snapshot", str(snap)]) == 2
    assert "converged at round 3" in caplog.text and "max_rounds=2" in caplog.text
    assert main(query + ["--max-rounds", "3", "--snapshot", str(snap)]) == 0


@pytest.mark.parametrize("command", ["evaluate", "trust"])
@pytest.mark.parametrize("sample", ["-0.5", "0", "1.5", "nan"])
def test_sample_outside_unit_interval_is_usage_error(small_dataset, command,
                                                     sample, caplog):
    ratings, trust = small_dataset
    argv = [command, "--ratings", str(ratings), "--trust", str(trust),
            "--sample", sample]
    argv += ["--method", "avg"] if command == "evaluate" else ["--leave-one-out"]
    assert main(argv) == 1
    assert "argument --sample" in caplog.text


@pytest.mark.parametrize("command, flag", [("evaluate", "--jobs"),
                                           ("evaluate", "--horizon"),
                                           ("recommend", "--horizon")])
@pytest.mark.parametrize("value", ["0", "-3", "1.5", "two"])
def test_count_below_one_is_usage_error(small_dataset, command, flag, value,
                                        caplog, capsys):
    ratings, trust = small_dataset
    argv = [command, "--ratings", str(ratings), "--trust", str(trust),
            "--method", "mole", flag, value]
    argv += ["--user", "0", "--item", "7"] if command == "recommend" else []
    assert main(argv) == 1
    assert f"argument {flag}" in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--jobs", "--horizon"])
def test_count_flags_parse_large_values(flag):
    # parsed only: a large --jobs must never start that many workers here
    args = build_parser().parse_args(["evaluate", "--ratings", "r", "--trust", "t",
                                      "--method", "mole", flag, "10000"])
    assert getattr(args, flag[2:]) == 10000


PROPAGATION_FLAG_MESSAGES = {
    "--lambda": "damping must be in (0,1]",
    "--threshold": "store_threshold must be in [0,1]",
    "--max-rounds": "max_rounds must be >= 0",
    "--tol": "tolerance must be >= 0",
}


@pytest.mark.parametrize("command, flag, value", [
    ("propagate", "--lambda", "0"), ("propagate", "--lambda", "1.5"),
    ("propagate", "--threshold", "1.5"), ("propagate", "--max-rounds", "-2"),
    ("propagate", "--tol", "-1"), ("propagate", "--tol", "nan"),
    ("evaluate", "--lambda", "1.5"),
])
def test_propagation_flag_out_of_range_is_usage_error(small_dataset, command, flag,
                                                      value, caplog, capsys):
    ratings, trust = small_dataset
    argv = [command, "--ratings", str(ratings), "--trust", str(trust), flag, value]
    argv += ["--method", "proposed"] if command == "evaluate" else []
    assert main(argv) == 1
    assert f"usage error: {PROPAGATION_FLAG_MESSAGES[flag]}" in caplog.text
    assert capsys.readouterr().out == ""


def test_evaluate_sample_without_ratings_attempts_nothing(tmp_path, capsys):
    ratings, trust = tmp_path / "r.txt", tmp_path / "t.txt"
    ratings.write_text("")
    trust.write_text("0 1 1\n1 2 1\n")
    assert main(["evaluate", "--ratings", str(ratings), "--trust", str(trust),
                 "--method", "avg", "--sample", "0.5"]) == 0
    assert "attempted=0 predicted=0" in capsys.readouterr().out


def test_propagate_max_rounds_zero_is_valid(small_dataset, capsys):
    _, trust = small_dataset
    assert main(["propagate", "--trust", str(trust), "--max-rounds", "0"]) == 0
    assert capsys.readouterr().out.startswith("rounds=0 converged=False")


@pytest.mark.parametrize("source, target", [("99", "0"), ("0", "99")])
def test_trust_query_unknown_user_is_data_error(small_dataset, source, target,
                                                caplog, capsys):
    _, trust = small_dataset
    assert main(["trust", "--trust", str(trust), "--source", source,
                 "--target", target]) == 2
    assert "unknown user 99" in caplog.text
    assert capsys.readouterr().out == ""


def test_trust_query_checks_users_before_propagating(small_dataset, tmp_path,
                                                    monkeypatch, caplog, capsys):
    _, trust = small_dataset
    snap = tmp_path / "q.snap"

    def no_propagate(*args, **kwargs):
        raise AssertionError("propagated before checking the query's users")

    monkeypatch.setattr("trustgrid.cli.propagate", no_propagate)
    assert main(["trust", "--trust", str(trust), "--source", "99999",
                 "--target", "0", "--snapshot", str(snap)]) == 2
    assert "unknown user 99999" in caplog.text
    assert capsys.readouterr().out == ""
    assert not snap.exists()


@pytest.mark.parametrize("flag, value", [("--sample", "0.5"), ("--seed", "9")])
def test_trust_query_refuses_leave_one_out_flags(small_dataset, flag, value,
                                                 caplog, capsys):
    _, trust = small_dataset
    assert main(["trust", "--trust", str(trust), "--source", "0", "--target", "1",
                 flag, value]) == 1
    assert f"a trust query takes no {flag}" in caplog.text
    assert capsys.readouterr().out == ""


def test_trust_self_query_has_no_entry(small_dataset, capsys):
    _, trust = small_dataset
    assert main(["trust", "--trust", str(trust), "--source", "0",
                 "--target", "0"]) == 0
    assert capsys.readouterr().out == "no trust entry\n"


@pytest.mark.parametrize("flag", ["--ratings", "--snapshot", "--source", "--target"])
def test_trust_leave_one_out_refuses_query_flags(small_dataset, tmp_path, flag,
                                                 caplog, capsys):
    _, trust = small_dataset
    snap = tmp_path / "loo.snap"
    # a missing ratings file would be a data error (exit 2) if it were read
    value = {"--ratings": str(tmp_path / "missing.txt"),
             "--snapshot": str(snap)}.get(flag, "0")
    assert main(["trust", "--trust", str(trust), "--leave-one-out",
                 flag, value]) == 1
    assert f"--leave-one-out takes no {flag}" in caplog.text
    assert capsys.readouterr().out == ""
    assert not snap.exists()


@pytest.mark.parametrize("command", ["evaluate", "trust"])
def test_seed_without_sample_is_usage_error(tmp_path, command, caplog, capsys):
    # the input files are missing, so reading them would be a data error
    missing = str(tmp_path / "missing.txt")
    argv = ([command, "--ratings", missing, "--trust", missing, "--method", "avg"]
            if command == "evaluate"
            else [command, "--trust", missing, "--leave-one-out"])
    assert main([*argv, "--seed", "5"]) == 1
    assert "--seed applies only with --sample" in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags, seed", [
    ([], 0), (["--sample", "0.5", "--seed", "5"], 5),
])
def test_evaluate_out_echoes_seed(small_dataset, tmp_path, flags, seed, capsys):
    ratings, trust = small_dataset
    out = tmp_path / "report.json"
    assert main(["evaluate", "--ratings", str(ratings), "--trust", str(trust),
                 "--method", "avg", "--out", str(out), *flags]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == seed


@pytest.mark.parametrize("method", ["tidal", "mole", "cf", "avg"])
@pytest.mark.parametrize("command", ["recommend", "evaluate"])
def test_snapshot_with_baseline_method_is_usage_error(small_dataset, tmp_path,
                                                      command, method, caplog,
                                                      capsys):
    ratings, trust = small_dataset
    snap = tmp_path / "x.snap"
    query = ["--user", "0", "--item", "7"] if command == "recommend" else []
    assert main([command, "--ratings", str(ratings), "--trust", str(trust),
                 "--method", method, *query, "--snapshot", str(snap)]) == 1
    assert "--snapshot applies only to --method proposed" in caplog.text
    assert capsys.readouterr().out == ""
    assert not snap.exists()


@pytest.mark.parametrize("flag, value", [
    ("--lambda", "0.5"), ("--threshold", "0.1"), ("--max-rounds", "3"),
    ("--tol", "0.01"),
])
@pytest.mark.parametrize("method", ["tidal", "mole", "cf", "avg"])
@pytest.mark.parametrize("command", ["recommend", "evaluate"])
def test_propagation_flag_with_baseline_method_is_usage_error(
        small_dataset, command, method, flag, value, caplog, capsys):
    ratings, trust = small_dataset
    query = ["--user", "0", "--item", "7"] if command == "recommend" else []
    assert main([command, "--ratings", str(ratings), "--trust", str(trust),
                 "--method", method, *query, flag, value]) == 1
    assert f"{flag} applies only to --method proposed, not {method}" in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("method", ["proposed", "tidal", "cf", "avg"])
@pytest.mark.parametrize("command", ["recommend", "evaluate"])
def test_horizon_with_method_other_than_mole_is_usage_error(
        small_dataset, tmp_path, command, method, caplog, capsys):
    ratings, trust = small_dataset
    out = tmp_path / "report.json"
    extra = (["--user", "0", "--item", "7"] if command == "recommend"
             else ["--out", str(out)])
    assert main([command, "--ratings", str(ratings), "--trust", str(trust),
                 "--method", method, *extra, "--horizon", "7"]) == 1
    assert f"--horizon applies only to --method mole, not {method}" in caplog.text
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["recommend", "evaluate"])
def test_horizon_with_mole_is_accepted(small_dataset, command, capsys):
    ratings, trust = small_dataset
    query = ["--user", "0", "--item", "7"] if command == "recommend" else []
    assert main([command, "--ratings", str(ratings), "--trust", str(trust),
                 "--method", "mole", *query, "--horizon", "7"]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("method, flags, horizon", [
    ("tidal", [], 3), ("mole", [], 3), ("mole", ["--horizon", "7"], 7),
])
def test_evaluate_out_echoes_horizon(small_dataset, tmp_path, method, flags,
                                     horizon, capsys):
    ratings, trust = small_dataset
    out = tmp_path / "report.json"
    assert main(["evaluate", "--ratings", str(ratings), "--trust", str(trust),
                 "--method", method, "--out", str(out), *flags]) == 0
    assert json.loads(out.read_text())["config"]["horizon"] == horizon


@pytest.mark.parametrize("method, flags, echoed", [
    ("proposed", [], (0.8, 0.7, 50, 1e-06)),
    ("avg", [], (0.8, 0.7, 50, 1e-06)),
    ("proposed", ["--lambda", "0.5", "--threshold", "0.1", "--max-rounds", "3",
                  "--tol", "0.01"], (0.5, 0.1, 3, 0.01)),
])
def test_evaluate_out_echoes_propagation_settings(small_dataset, tmp_path, method,
                                                  flags, echoed, capsys):
    ratings, trust = small_dataset
    out = tmp_path / "report.json"
    assert main(["evaluate", "--ratings", str(ratings), "--trust", str(trust),
                 "--method", method, "--out", str(out), *flags]) == 0
    config = json.loads(out.read_text())["config"]
    got = tuple(config[k] for k in ("damping", "threshold", "max_rounds", "tol"))
    assert got == echoed
    assert [type(v) for v in got] == [float, float, int, float]


@pytest.mark.parametrize("method", ["proposed", "tidal", "avg"])
def test_evaluate_builds_view_predicates_once(small_dataset, monkeypatch, method,
                                              capsys):
    ratings, trust = small_dataset
    calls = []
    build = evaluation.view_predicates

    def counting(dataset):
        calls.append(dataset)
        return build(dataset)

    monkeypatch.setattr(evaluation, "view_predicates", counting)
    assert main(["evaluate", "--ratings", str(ratings), "--trust", str(trust),
                 "--method", method, "--view", "cold_start"]) == 0
    assert len(calls) == 1


def test_cli_import_leaves_the_process_pool_unloaded():
    # evaluate imports ProcessPoolExecutor only to fork workers for --jobs > 1;
    # loading concurrent.futures.process (multiprocessing, queues, threads)
    # costs every other run its memory
    src = os.path.dirname(os.path.dirname(trustgrid.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import trustgrid.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"


# sha256 of `propagate --snapshot` bytes on three seeded synth graphs (none
# converges in 50 rounds); an ulp of drift in the propagation kernel shows
# here. The third is the graph of bench/run.py's binary-propagate workload,
# pinned in bench/expected_seed6.json, so its bytes are checked on every
# Python version the tests run on
GOLDEN_SNAPSHOTS = [
    (["--users", "60", "--items", "180"],
     "d5cbe8c18395e2a4957ceacad92d072598d654a7aeb38bd40a5a58fb2d23d6bf"),
    (["--users", "50", "--items", "150", "--mode", "uniform_signed"],
     "f1ed04ee00d1ee67f5abaafc4b8cf577d2d6fe1ab17ca819d22d04d6b9ba514c"),
    (["--users", "500", "--items", "1500"],
     "526f9f48dea5ea94ba58bd5b154f77893b379fe6e3019237780ffd5006fe1809"),
]


@pytest.mark.parametrize("synth_args, digest", GOLDEN_SNAPSHOTS,
                         ids=["binary", "uniform_signed", "bench-binary"])
def test_propagate_snapshot_golden_bytes(synth_args, digest, tmp_path, capsys):
    r, t, snap = tmp_path / "r.txt", tmp_path / "t.txt", tmp_path / "net.snap"
    assert main(["synth", *synth_args, "--seed", "6",
                 "--out-ratings", str(r), "--out-trust", str(t)]) == 0
    assert main(["propagate", "--trust", str(t), "--snapshot", str(snap)]) == 0
    assert hashlib.sha256(snap.read_bytes()).hexdigest() == digest
