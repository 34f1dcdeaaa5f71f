#!/usr/bin/env python3
"""Benchmark of the trustgrid CLI: propagation cost against per-query search cost.

Every command goes through ``trustgrid.cli.main`` in this one process, with
``--jobs 1`` and relative paths inside a temporary directory, exactly as a
user runs it. Inputs come from ``synth`` with the ``--seed`` given here.

    python3 bench/run.py --workload binary-propagate --seed 6 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

A run sets up (synth + ingest) several times, then repeats passes over the
workload's commands until ``--seconds`` have gone by. Every pass is checked
(see ``check_pass``). With ``--trace 1`` untraced and traced passes alternate
and the per-layer metrics come from the traced ones. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 6
PROBE_ROUNDS = 5           # full run_round steps timed by the traced run
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.0
RATINGS, TRUST, SNAPSHOT, REPORT = "ratings.txt", "trust.txt", "net.snap", "report.json"


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]          # synth flags besides --seed and the outputs
    propagate: bool                 # propagate --snapshot, then the 6 proposed views
    searches: tuple[tuple[str, str | None], ...]  # (method, --sample or None)


# Why each workload exists: see bench/README.md and BENCHMARK.json.
BINARY_GRAPH = ("--users", "500", "--items", "1500")
WORKLOADS = {
    "binary-propagate": Workload(BINARY_GRAPH, True, ()),
    "search-baselines": Workload(
        BINARY_GRAPH, False, (("tidal", "0.2"), ("mole", "0.2"), ("cf", None), ("avg", None))),
    "signed-dense": Workload(("--users", "100", "--items", "300", "--mode", "uniform_signed"),
                             True, (("tidal", None), ("mole", None))),
}
METHODS = ("proposed", "tidal", "mole", "cf", "avg")


class ProgramMissing(Exception):
    pass


def import_program():
    """Import trustgrid from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "trustgrid" / "cli.py").is_file():
        raise ProgramMissing(f"no trustgrid sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import trustgrid
    from trustgrid import cli
    if Path(trustgrid.__file__).resolve().parent != (src / "trustgrid").resolve():
        raise ProgramMissing(f"imported trustgrid from {trustgrid.__file__}")
    return cli


# -- running CLI commands -------------------------------------------------

class Runner:
    """Calls ``cli.main`` and counts calls that exit non-zero or raise."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None  # set while a traced cycle runs
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, argv: list[str]) -> tuple[float, str]:
        self.attempted += 1
        out = io.StringIO()
        span = None
        if self.tracer is not None:
            self.tracer.command += 1
            span = self.tracer.begin("cli." + argv[0])
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except Exception as exc:  # a raising command is a failed call, not a crash
            traceback.print_exc()
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - start
        if span is not None:
            self.tracer.end(span)
        if code != 0:
            self.failures.append(f"{' '.join(argv)}: exit {code}")
        return seconds, out.getvalue()


def setup_commands(workload: Workload, seed: int) -> list[list[str]]:
    return [["synth", *workload.synth, "--seed", str(seed),
             "--out-ratings", RATINGS, "--out-trust", TRUST],
            ["ingest", "--ratings", RATINGS, "--trust", TRUST]]


def pass_commands(workload: Workload, views) -> list[tuple[str, list[str]]]:
    """(label, argv) for one pass; the label names the behaviour record."""
    evaluate = ["evaluate", "--ratings", RATINGS, "--trust", TRUST, "--jobs", "1",
                "--out", REPORT]
    cmds = []
    if workload.propagate:
        cmds.append(("propagate", ["propagate", "--trust", TRUST, "--snapshot", SNAPSHOT]))
        for view in views:
            cmds.append((f"proposed/{view}", evaluate + [
                "--method", "proposed", "--view", view, "--snapshot", SNAPSHOT]))
    for method, sample in workload.searches:
        extra = ["--sample", sample, "--seed", "0"] if sample else []
        cmds.append((method, evaluate + ["--method", method] + extra))
    return cmds


def run_setup(runner: Runner, workload: Workload, seed: int) -> tuple[float, dict]:
    seconds = 0.0
    for argv in setup_commands(workload, seed):
        took, out = runner.call(argv)
        seconds += took
    graph = dict(tok.split("=") for tok in out.split("\n", 1)[0].split())
    graph = {k: int(v) for k, v in graph.items()}
    with contextlib.suppress(OSError):
        graph["negative_edges"] = sum(value < 0.0 for _, _, value in _read_triples(TRUST, float))
    return seconds, graph


def run_pass(runner: Runner, workload: Workload, views) -> tuple[dict, dict]:
    """Run one pass; returns (seconds per command kind, behaviour)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(SNAPSHOT)  # a stale snapshot must not hide a failed propagate
    times = {"propagate_s": 0.0, **{f"evaluate.{m}_s": 0.0 for m in METHODS}}
    behaviour = {}
    for label, argv in pass_commands(workload, views):
        with contextlib.suppress(FileNotFoundError):
            os.remove(REPORT)
        seconds, out = runner.call(argv)
        if label == "propagate":
            times["propagate_s"] += seconds
            behaviour[label] = dict(tok.split("=") for tok in out.split())
            continue
        times[f"evaluate.{label.split('/')[0]}_s"] += seconds
        try:
            with open(REPORT, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            behaviour[label] = None
            continue
        report.pop("config", None)  # echoes the paths of this run
        behaviour[label] = {
            "attempted": report["n_attempted"], "predicted": report["n_predicted"],
            "mae": report["mae"], "coverage": report["ratings_coverage"],
            "report_sha256": hashlib.sha256(
                json.dumps(report, sort_keys=True).encode()).hexdigest()}
    if workload.propagate:
        behaviour["propagate"]["snapshot_sha256"] = _sha256(SNAPSHOT)
    times["evaluate_s"] = sum(times[f"evaluate.{m}_s"] for m in METHODS)
    times["pass_s"] = times["evaluate_s"] + times["propagate_s"]
    return times, behaviour


def _sha256(path) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


# -- behaviour check ------------------------------------------------------

def _read_triples(path, cast):
    with open(path, encoding="utf-8") as fh:
        return [(int(a), int(b), cast(c)) for a, b, c in
                (line.split() for line in fh if line.strip() and not line.startswith("#"))]


def check_pass(workload: Workload, behaviour: dict, reference: dict | None) -> list[str]:
    """Mismatches of one pass against the reference behaviour (the pinned
    seed-6 values, or the run's first pass) and against facts the benchmark
    recomputes on its own from the input files and the snapshot."""
    problems = []
    if reference is not None:
        for label in sorted(set(reference) | set(behaviour)):
            if behaviour.get(label) != reference.get(label):
                problems.append(f"{label}: got {behaviour.get(label)}, "
                                f"expected {reference.get(label)}")
    ratings = _read_triples(RATINGS, int)
    by_item: dict[int, dict[int, int]] = {}
    for u, i, r in ratings:
        by_item.setdefault(i, {})[u] = r
    for label, got in behaviour.items():
        if got is None:
            problems.append(f"{label}: no report written")
        elif label != "propagate":
            problems += [f"{label}: {p}" for p in
                         _report_invariants(label, got, len(ratings), dict(workload.searches))]
    if workload.propagate and behaviour.get("propagate"):
        problems += _snapshot_facts(behaviour["propagate"], ratings, by_item,
                                    behaviour.get("proposed/all"))
    if behaviour.get("avg"):
        errors = []
        for u, i, r in ratings:
            others = [v for w, v in by_item[i].items() if w != u]
            if others:
                errors.append(abs(r - sum(others) / len(others)))
        problems += _compare("avg", behaviour["avg"], errors)
    return problems


def _report_invariants(label, got, n_ratings, samples):
    attempted, predicted = got["attempted"], got["predicted"]
    if label == "proposed/all" or label in samples:
        sample = samples.get(label)
        want = max(1, round(float(sample) * n_ratings)) if sample else n_ratings
        if attempted != want:
            yield f"attempted {attempted}, expected {want}"
    if not 0 <= predicted <= attempted <= n_ratings:
        yield f"predicted {predicted} of {attempted} attempted"
    if attempted and got["coverage"] != predicted / attempted:
        yield f"coverage {got['coverage']} != {predicted}/{attempted}"
    if (got["mae"] is None) != (predicted == 0) or (predicted and not 0 <= got["mae"] <= 4):
        yield f"mae {got['mae']} with {predicted} predicted"


def _snapshot_facts(prop, ratings, by_item, proposed_all):
    """The propagate line must describe the snapshot, and the proposed MAE and
    coverage over all ratings must follow from the snapshot's trust values."""
    problems = []
    trust: dict[int, dict[int, float]] = {}
    inferred = 0
    try:
        with open(SNAPSHOT, encoding="utf-8") as fh:
            header = dict(tok.split("=", 1) for tok in fh.readline().split() if "=" in tok)
            for line in fh:
                fields = line.split()
                if len(fields) == 5:
                    trust.setdefault(int(fields[0]), {})[int(fields[1])] = float(fields[2])
                    inferred += fields[3] == "inferred"
    except OSError:
        return ["propagate: no snapshot written"]
    entries = sum(len(t) for t in trust.values())
    facts = {"rounds": header.get("round"), "entries": str(entries), "inferred": str(inferred),
             "converged": "True" if header.get("converged") == "1" else "False"}
    for key, want in facts.items():
        if prop.get(key) != want:
            problems.append(f"propagate: {key}={prop.get(key)}, snapshot says {want}")
    if prop.get("converged") == "False" and prop.get("rounds") != "50":
        problems.append(f"propagate: stopped at round {prop.get('rounds')} unconverged")
    if proposed_all:
        errors = []
        for u, i, r in ratings:
            table = trust.get(u, {})
            contrib = [(table[y], v) for y, v in sorted(by_item[i].items())
                       if y != u and table.get(y, 0.0) > 0.0]
            if contrib:
                errors.append(abs(r - sum(t * v for t, v in contrib) / sum(t for t, _ in contrib)))
        problems += _compare("proposed/all", proposed_all, errors)
    return problems


def _compare(label, got, errors):
    if got["predicted"] != len(errors):
        return [f"{label}: predicted {got['predicted']}, recomputed {len(errors)}"]
    if errors and abs(got["mae"] - sum(errors) / len(errors)) > 1e-9:
        return [f"{label}: mae {got['mae']}, recomputed {sum(errors) / len(errors)}"]
    return []


def pinned(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(BENCH_DIR / "expected_seed6.json", encoding="utf-8") as fh:
        return json.load(fh)[name]


# -- one run --------------------------------------------------------------

def _trace_layers(tracer, cli):
    """Wrap the public function of each layer where its caller looks it up."""
    from trustgrid import baselines, evaluation, ingest

    tracer.wrap(cli, "propagate", "propagation.propagate",
                lambda _, state: (state.round, int(state.converged)))
    tracer.wrap(ingest, "load_snapshot", "ingest.load_snapshot",
                lambda args, _: os.path.getsize(args[0]))
    tracer.wrap(ingest, "save_snapshot", "ingest.save_snapshot")
    tracer.wrap(ingest, "parse_ratings", "ingest.parse_ratings")
    tracer.wrap(ingest, "parse_trust", "ingest.parse_trust")
    tracer.wrap(ingest, "generate_synthetic", "ingest.generate_synthetic")
    tracer.wrap(ingest, "Dataset", "model.Dataset")
    tracer.wrap(evaluation, "evaluate_ratings", "evaluation.evaluate_ratings",
                lambda _, results: len(results))
    tracer.wrap(evaluation, "build_report", "evaluation.build_report")
    tracer.wrap(evaluation, "recommend", "recommender.recommend",
                lambda _, rec: int(rec is not None))
    tracer.wrap(baselines, "tidal_trust_recommend", "baselines.tidal_trust_recommend",
                lambda _, res: (int(res.predicted is not None), res.queries_issued))
    tracer.wrap(baselines, "mole_trust_scores", "baselines.mole_trust_scores")
    tracer.wrap(baselines, "correlation_cf_predict", "baselines.correlation_cf_predict")
    tracer.wrap(baselines, "simple_average", "baselines.simple_average")


PROBE_METRICS = ("propagation.round.run_round_s", "propagation.round.entries_added",
                 "propagation.round.max_change", "propagation.round.entries")


def _probe_rounds(tracer) -> dict:
    """Step the public init_network/run_round for PROBE_ROUNDS full rounds."""
    from trustgrid import ingest
    from trustgrid.propagation import PropagationConfig, init_network, query_trust, run_round
    dataset = ingest.load_dataset(None, TRUST)
    config = PropagationConfig()
    state = init_network(dataset)
    tracer.command += 1
    times, added = [], 0
    for _ in range(PROBE_ROUNDS):
        span = tracer.begin("propagation.run_round")
        state, max_change, entries_added = run_round(state, dataset, config)
        tracer.end(span)
        span[6] = {"entries_added": entries_added, "max_change": max_change}
        times.append(span[5] - span[4])
        added += entries_added
    entries = sum(query_trust(state, x, y) is not None
                  for x in dataset.users for y in dataset.users)
    return dict(zip(PROBE_METRICS, (statistics.median(times), added, max_change, entries)))


def _traced_cycle(runner, tracer, cli, workload, seed, views):
    """A traced set-up plus pass: (seconds per command kind, behaviour, layer metrics)."""
    from tracing import summarize
    runner.tracer = tracer
    mark = len(tracer.spans)
    _trace_layers(tracer, cli)
    try:
        run_setup(runner, workload, seed)
        times, behaviour = run_pass(runner, workload, views)
    finally:
        tracer.unwrap_all()
        runner.tracer = None
    layers = summarize(tracer.spans[mark:])
    propagated = behaviour.get("propagate") or {}
    layers["propagation.inferred_entries"] = int(propagated.get("inferred", 0))
    layers["propagation.table_entries"] = int(propagated.get("entries", 0))
    mole = behaviour.get("mole") or {}
    layers["baselines.mole_hit_frac"] = (
        mole["predicted"] / mole["attempted"] if mole.get("attempted") else 0.0)
    return times, behaviour, layers


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_program()
    from trustgrid.evaluation import VIEW_NAMES
    from tracing import Tracer, median_metrics

    workload = WORKLOADS[name]
    reference = pinned(name, seed)
    runner = Runner(cli)
    problems: list[str] = []
    metrics: dict[str, float] = {}
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    home = os.getcwd()
    os.chdir(tmp)
    try:
        setup_times = []
        start = time.perf_counter()
        while len(setup_times) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
            took, graph = run_setup(runner, workload, seed)
            setup_times.append(took)
        if reference is not None and graph != reference["graph"]:
            problems.append(f"graph: got {graph}, expected {reference['graph']}")
        expected = reference["passes"] if reference else None
        observed = None  # the first pass: the reference when nothing is pinned
        untraced, traced, cycles = [], [], []
        tracer = Tracer() if trace else None
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < seconds:
            times, behaviour = run_pass(runner, workload, VIEW_NAMES)
            untraced.append(times)
            problems += check_pass(workload, behaviour, expected or observed)
            observed = observed or behaviour
            if trace:
                times, behaviour, layers = _traced_cycle(
                    runner, tracer, cli, workload, seed, VIEW_NAMES)
                traced.append(times)
                cycles.append(layers)
                problems += check_pass(workload, behaviour, expected or observed)

        per_pass = median_metrics(untraced)
        if trace:
            metrics.update(median_metrics(cycles))
            metrics.update(_probe_rounds(tracer) if workload.propagate
                           else dict.fromkeys(PROBE_METRICS, 0))
            with_trace = median_metrics(traced)
            for key in ("evaluate_s", "propagate_s"):
                metrics[f"trace.overhead_{key}"] = with_trace[key] - per_pass[key]
            metrics.update({k: per_pass[k] for k in
                            ("propagate_s", *(f"evaluate.{m}_s" for m in METHODS))})
            trace_path = WORK / "traces" / f"{name}-seed{seed}.jsonl"
            tracer.write(trace_path)
            print(f"trace: {len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}")
        else:
            metrics["setup_s"] = statistics.median(setup_times)
            metrics.update(per_pass)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        os.chdir(home)
        shutil.rmtree(tmp, ignore_errors=True)

    metrics["failed_frac"] = len(runner.failures) / runner.attempted
    print("meta: " + json.dumps({
        "workload": name, "seed": seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "graph": graph, "setup_repeats": len(setup_times), "passes": len(untraced),
        "traced_passes": len(traced)}, sort_keys=True))
    for failure in runner.failures:
        print("failed call: " + failure, file=sys.stderr)
    for problem in problems:
        print("behaviour mismatch: " + problem, file=sys.stderr)
    if problems:
        print("observed behaviour: " + json.dumps(
            {"graph": graph, "passes": observed}, sort_keys=True), file=sys.stderr)
    return {"correct": not problems and not runner.failures,
            "attempted": runner.attempted, "failed": len(runner.failures),
            "metrics": metrics}


def report(result: dict, trace: bool) -> dict:
    """Print every metric with its unit; keep the declared ones for the JSON line.

    The per-command times and failed_frac are per-layer metrics, but the
    untraced run prints them too."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, value in result["metrics"].items():
        print(f"metric {key} = {value} {units[key]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                         for m in declared}
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process, so peak RSS is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(result, bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
