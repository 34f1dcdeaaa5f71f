"""Command-line entry point.

Subcommands: ingest, stats, synth, propagate, recommend, trust, evaluate.
A flag this run would not read is a usage error that names it;
_UNREAD_FLAGS says, per subcommand, when which flags go unread.
Exit codes: 0 success, 1 usage error, 2 data error. Logs go to stderr;
results go to stdout or --out. Every output artifact echoes the run
configuration so runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import baselines, evaluation, ingest
from .model import TrustgridError
from .propagation import PropagationConfig, propagate, query_trust
from .recommender import recommend

log = logging.getLogger("trustgrid")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_input_flags(p, ratings_required=False, trust_required=False):
    p.add_argument("--ratings", help="ratings file (user item rating per line)",
                   required=ratings_required)
    p.add_argument("--trust", help="trust file (source target value per line)",
                   required=trust_required)


# each propagation flag's argparse dest and type, PropagationConfig field and
# help
_PROPAGATION_FLAGS = {
    "--lambda": ("damping", float, "damping", "per-hop damping factor (default {})"),
    "--threshold": ("threshold", float, "store_threshold",
                    "storage threshold on positive inferred trust (default {})"),
    "--max-rounds": ("max_rounds", int, "max_rounds", "(default {})"),
    "--tol": ("tol", float, "tolerance", "(default {})"),
}


def _add_propagation_flags(p):
    default = PropagationConfig()
    for flag, (dest, kind, field, text) in _PROPAGATION_FLAGS.items():
        p.add_argument(flag, dest=dest, type=kind,
                       help=text.format(getattr(default, field)))
    p.add_argument("--snapshot", help="snapshot file to write (propagate) or reuse")


def fraction(text: str) -> float:
    """A sample fraction in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in (0, 1]")
    return value


def positive_int(text: str) -> int:
    """A count of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _add_horizon_flag(p):
    p.add_argument("--horizon", type=positive_int,
                   help="MoleTrust propagation horizon "
                        f"(default {baselines.DEFAULT_HORIZON})")


def build_parser() -> _Parser:
    parser = _Parser(prog="trustgrid")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="parse and validate input files")
    _add_input_flags(p)

    p = sub.add_parser("stats", help="print dataset statistics")
    _add_input_flags(p)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--users", type=int, default=1000)
    p.add_argument("--items", type=int, default=3000)
    p.add_argument("--degree", type=float, default=10.0)
    p.add_argument("--ratings-per-user", type=float, default=15.0)
    p.add_argument("--mode", choices=("binary", "uniform_signed"), default="binary")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-ratings", required=True)
    p.add_argument("--out-trust", required=True)

    p = sub.add_parser("propagate", help="run trust propagation, write a snapshot")
    _add_input_flags(p, trust_required=True)
    _add_propagation_flags(p)

    p = sub.add_parser("recommend", help="predict one user's rating of one item")
    _add_input_flags(p, ratings_required=True, trust_required=True)
    _add_propagation_flags(p)
    p.add_argument("--user", type=int, required=True)
    p.add_argument("--item", type=int, required=True)
    p.add_argument("--method", choices=evaluation.METHODS, default="proposed")
    _add_horizon_flag(p)

    p = sub.add_parser("trust", help="query inferred trust or evaluate edge prediction")
    _add_input_flags(p, trust_required=True)
    _add_propagation_flags(p)
    p.add_argument("--source", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--leave-one-out", action="store_true",
                   help="hide each trust edge and try to re-infer it")
    p.add_argument("--sample", type=fraction, help="edge sample fraction")
    p.add_argument("--seed", type=int, help="sample seed (default 0)")

    p = sub.add_parser("evaluate", help="leave-one-out evaluation of a method")
    _add_input_flags(p, ratings_required=True, trust_required=True)
    _add_propagation_flags(p)
    p.add_argument("--method", choices=evaluation.METHODS, required=True)
    p.add_argument("--view", choices=evaluation.VIEW_NAMES, default="all")
    p.add_argument("--sample", type=fraction,
                   help="held-out rating sample fraction")
    p.add_argument("--seed", type=int, help="sample seed (default 0)")
    _add_horizon_flag(p)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--out", help="write machine-readable report records here")

    return parser


# Per subcommand, in the order they are checked: when a run would not read
# some flags, those flags, and the usage error that names one given. Only
# --method proposed propagates, only mole reads --horizon, --seed only picks
# the --sample, and each trust mode reads flags the other does not.
_MOLE_ONLY = (lambda args: args.method != "mole", ["--horizon"],
              "{flag} applies only to --method mole, not {method}")
_PROPOSED_ONLY = (lambda args: args.method != "proposed",
                  [*_PROPAGATION_FLAGS, "--snapshot"],
                  "{flag} applies only to --method proposed, not {method}")
_SAMPLE_ONLY = (lambda args: args.sample is None, ["--seed"],
                "{flag} applies only with --sample")
_UNREAD_FLAGS = {
    "recommend": [_MOLE_ONLY, _PROPOSED_ONLY],
    "evaluate": [_MOLE_ONLY, _PROPOSED_ONLY, _SAMPLE_ONLY],
    "trust": [(lambda args: args.leave_one_out,
               ["--ratings", "--snapshot", "--source", "--target"],
               "--leave-one-out takes no {flag}"),
              (lambda args: not args.leave_one_out, ["--sample", "--seed"],
               "a trust query takes no {flag}"),
              _SAMPLE_ONLY],
}

# filled in after the check, which tells a flag given from one left out by
# its argparse default of None
_LATE_DEFAULTS = {"horizon": baselines.DEFAULT_HORIZON, "seed": 0}


def _settle_flags(args):
    """Refuse each flag this run would not read, then fill in the defaults
    of --horizon and --seed."""
    for unread, flags, message in _UNREAD_FLAGS.get(args.subcommand, []):
        if not unread(args):
            continue
        for flag in flags:
            dest = (_PROPAGATION_FLAGS[flag][0] if flag in _PROPAGATION_FLAGS
                    else flag[2:])
            if getattr(args, dest) is not None:
                raise _UsageError(message.format(flag=flag, **vars(args)))
    for dest, default in _LATE_DEFAULTS.items():
        if getattr(args, dest, default) is None:
            setattr(args, dest, default)


def _config_from_args(args) -> PropagationConfig:
    """The run's PropagationConfig, with the default of each propagation flag
    not given; a value it refuses is a usage error. The values are written
    back to `args`, so the echoed config shows what the run used."""
    flags = _PROPAGATION_FLAGS.values()
    given = {field: getattr(args, dest) for dest, _, field, _ in flags
             if getattr(args, dest) is not None}
    try:
        config = PropagationConfig(**given)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    for dest, _, field, _ in flags:
        setattr(args, dest, getattr(config, field))
    return config


def _echo_config(args) -> dict:
    skip = {"subcommand"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _load(args):
    return ingest.load_dataset(getattr(args, "ratings", None),
                               getattr(args, "trust", None))


def _network_state(args, dataset, config):
    state = None
    if args.snapshot:
        try:
            state = ingest.load_snapshot(args.snapshot, dataset, config)
            log.info("loaded snapshot %s (round %d)", args.snapshot, state.round)
        except FileNotFoundError:
            pass
    if state is None:
        state = propagate(dataset, config)
        if args.snapshot:
            ingest.save_snapshot(state, args.snapshot, config)
            log.info("wrote snapshot %s", args.snapshot)
    if not state.converged:
        # results on an unconverged state depend on the round it stopped at
        log.warning("propagation did not converge: stopped at round %d",
                    state.round)
    return state


def _cmd_ingest(args):
    dataset = _load(args)
    stats = ingest.dataset_stats(dataset)
    w = dataset.warnings
    print(f"users={stats.n_users} items={stats.n_items} "
          f"ratings={stats.n_ratings} trust_edges={stats.n_trust_edges}")
    print(f"warnings: duplicate_ratings={w.duplicate_ratings} "
          f"duplicate_trust_edges={w.duplicate_trust_edges} "
          f"self_trust_edges={w.self_trust_edges}")
    return EXIT_OK


def _cmd_stats(args):
    stats = ingest.dataset_stats(_load(args))
    print(f"users={stats.n_users}")
    print(f"items={stats.n_items}")
    print(f"ratings={stats.n_ratings}")
    print(f"trust_edges={stats.n_trust_edges}")
    print(f"avg_neighbors={stats.avg_neighbors:.4f}")
    print(f"avg_ratings_per_user={stats.avg_ratings_per_user:.4f}")
    print(f"avg_ratings_per_item={stats.avg_ratings_per_item:.4f}")
    return EXIT_OK


def _cmd_synth(args):
    try:
        spec = ingest.SyntheticSpec(
            n_users=args.users, n_items=args.items, avg_out_degree=args.degree,
            avg_ratings_per_user=args.ratings_per_user,
            trust_value_mode=args.mode, rng_seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    dataset = ingest.generate_synthetic(spec)
    # output paths are volatile and do not determine content
    echoed = {k: v for k, v in _echo_config(args).items()
              if not k.startswith("out_")}
    ingest.save_dataset(dataset, args.out_ratings, args.out_trust,
                        json.dumps(echoed, sort_keys=True))
    stats = ingest.dataset_stats(dataset)
    print(f"wrote {stats.n_ratings} ratings and {stats.n_trust_edges} trust edges")
    return EXIT_OK


def _cmd_propagate(args):
    config = _config_from_args(args)
    dataset = _load(args)
    state = propagate(dataset, config)
    if args.snapshot:
        ingest.save_snapshot(state, args.snapshot, config)
    entries = sum(len(t) for t in state.tables.values())
    inferred = sum(1 for t in state.tables.values()
                   for _, hops in t.values() if hops > 1)
    print(f"rounds={state.round} converged={state.converged} "
          f"entries={entries} inferred={inferred}")
    return EXIT_OK


def _cmd_recommend(args):
    config = _config_from_args(args)
    dataset = _load(args)
    # each raises for an id outside the input, before any propagation
    dataset.user_ratings(args.user)
    dataset.item_raters(args.item)
    if args.method == "proposed":
        state = _network_state(args, dataset, config)
        rec = recommend(state, args.user, args.item, dataset)
        if rec is None:
            print("no prediction: no positively-trusted neighbor rated this item")
            return EXIT_OK
        print(f"predicted={rec.predicted:.4f} confidence={rec.confidence:.4f} "
              f"contributors={len(rec.contributors)} "
              f"rating_recall={rec.rating_recall:.4f}")
        return EXIT_OK
    predicted, depth, _ = evaluation._predictor(
        dataset, None, args.method, args.horizon, args.user)(args.item)
    if predicted is None:
        print("no prediction")
    elif depth is not None:
        print(f"predicted={predicted:.4f} depth={depth}")
    else:
        print(f"predicted={predicted:.4f}")
    return EXIT_OK


def _cmd_trust(args):
    config = _config_from_args(args)
    if not args.leave_one_out and (args.source is None or args.target is None):
        raise _UsageError("trust query needs --source and --target")
    dataset = _load(args)
    if args.leave_one_out:
        coverage, error = evaluation.leave_one_out_trust(
            dataset, config, sample=args.sample, seed=args.seed)
        print(f"coverage={'na' if coverage is None else f'{coverage:.4f}'} "
              f"mae={'na' if error is None else f'{error:.4f}'}")
        return EXIT_OK
    # before propagating, which may take seconds and write --snapshot
    dataset.user_ratings(args.source)
    dataset.user_ratings(args.target)
    state = _network_state(args, dataset, config)
    result = query_trust(state, args.source, args.target)
    if result is None:
        print("no trust entry")
    else:
        trust, origin, hops = result
        print(f"trust={trust:.6f} origin={origin} hops={hops}")
    return EXIT_OK


def _cmd_evaluate(args):
    config = _config_from_args(args)
    dataset = _load(args)
    state = None
    if args.method == "proposed":
        state = _network_state(args, dataset, config)
    results = evaluation.evaluate_ratings(
        dataset, args.method, sample=args.sample, seed=args.seed,
        view=args.view, horizon=args.horizon, state=state, jobs=args.jobs)
    report = evaluation.build_report(results, args.method, args.view)
    record = report.to_dict()

    def fmt(x):
        return "na" if x is None else f"{x:.4f}"

    print(f"method={report.method} view={report.view}")
    print(f"attempted={report.n_attempted} predicted={report.n_predicted}")
    print(f"mae={fmt(report.mae)} maue={fmt(report.maue)}")
    print(f"ratings_coverage={fmt(report.ratings_coverage)} "
          f"users_coverage={fmt(report.users_coverage)}")
    print(f"mean_rating_recall={fmt(report.mean_rating_recall)}")
    print("depth_histogram=" + json.dumps(record["depth_histogram"]))
    for p in report.delta_curve:
        print(f"delta_a>={p.min_delta_a}: n={p.n} "
              f"mean_dr={fmt(p.mean_delta_r)} mean_da={fmt(p.mean_delta_a)} "
              f"mean_dcf={fmt(p.mean_delta_cf)}")

    if args.out:
        record["config"] = _echo_config(args)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "synth": _cmd_synth,
    "propagate": _cmd_propagate,
    "recommend": _cmd_recommend,
    "trust": _cmd_trust,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _settle_flags(args)
        return _COMMANDS[args.subcommand](args)
    except _UsageError as exc:
        log.error("usage error: %s", exc)
        return EXIT_USAGE
    except (TrustgridError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
