"""In-memory spans around the public function of each trustgrid layer.

The tracer replaces a function at the module attribute its caller looks it up
from (for example ``cli.propagate`` or ``evaluation.baselines.tidal_trust_recommend``)
with a wrapper that records a span, so no file of the program changes. Spans
are kept in memory as ``[id, parent, command, name, start, end, info]`` and
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.command = 0  # id shared by the spans of one CLI command

    def begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, self.command, name, perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Trace calls of ``module.attr``; ``observe(args, result)`` runs after
        the span has ended and its return value is kept as the span's info."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if observe is not None:
                span[6] = observe(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON list per span after a header line naming the fields;
        times are seconds from the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "command", "name", "start_s", "end_s", "info"]) + "\n")
            for sid, parent, command, name, start, end, info in self.spans:
                fh.write(json.dumps([sid, parent, command, name, start - t0, end - t0, info]) + "\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics over one traced cycle (a set-up plus one pass)."""
    durations: dict[str, list[float]] = {}
    infos: dict[str, list] = {}
    child_time: dict[int, float] = {}
    for sid, parent, _, name, start, end, info in spans:
        durations.setdefault(name, []).append(end - start)
        infos.setdefault(name, []).append(info)
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def total(name):
        return sum(durations.get(name, ()))

    def self_time(prefix):
        return sum(end - start - child_time.get(sid, 0.0)
                   for sid, _, _, name, start, end, _ in spans
                   if name.startswith(prefix))

    def ms(name, q):
        return 1000.0 * percentile(durations.get(name, []), q)

    def frac(values):
        return sum(values) / len(values) if values else 0.0

    records = sum(infos.get("evaluation.evaluate_ratings", ()))
    rounds, converged = (infos.get("propagation.propagate") or [(0, 0)])[-1]
    tidal = infos.get("baselines.tidal_trust_recommend", [])
    return {
        "cli.self_s": self_time("cli."),
        "ingest.synth_s": total("ingest.generate_synthetic"),
        "ingest.parse_ratings_s": total("ingest.parse_ratings"),
        "ingest.parse_trust_s": total("ingest.parse_trust"),
        "ingest.save_snapshot_s": total("ingest.save_snapshot"),
        "ingest.load_snapshot_s": total("ingest.load_snapshot"),
        "ingest.snapshot_bytes": max(infos.get("ingest.load_snapshot", [0])),
        "model.dataset_build_s": total("model.Dataset"),
        "propagation.propagate_s": total("propagation.propagate"),
        "propagation.rounds": rounds,
        "propagation.converged": converged,
        "recommender.recommend_p50_ms": ms("recommender.recommend", 0.5),
        "recommender.recommend_p99_ms": ms("recommender.recommend", 0.99),
        "recommender.calls": len(durations.get("recommender.recommend", ())),
        "recommender.hit_frac": frac(infos.get("recommender.recommend", [])),
        "baselines.tidal_p50_ms": ms("baselines.tidal_trust_recommend", 0.5),
        "baselines.tidal_p99_ms": ms("baselines.tidal_trust_recommend", 0.99),
        "baselines.tidal_expansions_mean": frac([q for _, q in tidal]),
        "baselines.tidal_hit_frac": frac([hit for hit, _ in tidal]),
        "baselines.mole_scores_p50_ms": ms("baselines.mole_trust_scores", 0.5),
        "baselines.mole_scores_p99_ms": ms("baselines.mole_trust_scores", 0.99),
        "baselines.cf_p50_ms": ms("baselines.correlation_cf_predict", 0.5),
        "baselines.cf_p99_ms": ms("baselines.correlation_cf_predict", 0.99),
        "baselines.avg_p50_ms": ms("baselines.simple_average", 0.5),
        "evaluation.evaluate_ratings_s": total("evaluation.evaluate_ratings"),
        "evaluation.record_self_us":
            1e6 * self_time("evaluation.evaluate_ratings") / records if records else 0.0,
        "evaluation.build_report_s": total("evaluation.build_report"),
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over samples; counts stay whole numbers."""
    medians = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        whole = all(isinstance(v, int) for v in values)
        medians[name] = (statistics.median_low if whole else statistics.median)(values)
    return medians
