#!/usr/bin/env python3
"""Self-test of the benchmark on tiny graphs.

    python3 bench/selftest.py

Checks that every declared metric is printed with its unit in both modes,
that a tampered snapshot trips the behaviour check, and that the benchmark
exits non-zero without a result when the program's sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run

TINY = {
    "binary-propagate": ("--users", "40", "--items", "120"),
    "search-baselines": ("--users", "40", "--items", "120"),
    "signed-dense": ("--users", "20", "--items", "60", "--mode", "uniform_signed"),
}


class Tampering(run.Runner):
    """Overwrites one inferred trust value right after each propagate."""

    def call(self, argv):
        result = super().call(argv)
        if argv[0] == "propagate":
            with open(run.SNAPSHOT, encoding="utf-8") as fh:
                lines = fh.readlines()
            row = next(n for n, line in enumerate(lines) if " inferred " in line)
            fields = lines[row].split()
            fields[2] = repr(0.75 if float(fields[2]) != 0.75 else 0.8)
            lines[row] = " ".join(fields) + "\n"
            with open(run.SNAPSHOT, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
        return result


class BenchSelfTest(unittest.TestCase):
    def setUp(self):
        self.saved = dict(run.WORKLOADS)
        for name, synth in TINY.items():
            run.WORKLOADS[name] = replace(run.WORKLOADS[name], synth=synth)
        run.WORK.mkdir(exist_ok=True)

    def tearDown(self):
        run.WORKLOADS.update(self.saved)

    def test_every_metric_printed_with_unit(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
        issue_only = {"propagate_s": "s", "failed_frac": "frac",
                      **{f"evaluate.{m}_s": "s" for m in run.METHODS}}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in declared[key]}
            for name in run.WORKLOADS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                                     "--trace", str(trace)])
                lines = out.getvalue().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(code, 0)
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], name)
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                for metric, unit in {**units, **issue_only}.items():
                    self.assertTrue(any(line.startswith(f"metric {metric} = ")
                                        and line.endswith(f" {unit}") for line in lines),
                                    f"{name}: {metric} not printed with unit {unit}")

    def test_tampered_snapshot_trips_behaviour_check(self):
        cli = run.import_program()
        from trustgrid.evaluation import VIEW_NAMES
        workload = run.WORKLOADS["binary-propagate"]
        home = os.getcwd()
        os.chdir(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        try:
            run.run_setup(run.Runner(cli), workload, 1)
            _, clean = run.run_pass(run.Runner(cli), workload, VIEW_NAMES)
            self.assertEqual(run.check_pass(workload, clean, None), [])
            self.assertEqual(run.check_pass(workload, clean, clean), [])
            _, tampered = run.run_pass(Tampering(cli), workload, VIEW_NAMES)
            problems = run.check_pass(workload, tampered, clean)
            self.assertTrue(any(p.startswith("propagate: got") for p in problems), problems)
        finally:
            tmp = os.getcwd()
            os.chdir(home)
            shutil.rmtree(tmp)

    def test_pins_hold_the_documented_seed6_graphs(self):
        with open(run.BENCH_DIR / "expected_seed6.json", encoding="utf-8") as fh:
            pins = json.load(fh)
        self.assertEqual(set(pins), set(run.WORKLOADS))
        binary = pins["binary-propagate"]
        self.assertEqual((binary["graph"]["users"], binary["graph"]["ratings"],
                          binary["graph"]["trust_edges"]), (500, 7361, 5029))
        self.assertEqual((binary["passes"]["propagate"]["rounds"],
                          binary["passes"]["propagate"]["converged"]), ("50", "False"))
        self.assertEqual(pins["search-baselines"]["passes"]["tidal"]["attempted"], 1472)
        signed = pins["signed-dense"]["graph"]
        self.assertEqual((signed["users"], signed["ratings"], signed["trust_edges"],
                          signed["negative_edges"]), (100, 1508, 995, 490))

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH_DIR, Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "binary-propagate",
                 "--seed", "6", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
