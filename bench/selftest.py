"""Self-test of the benchmark harness on toy-sized workloads.

    python3 bench/selftest.py            (or: python3 -m pytest bench/selftest.py)

Runs every workload shape (simulate, transpose, search, certify) on small
inputs such as the README's c84 code, untraced and traced, and checks the
output checks, the counter cross-checks, the span file and BENCHMARK.json
against the harness.  Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

C84 = run.Cli(("construct", "cyclic", "--n", "8", "--q", "3", "--g", "2,1,0,1,1",
               "--out", "c84.json"),
              stdout="3cc273ce3ec3ee134453a8f9618efcf7edd61dbf4e6e45ee4924f8eec30d5bfa",
              files=(("c84.json",
                      "feb432fdc36ab341894833fcbd9bd89cc6ca0eb135c489c0756f49aac5fc87ba"),))

TOY = {w.name: w for w in (
    run.Workload("simulate", setup=(C84,),
                 op=(run.Simulate("c84.json", files=12, bytes=8),
                     run.Simulate("c84.json", files=12, bytes=8, alpha=4)),
                 fields=(3,)),
    run.Workload("transpose", setup=(C84,),
                 op=(run.Simulate("c84.json", files=6, bytes=8, alpha=4,
                                  transpose=True),),
                 fields=(3,)),
    run.Workload("search", setup=(),
                 op=(run.Cli(("search", "--n", "6", "--q", "3", "--budget", "100"),
                             stdout="1537eff436acbe40f10adfac7c298738638b88fa2b0546aec1d9b56ffd0a8a68"),),
                 fields=(3,)),
    run.Workload("certify", setup=(),
                 op=(run.Cli(("construct", "mds", "--n", "6", "--k", "3", "--q", "8",
                              "--out", "m6.json"),
                             stdout="4276518c797107487a72ce5a25d09f759b469f8ea8013852648df704ad4b42b1",
                             files=(("m6.json",
                                     "472252cee7a1fd17c8e5f928876b632b94db93d5405e99aac28583925c4a957f"),)),
                     run.Cli(("verify", "m6.json"),
                             stdout="905cd5bc4480b5b0b0e1b607c83b21e4f7b246f5e0b17c7ff90582d8eb9bb5ad"),
                     run.Cli(("construct", "mds", "--n", "5", "--k", "2", "--q", "8",
                              "--digest", "--out", "m5.json"),
                             stdout="14a6e8d230a8f06284635cb1e7b43e7c917f931e1b8cef35b1ffb8884bcc6311",
                             files=(("m5.json",
                                     "94bf9d4235842f4383649f8c33bf81a7f949590bc19006eb36a18c74385fe2f5"),))),
                 fields=(8, 5)),
)}

SEED = 7


class HarnessTest(unittest.TestCase):

    def setUp(self):
        patch = mock.patch.object(run, "GF_PAIRS", 200)
        patch.start()
        self.addCleanup(patch.stop)

    def _run(self, workload, trace):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            result, lines = run.run(workload, SEED, 0, trace)
        return result, lines, err.getvalue()

    def test_untraced_runs_pass_and_report_end_to_end_metrics(self):
        for workload in TOY.values():
            with self.subTest(workload.name):
                result, lines, err = self._run(workload, trace=False)
                self.assertEqual(err, "")
                self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                                 (True, 1, 0))
                self.assertEqual(list(result["metrics"]), list(run.END_TO_END))
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                    self.assertEqual(metric["unit"], run.END_TO_END[name][0])
                printed = "\n".join(lines)
                for name in ("op_s", "peak_rss_mib", "setup_s", "failed_ops_ratio"):
                    self.assertIn(f"{name} = ", printed)
                self.assertEqual("equations_per_s" in printed,
                                 workload.name in ("simulate", "transpose"))

    def test_traced_runs_report_layers_and_pass_cross_checks(self):
        expect = {
            # two simulate calls on c84 (81 codewords): alpha 5 then alpha 4
            "simulate": {"design.codewords": 162, "caching.equations": 1296 + 324,
                         "caching.load_bytes": 8 * (1296 + 324)},
            "transpose": {"caching.equations": 324, "caching.matrix_cells": 324 * 81,
                          "caching.matrix_nonzeros": 324 * 4},
            "search": {},
            # construct (3 windows of 4 checks), verify (same), then 5 of 3
            "certify": {"codes.windows_checked": 11, "codes.rank_checks": 39,
                        "design.codewords": 64},
        }
        for workload in TOY.values():
            with self.subTest(workload.name):
                result, _, err = self._run(workload, trace=True)
                self.assertEqual(err, "")
                self.assertTrue(result["correct"])
                self.assertEqual((result["attempted"], result["failed"]), (3, 0))
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(list(metrics), list(run.PER_LAYER))
                for name, value in expect[workload.name].items():
                    self.assertEqual(metrics[name], value, name)
                self.assertGreater(metrics["gf.add_ns"], 0)
                self.assertGreater(metrics["cli.self_s"], 0)
                trace = json.loads((run.ROOT / ".bench_out" /
                                    f"trace-{workload.name}-seed{SEED}.json").read_text())
                self.assertEqual(trace["machine"]["nproc"], run.machine()["nproc"])
                spans = trace["spans"]
                self.assertEqual({s["name"] for s in spans if s["parent"] < 0}, {"op"})
                for s in spans:
                    self.assertLessEqual(s["start"], s["end"])
                    if s["parent"] >= 0:
                        self.assertEqual(spans[s["parent"]]["op"], s["op"])

        search = self._run(TOY["search"], trace=True)[0]["metrics"]
        self.assertGreater(search["codes.divisors_found"]["value"], 0)
        self.assertGreater(search["codes.candidates_examined"]["value"],
                           search["codes.divisors_found"]["value"])

    def test_times_are_scaled_by_the_reference_loop(self):
        # a host at half the reference speed: scaled times are half the wall
        with mock.patch.object(run, "_reference_loop", lambda: 2 * run.REF_LOOP_S):
            result, lines, _ = self._run(TOY["search"], trace=False)
        wall = float(next(line for line in lines
                          if line.startswith("op wall s ")).split()[3])
        self.assertAlmostEqual(result["metrics"]["op_s"]["value"], wall / 2, places=5)

    def test_wrong_stdout_fails_the_op(self):
        step = dataclasses.replace(TOY["search"].op[0], stdout="0" * 64)
        workload = dataclasses.replace(TOY["search"], op=(step,))
        result, lines, err = self._run(workload, trace=False)
        self.assertEqual((result["correct"], result["failed"]), (False, 1))
        self.assertIn("stdout sha256", err)

    def test_wrong_report_fails_the_op(self):
        with mock.patch.object(run, "_uniform_demands",
                               lambda seed, users, files: [0] * users):
            result, _, err = self._run(TOY["simulate"], trace=False)
        self.assertEqual((result["correct"], result["failed"]), (False, 1))
        self.assertIn("closed-form report", err)

    def test_counter_mismatch_fails_the_traced_op(self):
        original = tracing.Tracer.original

        def off_by_one(self, name):
            fn = original(self, name)
            if name == "caching.expected_delta":
                return lambda scheme: fn(scheme) + 1
            return fn

        with mock.patch.object(tracing.Tracer, "original", off_by_one):
            result, _, err = self._run(TOY["simulate"], trace=True)
        # the untraced op passes; both traced ops fail the cross-check
        self.assertEqual((result["correct"], result["failed"]), (False, 2))
        self.assertIn("expected_delta", err)

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec[key]],
                             [(name, unit, better) for name, (unit, better) in table.items()])

    def test_exits_without_result_when_the_package_is_absent(self):
        (run.ROOT / ".bench_work").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.ROOT / ".bench_work"))
        self.addCleanup(shutil.rmtree, bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("cannot import codedcache", proc.stderr)


if __name__ == "__main__":
    unittest.main()
