#!/usr/bin/env python3
"""Self-tests of the benchmark itself (seconds to run).

    python3 perfbench/selftest.py

Checks that a seed fixes every input, that every metric name is well
formed and agrees with BENCHMARK.json, that the layer table adds up to the
traced wall time, and that the output check can fail: a corrupted solution
must turn a run incorrect.
"""

from __future__ import annotations

import json
import pathlib
import sys
import unittest
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.env import pin_blas_threads  # noqa: E402

pin_blas_threads()

import numpy as np  # noqa: E402

import repro  # noqa: E402
from perfbench.check import OutputCheck  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    E2E,
    NAME_RE,
    PER_LAYER,
    median_of_chunks,
    percentile,
    result_line,
)
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    STREAM_DIRECT,
    ServeFarmWorkload,
    SolveWorkload,
    rhs,
)


class SeedTests(unittest.TestCase):
    def test_same_seed_gives_identical_rhs(self):
        np.testing.assert_array_equal(rhs(7, STREAM_DIRECT, 3, 500),
                                      rhs(7, STREAM_DIRECT, 3, 500))
        self.assertFalse(np.array_equal(rhs(7, STREAM_DIRECT, 3, 500),
                                        rhs(8, STREAM_DIRECT, 3, 500)))

    def test_same_seed_gives_identical_arrivals(self):
        first, again = ServeFarmWorkload("serve-farm", 7), ServeFarmWorkload("serve-farm", 7)
        self.assertEqual(first.schedule(15.0), again.schedule(15.0))
        self.assertEqual(first.burst_order(2), again.burst_order(2))
        self.assertNotEqual(first.schedule(15.0), ServeFarmWorkload("serve-farm", 8).schedule(15.0))
        tenants = [t for _, t in first.schedule(60.0)]
        self.assertAlmostEqual(tenants.count("hot") / len(tenants), 0.75, delta=0.05)


class MetricNameTests(unittest.TestCase):
    def test_every_name_matches_the_pattern(self):
        for name in list(E2E) + list(PER_LAYER):
            self.assertIsNotNone(NAME_RE.fullmatch(name), name)

    def test_benchmark_json_lists_the_same_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, E2E)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
            self.assertIsNotNone(NAME_RE.fullmatch(entry["name"]), entry["name"])

    def test_result_line_refuses_a_missing_metric(self):
        values = {name: 1.0 for name in E2E}
        self.assertEqual(set(result_line(True, 1, 0, values, E2E)["metrics"]), set(E2E))
        del values["setup_s"]
        with self.assertRaises(KeyError):
            result_line(True, 1, 0, values, E2E)


class StatisticsTests(unittest.TestCase):
    def test_a_slow_third_does_not_move_chunked_tail(self):
        steady = [1.0 + 0.01 * (i % 10) for i in range(90)]
        slow = steady[:60] + [3.0] * 30
        p90 = lambda c: percentile(c, 90)  # noqa: E731
        self.assertEqual(median_of_chunks(slow, 3, p90), median_of_chunks(steady, 3, p90))
        self.assertEqual(percentile(slow, 90), 3.0)


class LayerTableTests(unittest.TestCase):
    def test_self_times_add_up_to_the_root(self):
        spans = SpanRecorder()
        with spans.span("run", "unattributed") as root:
            with spans.span("solve", "solvers"):
                spans.attribute("linalg.kernels", 0.0)
                with spans.span("check", "perfbench"):
                    pass
            with spans.span("build", "matrices"):
                spans.attribute("linalg.kernels", 1e-9)
        table = spans.layer_table(root)
        self.assertEqual(set(table), {"unattributed", "solvers", "linalg.kernels",
                                      "perfbench", "matrices"})
        self.assertAlmostEqual(sum(table.values()), root.duration, delta=1e-12)


class OutputCheckTests(unittest.TestCase):
    def setUp(self):
        self.A = repro.matrices.laplace3d(8)
        self.b = rhs(1, STREAM_DIRECT, 0, self.A.n_rows)
        self.x = repro.gmres(self.A, self.b, precision="double", tol=1e-12).x

    def test_good_solution_passes_and_corrupted_one_fails(self):
        check = OutputCheck()
        self.assertTrue(check.solution("good", self.A, self.b, self.x, True))
        corrupted = self.x.copy()
        corrupted[0] += 1e-3
        self.assertFalse(check.solution("corrupted", self.A, self.b, corrupted, True))
        self.assertFalse(check.solution("not converged", self.A, self.b, self.x, False))
        self.assertFalse(check.solution("nan", self.A, self.b, self.x * np.nan, True))
        check.error("raised", RuntimeError("boom"))
        self.assertEqual((check.attempted, check.failed), (5, 4))
        self.assertFalse(check.correct)

    def test_corrupted_solver_output_fails_the_run(self):
        real = repro.gmres

        def corrupted(*args, **kwargs):
            result = real(*args, **kwargs)
            result.x[:] += 1e-6
            return result

        workload = SolveWorkload("solve-tiny", 8, seed=1)
        state = workload.setup(SpanRecorder(enabled=False))
        check = OutputCheck()
        with mock.patch.object(repro, "gmres", corrupted):
            workload.measure(state, 0.0, traced=False, spans=SpanRecorder(enabled=False),
                             check=check)
        self.assertGreater(check.failed, 0)
        self.assertFalse(result_line(check.correct, check.attempted, check.failed,
                                     {name: 1.0 for name in E2E}, E2E)["correct"])


if __name__ == "__main__":
    unittest.main()
