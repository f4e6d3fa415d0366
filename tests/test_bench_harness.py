"""Tests for the measurement core of ``benchmarks/_harness.py``.

The harness is a script directory, not a package, so it is imported the
way the pytest-benchmark modules import it: with ``benchmarks/`` on the
path.
"""

from __future__ import annotations

import ast
import json
import pathlib
import subprocess
import sys
import threading
import time

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))
import _harness  # noqa: E402


class TestRepeatRuns:
    def test_interleaves_variants_and_returns_every_run(self):
        calls = []

        def variant(name):
            def run():
                calls.append(name)
                return (len(calls), name)

            return run

        runs = _harness.repeat_runs({"a": variant("a"), "b": variant("b")}, 3)
        assert calls == ["a", "b", "a", "b", "a", "b"]
        assert runs == {
            "a": [(1, "a"), (3, "a"), (5, "a")],
            "b": [(2, "b"), (4, "b"), (6, "b")],
        }

    def test_runs_at_least_once(self):
        runs = _harness.repeat_runs({"only": lambda: (0.0, None)}, 0)
        assert runs == {"only": [(0.0, None)]}

    def test_best_run_is_fastest_and_earliest_on_ties(self):
        runs = [(0.3, "x"), (0.1, "first"), (0.2, "y"), (0.1, "second")]
        assert _harness.best_run(runs) == (0.1, "first")

    def test_timed_returns_seconds_and_result(self):
        seconds, result = _harness.timed(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0.0


class TestDriveClients:
    def test_clients_run_concurrently(self):
        # Every client must be inside the barrier at once; run one after
        # another, the first would time out and break it.
        n = 4
        barrier = threading.Barrier(n, timeout=5)
        names = []

        def client():
            names.append(threading.current_thread().name)
            barrier.wait()

        wall = _harness.drive_clients({f"client-{c}": client for c in range(n)}, "[test]")
        assert sorted(names) == [f"client-{c}" for c in range(n)]
        assert wall > 0.0

    def test_wall_spans_the_slowest_client(self):
        def client(delay):
            return lambda: time.sleep(delay)

        wall = _harness.drive_clients({"fast": client(0.0), "slow": client(0.05)}, "[test]")
        assert wall >= 0.05

    def test_client_exception_becomes_system_exit(self):
        def ok():
            pass

        def broken():
            raise RuntimeError("boom")

        with pytest.raises(SystemExit) as info:
            _harness.drive_clients({"ok": ok, "broken": broken}, "[test] numpy")
        message = str(info.value.code)
        assert message.startswith("[test] numpy: client errors:")
        assert "broken" in message and "boom" in message


class TestGateAndCheck:
    def test_gate_failures_exit_1_and_print_each(self, capsys):
        with pytest.raises(SystemExit) as info:
            _harness.gate("tag", ["first miss", "second miss"], "all good")
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert "[tag] FAIL gate: first miss" in err
        assert "[tag] FAIL gate: second miss" in err

    def test_gate_holds(self, capsys):
        _harness.gate("tag", [], "all good")
        assert capsys.readouterr().out == "[tag] gate holds: all good\n"

    def test_check(self):
        _harness.check(True, "unused")
        with pytest.raises(SystemExit, match="drifted"):
            _harness.check(False, "drifted")

    def test_check_survives_python_O(self):
        code = (
            f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import _harness; "
            "assert False, 'asserts are live'; _harness.check(False, 'check fired')"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1
        assert "check fired" in proc.stderr

    def test_harness_has_no_bare_assert(self):
        tree = ast.parse((BENCH_DIR / "_harness.py").read_text())
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


class TestCli:
    def test_no_mode_is_an_error(self):
        with pytest.raises(SystemExit) as info:
            _harness.main([])
        assert info.value.code == 2

    def test_out_with_two_modes_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            _harness.main(["--smoke", "--solve", "--out", str(tmp_path / "x.json")])
        assert info.value.code == 2
        assert not (tmp_path / "x.json").exists()

    def test_every_mode_has_a_flag(self):
        assert list(_harness.MODES) == [
            "smoke", "backends", "solve", "solve-block", "serve", "farm", "obs"
        ]

    def test_smoke_writes_bench_json(self, tmp_path):
        out = tmp_path / "BENCH_smoke.json"
        assert _harness.main(["--smoke", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-bench/1"
        assert payload["name"] == "smoke"
        # The full environment stamp of the repository benchmark.
        environment = payload["environment"]
        assert environment["workload"] == "smoke"
        assert {"numpy", "scipy", "blas", "effective_parallelism"} <= set(environment)
        assert payload["entries"]
        assert {e["benchmark"] for e in payload["entries"]} == {
            "figure1_fd_laplace3d", "figure5_kernel_speedups"
        }


class TestTracePath:
    def test_default_is_the_committed_trace(self):
        assert _harness.trace_path_for(None) == _harness.RESULTS_DIR / "TRACE_obs.json"

    def test_derived_from_out(self, tmp_path):
        assert (
            _harness.trace_path_for(tmp_path / "BENCH_obs_fresh.json")
            == tmp_path / "TRACE_obs_fresh.json"
        )
        assert _harness.trace_path_for(tmp_path / "obs.json") == tmp_path / "TRACE_obs.json"
