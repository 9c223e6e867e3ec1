"""Checks of the benchmark itself.  Run: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from quantimatch import matchset  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".pieces_scanned", ".nodes", ".edges", ".max_nodes",
                  ".cyclic_calls", ".peak", ".final")


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=180)
    return out


def result(*args):
    out = bench(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def verified_runner(name, seed):
    """A runner that has run the first episode of its pool, untimed."""
    runner = run.Runner(run.WORKLOADS[name], seed)
    runner.wa, runner.pool = runner.build(1)
    return runner, runner.loop(runner.pool, None, run.perf_counter)


@pytest.mark.parametrize("name", ["cyclic-stream", "grid-export"])
def test_correct_outputs_pass_verification(name):
    runner, done = verified_runner(name, 1)
    runner.verify(*done[0])
    assert runner.failed == 0, runner.notes


@pytest.mark.parametrize("name", ["cyclic-stream", "grid-export"])
def test_corrupted_value_is_caught(name, monkeypatch):
    def wrong(self, t, t_prime):
        return 1e6 + 0.5  # no margin in these workloads comes near

    monkeypatch.setattr(matchset.MatchSet, "query", wrong)
    runner, done = verified_runner(name, 2)
    runner.verify(*done[0])
    assert runner.failed >= run.WINDOWS, runner.notes


def test_corrupted_digest_is_caught(tmp_path, monkeypatch):
    digests = json.loads(run.DIGESTS.read_text())
    digests["cyclic-stream"] = digests["cyclic-stream"][::-1]
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS", path)
    runner, done = verified_runner("cyclic-stream", 1)
    runner.verify(*done[0])
    assert runner.failed == 1 and "digest" in runner.notes[0]


def test_end_to_end_run_reports_every_metric():
    res = result("--workload", "cyclic-stream", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    """Two traced runs of one seed, in separate processes, count the same."""
    args = ("--workload", name, "--seed", "4", "--seconds", "0", "--trace", "1")
    first, second = result(*args), result(*args)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in (first, second):
        assert res["correct"], res
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want

    def counts(res):
        return {k: v["value"] for k, v in res["metrics"].items() if k.endswith(COUNT_SUFFIXES)}

    assert counts(first) == counts(second)
    assert counts(first)["engine.feed.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "bounded-stream", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
