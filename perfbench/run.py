"""Benchmark of the quantimatch streaming monitor, driven from outside.

Run from the repository root:

    python3 perfbench/run.py --workload bounded-stream --seed 7 --seconds 10 --trace 0

Each workload is one process, one thread and a closed loop over
episodes: a stream workload hands over the next segment only after the
rows of the previous one are formatted, as `quantimatch monitor` does
when it reads a file; `grid-export` runs `quantimatch grid` in process.
Inputs (signal text only) are drawn from `--seed`.  Outputs are checked
after the timed part.  The last line of stdout is one JSON object;
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

# The README's overshoot pattern: leave the low region within 5, then
# reach the high region within 10 more.
OVERSHOOT = """var x;
clock c;
location l0 init [x < 15];
location l1 [x > 5];
location l2 accept [true];
edge l0 -> l1 when c < 5 reset {c};
edge l1 -> l2 when c < 10;
"""
# Without the deadline a run may stay in l1 forever, so live state grows.
UNBOUNDED = OVERSHOOT.replace(" when c < 10", "")
# A back edge (ringing): every per-segment move graph becomes cyclic.
CYCLIC = OVERSHOOT + "edge l1 -> l0 when c < 5 reset {c};\n"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str
    semiring: str
    cost: str
    segments: int  # signal segments per episode
    pool: int  # episodes drawn per run; the loop cycles through them
    traced: int  # episodes in one traced pass
    grid: int = 0  # grid divisions per axis (grid-export only)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounded-stream", OVERSHOOT, "supinf", "r", 50, 100, 2),
        Workload("unbounded-stream", UNBOUNDED, "supinf", "r", 25, 60, 1),
        Workload("cyclic-stream", CYCLIC, "tropical", "t", 3, 1000, 10),
        Workload("grid-export", OVERSHOOT, "supinf", "r", 4, 1000, 10, grid=16),
    )
}
PINNED_SEED = 1  # its first episode's output is pinned in digests.json
WINDOWS = 8  # match-set values checked against direct evaluation per run
WINDOW_SEGMENTS = 8  # longest checked window, in segments
SETUP_REPS = 11

# Host speed drifts by about 10% over seconds, so every time metric is
# normalised: measured time x REFERENCE_UNIT_S / the time one
# reference_work() call takes next to it.  REFERENCE_UNIT_S is that
# call's median time on the host the baseline was recorded on.
REFERENCE_UNIT_S = 0.00175
CALIBRATION_SHARE = 0.15  # reference work run after each episode, as a share of it

# per-layer inclusive times reported besides every target's calls and self_s
INCL = ("engine.feed", "matchset.query", "matchset.export_grid", "cli.main")


def signal_text(rng: random.Random, segments: int) -> str:
    """Signal rows drawn as tests/conftest.py::random_signal draws them."""
    rows = ["x"]
    prev = None
    for _ in range(segments):
        v = rng.randint(-2, 14)
        while v == prev:
            v = rng.randint(-2, 14)
        prev = v
        rows.append(f"{Fraction(rng.randint(1, 10), rng.randint(1, 4))} {v}")
    return "\n".join(rows) + "\n"


def make_pool(wl: Workload, seed: int, count: int | None = None) -> list:
    """Episode inputs as (signal text, grid spacing or None)."""
    rng = random.Random(seed)
    pool = []
    for _ in range(wl.pool if count is None else count):
        text = signal_text(rng, wl.segments)
        delta = None
        if wl.grid:
            # a fixed number of grid points whatever the signal's length
            horizon = sum(Fraction(row.split()[0]) for row in text.splitlines()[1:])
            delta = horizon / wl.grid
        pool.append((text, delta))
    return pool


def reference_work() -> list:
    """Fixed work in the engine's instruction mix: exact rationals and
    tuple-keyed dicts.  It is not quantimatch code, so no change to the
    program moves it."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 50, acc.denominator % 13, i % 4 == 0)
        table[key] = (i, -acc, table.get(key, (0,))[0] + 1)
    return sorted(table.items())


def reference_unit_seconds(budget: float) -> float:
    """Median time of reference_work() calls spanning about `budget` seconds."""
    times = []
    end = perf_counter() + budget
    while len(times) < 3 or perf_counter() < end:
        t0 = perf_counter()
        reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Episode:
    wall: float  # seconds in the timed part
    latencies: list  # seconds per operation: segment or grid command
    digest: str  # sha256 of the emitted text
    output: object  # the matcher (streams) or the grid text; first episode only
    factor: float = 1.0  # host-speed normalisation for wall and latencies


def run_stream(wa, text: str, clock) -> Episode:
    """`monitor`'s loop: read a line, feed its segment, format its rows."""
    matcher = engine.OnlineMatcher(wa)
    digest = hashlib.sha256()
    lat = []
    t0 = clock()
    for seg in signals.read_stream(io.StringIO(text)):
        rows = [matchset.format_piece(p) for p in matcher.feed(seg)]
        t1 = clock()
        lat.append(t1 - t0)
        digest.update("".join(r + "\n" for r in rows).encode())
        t0 = clock()
    return Episode(sum(lat), lat, digest.hexdigest(), matcher)


def run_grid(wl: Workload, spec_path: Path, text: str, delta, clock) -> Episode:
    """`quantimatch grid` in process, signal on stdin, stdout buffered."""
    argv = ["grid", "--spec", str(spec_path), "--semiring", wl.semiring,
            "--cost", wl.cost, "--grid", str(delta)]
    sink = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(sink):
            t0 = clock()
            code = cli.main(argv)
            t1 = clock()
    finally:
        sys.stdin = stdin
    if code != 0:
        raise RuntimeError(f"grid exited with code {code}")
    out = sink.getvalue()
    return Episode(t1 - t0, [t1 - t0], hashlib.sha256(out.encode()).hexdigest(), out)


class Runner:
    """One workload at one seed: set-up, timed loop, traced passes, checks."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.notes: list = []
        OUT.mkdir(exist_ok=True)
        self.spec_path = OUT / f"{wl.name}.tsa"
        self.spec_path.write_text(wl.spec, encoding="utf-8")

    def build(self, count: int | None = None):
        wa = automaton.WeightedAutomaton(
            automaton.parse_automaton(self.wl.spec),
            semiring.get(self.wl.semiring),
            automaton.CostKind.from_code(self.wl.cost),
        )
        pool = make_pool(self.wl, self.seed, count)
        if not self.wl.grid:
            engine.OnlineMatcher(wa)
        return wa, pool

    def setup(self) -> float:
        """Median over repetitions of the import time of quantimatch in a
        fresh interpreter plus the in-process set-up, each repetition
        normalised by reference work run on either side of it."""
        reps = []
        for _ in range(SETUP_REPS):
            before = reference_unit_seconds(0.01)
            t_import = import_seconds()
            t0 = perf_counter()
            self.wa, self.pool = self.build()
            t_local = perf_counter() - t0
            unit = (before + reference_unit_seconds(0.01)) / 2
            reps.append((t_import + t_local) * REFERENCE_UNIT_S / unit)
        return statistics.median(reps)

    def episode(self, item, clock) -> Episode:
        text, delta = item
        if self.wl.grid:
            return run_grid(self.wl, self.spec_path, text, delta, clock)
        return run_stream(self.wa, text, clock)

    def ops(self) -> int:
        """Operations per episode: its segments, or one grid command."""
        return 1 if self.wl.grid else self.wl.segments

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def loop(self, items, seconds, clock, tracer=None, calibrate=False) -> list:
        """Closed loop over `items`, cycled until `seconds` have passed, or
        each item once when `seconds` is None.

        With `calibrate`, reference work runs after each episode and sets
        the episode's normalisation factor from the runs on either side.
        An episode that raises counts all its operations as failed; one
        whose output differs from an earlier episode on the same input
        fails the determinism check.
        """
        done: list = []
        digests: dict = {}
        unit = reference_unit_seconds(0.05) if calibrate else None
        deadline = perf_counter() + (seconds or 0)
        i = 0
        while i < len(items) if seconds is None else i == 0 or perf_counter() < deadline:
            k = i % len(items)
            i += 1
            if tracer is not None:
                tracer.episode = k
            start = clock()
            try:
                ep = self.episode(items[k], clock)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.attempted += self.ops()
                self.failed += self.ops()
                self.notes.append(f"episode {i - 1} raised")
                continue
            if tracer is not None:
                tracer.episode_done(start, clock())
            if calibrate:
                after = reference_unit_seconds(CALIBRATION_SHARE * ep.wall)
                ep.factor = REFERENCE_UNIT_S * 2 / (unit + after)
                unit = after
            if done:
                ep.output = None
            self.attempted += len(ep.latencies)
            if k in digests:
                self.check(ep.digest == digests[k], f"episode {i - 1} output differs on repeat")
            digests[k] = ep.digest
            done.append((k, ep))
        return done

    def verify(self, k: int, first: Episode) -> None:
        """Pinned digest, then match values against direct evaluation."""
        expected = json.loads(DIGESTS.read_text())[self.wl.name]
        if self.seed == PINNED_SEED and k == 0:
            got = first.digest
        else:
            pinned = make_pool(self.wl, PINNED_SEED, 1)[0]
            got = self.episode(pinned, perf_counter).digest
        self.check(got == expected, f"pinned seed {PINNED_SEED}: digest {got} != {expected}")

        sig = signals.parse_signal(self.pool[k][0])
        rng = random.Random(f"windows-{self.wl.name}-{self.seed}")
        if self.wl.grid:
            self.verify_grid(sig, first.output, rng)
        else:
            self.verify_windows(sig, first.output.matchset, rng)

    def verify_windows(self, sig, ms, rng) -> None:
        pts = list(sig.boundaries)
        pts = sorted(set(pts) | {(a + b) / 2 for a, b in zip(pts, pts[1:])})
        span = 2 * WINDOW_SEGMENTS
        for _ in range(WINDOWS):
            i = rng.randrange(len(pts) - 1)
            j = rng.randint(i + 1, min(i + span, len(pts) - 1))
            t, tp = pts[i], pts[j]
            got = ms.query(t, tp)
            want = engine.trace_value(sig.restrict(t, tp), self.wa)
            self.check(same_value(self.wa.semiring, got, want),
                       f"query({t}, {tp}) = {got}, restricted trace gives {want}")

    def verify_grid(self, sig, text: str, rng) -> None:
        lines = text.splitlines()
        g = self.wl.grid
        self.check(lines[0] == "t\tt'\tvalue" and len(lines) == 1 + g * (g + 1) // 2,
                   "grid output shape")
        for line in rng.sample(lines[1:], WINDOWS):
            t, tp, value = line.split("\t")
            want = matchset.format_value(
                engine.trace_value(sig.restrict(Fraction(t), Fraction(tp)), self.wa)
            )
            self.check(value == want, f"grid ({t}, {tp}) = {value}, restricted trace gives {want}")

    def end_to_end(self, seconds: float) -> dict:
        setup_s = self.setup()
        done = self.loop(self.pool, seconds, perf_counter, calibrate=True)
        if done:
            self.verify(*done[0])
        eps = [ep for _, ep in done]
        walls = [ep.wall * ep.factor for ep in eps]
        lat = sorted(x * ep.factor for ep in eps for x in ep.latencies)
        if not lat:  # every episode raised; the run is already marked failed
            walls, lat = [0.0], [0.0]
        unit = "grid command" if self.wl.grid else "segment"
        print(f"# {len(eps)} episodes, {len(lat)} {unit} latency samples")
        if eps:
            print(f"# raw mean wall_s {statistics.mean(ep.wall for ep in eps)} s, "
                  f"median host-speed factor {statistics.median(ep.factor for ep in eps)}")
        if len(lat) >= 1000:
            print(f"# op_p99_ms {percentile(lat, 99) * 1e3} ms")
        if self.wl.grid:
            g = self.wl.grid
            print(f"# grid_points_per_s {len(lat) * g * (g + 1) // 2 / sum(walls)} 1/s")
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.mean(walls), "s"),
            "ops_per_s": (len(lat) / (sum(walls) or 1), "1/s"),
            "op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
            "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def traced(self, seconds: float) -> dict:
        """Alternate untraced and traced passes over the first episodes."""
        self.wa, self.pool = self.build(self.wl.traced)
        plain, traced, tracers = [], [], []
        first = None
        deadline = perf_counter() + seconds
        while not tracers or perf_counter() < deadline:
            for use_tracer in (False, True) if len(tracers) % 2 == 0 else (True, False):
                if use_tracer:
                    tr = Tracer()
                    with tr.installed():
                        done = self.loop(self.pool, None, tr.clock, tr)
                    tracers.append(tr)
                    traced.append(sum(ep.wall for _, ep in done))
                else:
                    done = self.loop(self.pool, None, perf_counter)
                    plain.append(sum(ep.wall for _, ep in done))
                first = first or done
                self.check([ep.digest for _, ep in done] == [ep.digest for _, ep in first],
                           "traced and untraced passes differ in output")
        self.verify(*first[0])

        counts = [layer_counts(tr) for tr in tracers]
        self.check(all(c == counts[0] for c in counts), "traced passes differ in counts")
        self.write_spans(tracers)

        metrics = {name: (value, "count") for name, value in counts[0].items()}
        for name, _, _ in TARGETS:
            metrics[f"{name}.self_s"] = (
                statistics.median(tr.stats[name].self_s for tr in tracers), "s")
        for name in INCL:
            metrics[f"{name}.incl_s"] = (
                statistics.median(tr.stats[name].incl_s for tr in tracers), "s")
        st = tracers[0].stats
        metrics["matchset.query.hit_ratio"] = (
            ratio(st["zone.contains"].true, st["zone.contains"].calls), "ratio")
        metrics["matchset.insert.changed_ratio"] = (
            ratio(st["matchset.insert"].true, st["matchset.insert"].calls), "ratio")
        metrics["tracing.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio")
        print(f"# {len(tracers)} traced and {len(plain)} untraced passes "
              f"of {len(self.pool)} episodes")
        return metrics

    def write_spans(self, tracers) -> None:
        path = OUT / f"trace-{self.wl.name}-seed{self.seed}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for p, tr in enumerate(tracers):
                for name, episode, start, end in tr.spans:
                    fh.write(json.dumps({"pass": p, "name": name, "episode": episode,
                                         "start": start, "end": end}) + "\n")


def layer_counts(tr) -> dict:
    counts = {f"{name}.calls": st.calls for name, st in tr.stats.items()}
    counts["matchset.query.pieces_scanned"] = tr.pieces_scanned
    for key, value in tr.graph.items():
        counts[f"engine.shortest_distance.{key}"] = value
    counts["engine.footprint.peak"] = tr.footprint_peak
    counts["matchset.pieces.final"] = tr.pieces_final
    return counts


def same_value(sr, got, want) -> bool:
    """Exact, except tropical sums, which get the oracle's 1e-9."""
    if got == want:
        return True
    finite = all(abs(v) != float("inf") for v in (got, want))
    return sr.name == "tropical" and finite and abs(got - want) <= 1e-9


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * p // 100) - 1)
    return sorted_values[int(k)]


def ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import quantimatch.cli, quantimatch.oracle; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    runner = Runner(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = runner.traced(args.seconds)
    else:
        metrics = runner.end_to_end(args.seconds)
    for note in runner.notes:
        print(f"# FAILED: {note}")
    print(f"# error_rate {ratio(runner.failed, runner.attempted)} "
          f"({runner.failed} of {runner.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if not (SRC / "quantimatch" / "__init__.py").is_file():
    sys.exit(f"perfbench: no quantimatch sources at {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(BENCH))
from quantimatch import automaton, cli, engine, matchset, semiring, signals  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
