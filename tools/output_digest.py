"""Digest the CLI's output over fixed specs and seeded random streams.

    python tools/output_digest.py SRC_DIR

imports `quantimatch` from SRC_DIR (a checkout's `src`) and runs
`monitor`, `grid --grid 1/3`, `query --query 1 7/2` and `tracevalue` in
process on seeded random signals with p/q durations, q <= 3, under all
three semiring/cost pairings.  The `fine-scale` line runs the overshoot
spec on signals whose durations have q in {4, 5, 8}, so bounds print as
2- and 3-digit decimals and the time scale grows mid-stream.  The
`fine-grid` line runs the overshoot spec on those signals under
`grid --grid 1/8` and `query --query 1/8 5/4` only, so many queried
points lie exactly on a region's bounds.  The `long-tracevalue` line
runs `tracevalue` alone, of the cyclic and unbounded specs, on longer
seeded signals, so the fold carries and prunes many states.  The
`long-monitor` line runs `monitor` of the unbounded spec on the first
of those signals, so its rows come from runs that dwell for many
segments, where states that differ only in a dead clock merge.  The
`cyclic-dwell` line runs `monitor` and `tracevalue` of the unbounded
spec with a back edge that any dwell in l1 may take, on the coarse
signals, so runs dwell in a cyclic bucket and its input zones are
held by several sequence groups.  It prints one line per run: the number of stdout lines and a sha256 over
every run's stdout and exit code.

The `carried` line is not CLI output.  It feeds every spec's
coarse signals, under all three pairings, to `engine.OnlineMatcher`
directly and hashes `footprint()` after every segment; its count is the
number of segments fed.  A prune that keeps too much or too little
changes the carried table but, as long as rows stay right, no stdout
byte, so only this line shows it.

The last line, `seams`, runs `monitor` and `tracevalue` of every spec,
the `cyclic-dwell` one included, under all three pairings, on seeded
coarse signals whose neighbouring segments repeat a value about half
the time, some zeros written `-0`.  Every other line's signals change
value at each boundary, so only this one runs the absorbing seam, where
a recorded value sequence does not grow.  Its hash also covers each
matcher's `footprint()` after every segment of those signals; its count
is the number of stdout lines.

A change that must keep the output's bytes and the carried table is
checked by running this on the source trees before and after it: every
line must be equal.
"""

import contextlib
import hashlib
import io
import itertools
import os
import random
import sys
import tempfile
from fractions import Fraction

OVERSHOOT = """var x;
clock c;
location l0 init [x < 15];
location l1 [x > 5];
location l2 accept [true];
edge l0 -> l1 when c < 5 reset {c};
edge l1 -> l2 when c < 10;
"""

SPECS = {
    "overshoot": OVERSHOOT,
    "unbounded": OVERSHOOT.replace(" when c < 10", ""),
    "cyclic": OVERSHOOT + "edge l1 -> l0 when c < 5 reset {c};\n",
    "two-clock": """var x;
clock c, d;
location l0 init [x < 15];
location l1 [x > 5];
location l2 accept [true];
edge l0 -> l1 when c < 5 reset {c, d};
edge l1 -> l1 when d > 2 reset {d};
edge l1 -> l2 when c < 10 && d < 4;
""",
    # the start location's hand-off fires into an accepting location
    "accepting-initial": """var x;
clock c;
location l0 init accept [x < 15];
location l1 accept [x > 5];
edge l0 -> l1 when c < 5;
""",
    # a branch that can never reach acceptance, with a self-loop: its
    # location waits nowhere, so the output is the overshoot's
    "dead-branch": OVERSHOOT + """location l3 [x < 3];
edge l0 -> l3 when c > 1;
edge l3 -> l3 when c < 4 reset {c};
""",
    # weak upper, weak lower and strict lower guards, and a move into
    # acceptance that resets d, which is dead there
    "three-clock": """var x;
clock c, d, e;
location l0 init [x < 15];
location l1 [x > 5];
location l2 accept [true];
edge l0 -> l1 when c <= 4 reset {c, e};
edge l1 -> l1 when d >= 2 reset {d};
edge l1 -> l2 when c > 1 && e <= 6 reset {d};
""",
    # l1 reaches acceptance by two routes whose upper guards cap
    # different clocks, so its carried entries are kept under either of
    # two incomparable cap vectors; the route through l5 reads c, just
    # reset, against a negative constant and never fires
    "two-caps": """var x;
clock c, d;
location l0 init [x < 15];
location l1 [x > 3];
location l2 [x < 10];
location l3 [x > 8];
location l4 accept [true];
location l5 [true];
edge l0 -> l1 when c > 1 reset {d};
edge l1 -> l2 when c < 6;
edge l2 -> l4 when d < 9;
edge l1 -> l3 when d < 2;
edge l3 -> l4 when c <= 12;
edge l1 -> l5 reset {c};
edge l5 -> l4 when c < -1;
""",
    # a guard that bounds c from below and above and d from below, so
    # each of its tightenings reads the zone the one before it made
    "chained-guard": """var x;
clock c, d;
location l0 init [x < 15];
location l1 [x > 5];
location l2 accept [true];
edge l0 -> l1 when c < 5 reset {c};
edge l1 -> l2 when c > 1 && c < 4 && d >= 2;
""",
}

# kept out of SPECS, so that no other line changes
DWELL_SPECS = {"cyclic-dwell": SPECS["unbounded"] + "edge l1 -> l0 reset {c};\n"}

PAIRINGS = (("boolean", "b"), ("supinf", "r"), ("tropical", "t"))
COMMANDS = (
    ("monitor",),
    ("grid", "--grid", "1/3"),
    ("query", "--query", "1", "7/2"),
    ("tracevalue",),
)
FINE_COMMANDS = (
    ("grid", "--grid", "1/8"),
    ("query", "--query", "1/8", "5/4"),
)
STREAMS = 6
SEGMENTS = 12
LONG_SPECS = ("cyclic", "unbounded")
LONG_STREAMS = 3
LONG_SEGMENTS = 240


def coarse_duration(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 3))


def fine_duration(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 16), rng.choice((4, 5, 8)))


def signal_text(rng: random.Random, duration, segments=SEGMENTS) -> str:
    """A one-variable signal of `segments` segments; adjacent values
    differ, durations are drawn by `duration`."""
    rows = ["x"]
    prev = None
    for _ in range(segments):
        v = rng.randint(-2, 14)
        while v == prev:
            v = rng.randint(-2, 14)
        prev = v
        rows.append(f"{duration(rng)} {v}")
    return "\n".join(rows) + "\n"


def seam_signal_text(rng: random.Random) -> str:
    """A one-variable signal of SEGMENTS segments with coarse durations,
    each value repeating the previous one with probability 1/2; a zero
    is written `-0` half the time, which compares equal to `0`."""
    rows = ["x"]
    v = None
    for _ in range(SEGMENTS):
        if v is None or rng.random() < 0.5:
            v = rng.randint(-2, 14)
        text = "-0" if v == 0 and rng.random() < 0.5 else str(v)
        rows.append(f"{coarse_duration(rng)} {text}")
    return "\n".join(rows) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    sys.path.insert(0, os.path.abspath(argv[0]))
    from quantimatch import cli
    from quantimatch.automaton import CostKind, WeightedAutomaton, parse_automaton
    from quantimatch.engine import OnlineMatcher
    from quantimatch.semiring import SEMIRINGS
    from quantimatch.signals import read_stream

    rng = random.Random(1)
    coarse = [signal_text(rng, coarse_duration) for _ in range(STREAMS)]
    fine = [signal_text(rng, fine_duration) for _ in range(STREAMS)]
    long = [signal_text(rng, coarse_duration, LONG_SEGMENTS) for _ in range(LONG_STREAMS)]
    seams = [seam_signal_text(rng) for _ in range(STREAMS)]
    # (line name, spec names, signals, commands)
    runs = [(name, (name,), coarse, COMMANDS) for name in SPECS]
    runs.append(("fine-scale", ("overshoot",), fine, COMMANDS))
    runs.append(("fine-grid", ("overshoot",), fine, FINE_COMMANDS))
    runs.append(("long-tracevalue", LONG_SPECS, long, (("tracevalue",),)))
    runs.append(("long-monitor", ("unbounded",), long[:1], (("monitor",),)))
    runs.append(("cyclic-dwell", ("cyclic-dwell",), coarse, (("monitor",), ("tracevalue",))))

    def run_commands(digest, tmp, specs, signals, commands) -> int:
        """Hash each command's stdout and exit code into `digest`; the
        number of stdout lines."""
        lines = 0
        for text, spec, (semiring, cost), command in itertools.product(
            signals, specs, PAIRINGS, commands
        ):
            path = os.path.join(tmp, f"{spec}.tsa")
            args = [command[0], "--spec", path, "--semiring", semiring,
                    "--cost", cost, *command[1:]]
            out = io.StringIO()
            old_stdin = sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(args)
            finally:
                sys.stdin = old_stdin
            stdout = out.getvalue()
            lines += stdout.count("\n")
            digest.update(stdout.encode())
            digest.update(f"exit {code}\n".encode())
        return lines

    def feed_footprints(digest, specs, signals) -> int:
        """Hash each matcher's footprint after every segment into
        `digest`; the number of segments fed."""
        fed = 0
        for spec, text, (name, cost) in itertools.product(specs, signals, PAIRINGS):
            wa = WeightedAutomaton(parse_automaton(spec), SEMIRINGS[name], CostKind.from_code(cost))
            m = OnlineMatcher(wa)
            for seg in read_stream(text.splitlines()):
                m.feed(seg)
                digest.update(f"{m.footprint()}\n".encode())
                fed += 1
            digest.update(b"end\n")
        return fed

    all_specs = {**SPECS, **DWELL_SPECS}
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in all_specs.items():
            with open(os.path.join(tmp, f"{name}.tsa"), "w", encoding="utf-8") as fh:
                fh.write(spec)
        for name, specs, signals, commands in runs:
            digest = hashlib.sha256()
            lines = run_commands(digest, tmp, specs, signals, commands)
            print(f"{name}\t{lines}\t{digest.hexdigest()}")
        digest = hashlib.sha256()
        fed = feed_footprints(digest, SPECS.values(), coarse)
        print(f"carried\t{fed}\t{digest.hexdigest()}")
        digest = hashlib.sha256()
        lines = run_commands(digest, tmp, all_specs, seams, (("monitor",), ("tracevalue",)))
        feed_footprints(digest, all_specs.values(), seams)
        print(f"seams\t{lines}\t{digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
