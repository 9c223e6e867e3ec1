"""Command line behavior: outputs, exit codes, determinism."""

import errno
import io
import os

import pytest

from quantimatch import cli

from conftest import CYCLIC_SPEC, DEAD_BRANCH_SPEC, OVERSHOOT_SPEC, TWO_CLOCK_SPEC

LONG_SIGNAL = "x\n7.5 10\n10 40\n13 60\n"
SHORT_SIGNAL = "x\n2.5 10\n1 40\n3 60\n"
TWO_STEP_SIGNAL = "x\n3.5 7\n3.5 12\n"

EXPECTED_GRID = (
    "t\tt'\tvalue\n"
    "0\t10\t5\n"
    "0\t20\t-inf\n"
    "0\t30\t-inf\n"
    "10\t20\t-25\n"
    "10\t30\t-inf\n"
    "20\t30\t-45\n"
)

# every row `monitor` prints for LONG_SIGNAL
EXPECTED_MONITOR = (
    "t in [0,0], t' in [7.5,7.5], t'-t in [7.5,7.5] : 5\n"
    "t in [0,0], t' in (0,7.5), t'-t in (0,7.5) : 5\n"
    "t in (0,7.5), t' in [7.5,7.5], t'-t in (0,7.5) : 5\n"
    "t in (0,7.5), t' in (0,7.5), t'-t in (0,7.5) : 5\n"
    "t in [7.5,7.5], t' in [17.5,17.5], t'-t in [10,10] : -25\n"
    "t in [7.5,7.5], t' in (7.5,17.5), t'-t in (0,10) : -25\n"
    "t in (7.5,17.5), t' in [17.5,17.5], t'-t in (0,10) : -25\n"
    "t in (7.5,17.5), t' in (7.5,17.5), t'-t in (0,10) : -25\n"
    "t in (2.5,7.5), t' in [17.5,17.5], t'-t in (10,15) : -25\n"
    "t in (2.5,7.5), t' in (7.5,17.5), t'-t in (0,15) : 5\n"
    "t in [0,0], t' in (7.5,15), t'-t in (7.5,15) : 5\n"
    "t in (0,7.5), t' in (7.5,17.5), t'-t in (0,15) : 5\n"
    "t in [17.5,17.5], t' in [30.5,30.5], t'-t in [13,13] : -45\n"
    "t in [17.5,17.5], t' in (17.5,30.5), t'-t in (0,13) : -45\n"
    "t in (17.5,30.5), t' in [30.5,30.5], t'-t in (0,13) : -45\n"
    "t in (17.5,30.5), t' in (17.5,30.5), t'-t in (0,13) : -45\n"
    "t in (15.5,17.5), t' in [30.5,30.5], t'-t in (13,15) : -45\n"
    "t in (12.5,17.5), t' in (17.5,27.5), t'-t in (0,15) : -25\n"
    "t in (12.5,17.5), t' in (17.5,30.5), t'-t in (0,15) : -45\n"
    "t in [7.5,7.5], t' in (17.5,22.5), t'-t in (10,15) : -25\n"
    "t in (7.5,17.5), t' in (17.5,27.5), t'-t in (0,15) : -25\n"
    "t in (2.5,7.5), t' in (17.5,22.5), t'-t in (10,15) : -25\n"
)

# durations with denominators 3, 2, 6 and 4: bounds print as p/q and as
# decimals
FRACTIONAL_SIGNAL = "x\n7/3 10\n1/2 40\n5/6 3\n9/4 12\n"

EXPECTED_MONITOR_FRACTIONAL = (
    "t in [0,0], t' in [7/3,7/3], t'-t in [7/3,7/3] : 5\n"
    "t in [0,0], t' in (0,7/3), t'-t in (0,7/3) : 5\n"
    "t in (0,7/3), t' in [7/3,7/3], t'-t in (0,7/3) : 5\n"
    "t in (0,7/3), t' in (0,7/3), t'-t in (0,7/3) : 5\n"
    "t in [7/3,7/3], t' in [17/6,17/6], t'-t in [0.5,0.5] : -25\n"
    "t in [7/3,7/3], t' in (7/3,17/6), t'-t in (0,0.5) : -25\n"
    "t in (7/3,17/6), t' in [17/6,17/6], t'-t in (0,0.5) : -25\n"
    "t in (7/3,17/6), t' in (7/3,17/6), t'-t in (0,0.5) : -25\n"
    "t in [0,0], t' in [17/6,17/6], t'-t in [17/6,17/6] : 5\n"
    "t in [0,0], t' in (7/3,17/6), t'-t in (7/3,17/6) : 5\n"
    "t in (0,7/3), t' in [17/6,17/6], t'-t in (0.5,17/6) : 5\n"
    "t in (0,7/3), t' in (7/3,17/6), t'-t in (0,17/6) : 5\n"
    "t in [17/6,17/6], t' in [11/3,11/3], t'-t in [5/6,5/6] : -2\n"
    "t in [17/6,17/6], t' in (17/6,11/3), t'-t in (0,5/6) : -2\n"
    "t in (17/6,11/3), t' in [11/3,11/3], t'-t in (0,5/6) : -2\n"
    "t in (17/6,11/3), t' in (17/6,11/3), t'-t in (0,5/6) : -2\n"
    "t in [7/3,7/3], t' in [11/3,11/3], t'-t in [4/3,4/3] : -25\n"
    "t in [7/3,7/3], t' in (17/6,11/3), t'-t in (0.5,4/3) : -25\n"
    "t in (7/3,17/6), t' in [11/3,11/3], t'-t in (5/6,4/3) : -25\n"
    "t in (7/3,17/6), t' in (17/6,11/3), t'-t in (0,4/3) : -25\n"
    "t in [0,0], t' in [11/3,11/3], t'-t in [11/3,11/3] : -2\n"
    "t in [0,0], t' in (17/6,11/3), t'-t in (17/6,11/3) : -2\n"
    "t in (0,7/3), t' in [11/3,11/3], t'-t in (4/3,11/3) : -2\n"
    "t in (0,7/3), t' in (17/6,11/3), t'-t in (0.5,11/3) : -2\n"
    "t in [11/3,11/3], t' in [71/12,71/12], t'-t in [2.25,2.25] : 3\n"
    "t in [11/3,11/3], t' in (11/3,71/12), t'-t in (0,2.25) : 3\n"
    "t in (11/3,71/12), t' in [71/12,71/12], t'-t in (0,2.25) : 3\n"
    "t in (11/3,71/12), t' in (11/3,71/12), t'-t in (0,2.25) : 3\n"
    "t in [17/6,17/6], t' in [71/12,71/12], t'-t in [37/12,37/12] : 7\n"
    "t in [17/6,17/6], t' in (11/3,71/12), t'-t in (5/6,37/12) : 7\n"
    "t in (17/6,11/3), t' in [71/12,71/12], t'-t in (2.25,37/12) : 7\n"
    "t in (17/6,11/3), t' in (11/3,71/12), t'-t in (0,37/12) : 7\n"
    "t in [7/3,7/3], t' in [71/12,71/12], t'-t in [43/12,43/12] : -25\n"
    "t in [7/3,7/3], t' in (11/3,71/12), t'-t in (4/3,43/12) : -25\n"
    "t in (7/3,17/6), t' in [71/12,71/12], t'-t in (37/12,43/12) : -25\n"
    "t in (7/3,17/6), t' in (11/3,71/12), t'-t in (5/6,43/12) : -25\n"
    "t in [0,0], t' in [71/12,71/12], t'-t in [71/12,71/12] : -2\n"
    "t in [0,0], t' in (11/3,71/12), t'-t in (11/3,71/12) : -2\n"
    "t in (0,7/3), t' in [71/12,71/12], t'-t in (43/12,71/12) : -2\n"
    "t in (0,7/3), t' in (11/3,71/12), t'-t in (4/3,71/12) : -2\n"
)

# `grid --grid 2/3` on FRACTIONAL_SIGNAL
EXPECTED_GRID_FRACTIONAL = (
    "t\tt'\tvalue\n"
    "0\t2/3\t5\n"
    "0\t4/3\t5\n"
    "0\t2\t5\n"
    "0\t8/3\t5\n"
    "0\t10/3\t-2\n"
    "0\t4\t-2\n"
    "0\t14/3\t-2\n"
    "0\t16/3\t-2\n"
    "2/3\t4/3\t5\n"
    "2/3\t2\t5\n"
    "2/3\t8/3\t5\n"
    "2/3\t10/3\t-2\n"
    "2/3\t4\t-2\n"
    "2/3\t14/3\t-2\n"
    "2/3\t16/3\t-2\n"
    "4/3\t2\t5\n"
    "4/3\t8/3\t5\n"
    "4/3\t10/3\t-2\n"
    "4/3\t4\t-2\n"
    "4/3\t14/3\t-2\n"
    "4/3\t16/3\t-2\n"
    "2\t8/3\t5\n"
    "2\t10/3\t-2\n"
    "2\t4\t-2\n"
    "2\t14/3\t-2\n"
    "2\t16/3\t-2\n"
    "8/3\t10/3\t-25\n"
    "8/3\t4\t-25\n"
    "8/3\t14/3\t-25\n"
    "8/3\t16/3\t-25\n"
    "10/3\t4\t7\n"
    "10/3\t14/3\t7\n"
    "10/3\t16/3\t7\n"
    "4\t14/3\t3\n"
    "4\t16/3\t3\n"
    "14/3\t16/3\t3\n"
)

# the overshoot pattern without its deadline: live state grows
UNBOUNDED_SPEC = OVERSHOOT_SPEC.replace(" when c < 10", "")
# the start location's hand-off fires into an accepting location at
# t' = t, which is no window
ACCEPTING_INITIAL_SPEC = (
    "var x; clock c; location l0 init accept [x < 15]; "
    "location l1 accept [x > 5]; edge l0 -> l1 when c < 5;\n"
)
ACCEPTING_INITIAL_SIGNAL = "x\n2 10\n1 40\n"

# `monitor` on FRACTIONAL_SIGNAL for CYCLIC_SPEC under tropical/t
EXPECTED_MONITOR_CYCLIC = (
    "t in [0,0], t' in [7/3,7/3], t'-t in [7/3,7/3] : 10\n"
    "t in [0,0], t' in (0,7/3), t'-t in (0,7/3) : 10\n"
    "t in (0,7/3), t' in [7/3,7/3], t'-t in (0,7/3) : 10\n"
    "t in (0,7/3), t' in (0,7/3), t'-t in (0,7/3) : 10\n"
    "t in [7/3,7/3], t' in [17/6,17/6], t'-t in [0.5,0.5] : 10\n"
    "t in [7/3,7/3], t' in (7/3,17/6), t'-t in (0,0.5) : 10\n"
    "t in (7/3,17/6), t' in [17/6,17/6], t'-t in (0,0.5) : 10\n"
    "t in (7/3,17/6), t' in (7/3,17/6), t'-t in (0,0.5) : 10\n"
    "t in [0,0], t' in [17/6,17/6], t'-t in [17/6,17/6] : 15\n"
    "t in [0,0], t' in (7/3,17/6), t'-t in (7/3,17/6) : 15\n"
    "t in (0,7/3), t' in [17/6,17/6], t'-t in (0.5,17/6) : 15\n"
    "t in (0,7/3), t' in (7/3,17/6), t'-t in (0,17/6) : 15\n"
    "t in [17/6,17/6], t' in [11/3,11/3], t'-t in [5/6,5/6] : 10\n"
    "t in [17/6,17/6], t' in (17/6,11/3), t'-t in (0,5/6) : 10\n"
    "t in (17/6,11/3), t' in [11/3,11/3], t'-t in (0,5/6) : 10\n"
    "t in (17/6,11/3), t' in (17/6,11/3), t'-t in (0,5/6) : 10\n"
    "t in [7/3,7/3], t' in [11/3,11/3], t'-t in [4/3,4/3] : -27\n"
    "t in [7/3,7/3], t' in (17/6,11/3), t'-t in (0.5,4/3) : -27\n"
    "t in (7/3,17/6), t' in [11/3,11/3], t'-t in (5/6,4/3) : -27\n"
    "t in (7/3,17/6), t' in (17/6,11/3), t'-t in (0,4/3) : -27\n"
    "t in [0,0], t' in [11/3,11/3], t'-t in [11/3,11/3] : -22\n"
    "t in [0,0], t' in (17/6,11/3), t'-t in (17/6,11/3) : -22\n"
    "t in (0,7/3), t' in [11/3,11/3], t'-t in (4/3,11/3) : -22\n"
    "t in (0,7/3), t' in (17/6,11/3), t'-t in (0.5,11/3) : -22\n"
    "t in [11/3,11/3], t' in [71/12,71/12], t'-t in [2.25,2.25] : 10\n"
    "t in [11/3,11/3], t' in (11/3,71/12), t'-t in (0,2.25) : 10\n"
    "t in (11/3,71/12), t' in [71/12,71/12], t'-t in (0,2.25) : 10\n"
    "t in (11/3,71/12), t' in (11/3,71/12), t'-t in (0,2.25) : 10\n"
    "t in [17/6,17/6], t' in [71/12,71/12], t'-t in [37/12,37/12] : 17\n"
    "t in [17/6,17/6], t' in (11/3,71/12), t'-t in (5/6,37/12) : 17\n"
    "t in (17/6,11/3), t' in [71/12,71/12], t'-t in (2.25,37/12) : 17\n"
    "t in (17/6,11/3), t' in (11/3,71/12), t'-t in (0,37/12) : 17\n"
    "t in [7/3,7/3], t' in [71/12,71/12], t'-t in [43/12,43/12] : -20\n"
    "t in [7/3,7/3], t' in (11/3,71/12), t'-t in (4/3,43/12) : -20\n"
    "t in (7/3,17/6), t' in [71/12,71/12], t'-t in (37/12,43/12) : -20\n"
    "t in (7/3,17/6), t' in (11/3,71/12), t'-t in (5/6,43/12) : -20\n"
    "t in [0,0], t' in [71/12,71/12], t'-t in [71/12,71/12] : -15\n"
    "t in [0,0], t' in (11/3,71/12), t'-t in (11/3,71/12) : -15\n"
    "t in (0,7/3), t' in [71/12,71/12], t'-t in (43/12,71/12) : -15\n"
    "t in (0,7/3), t' in (11/3,71/12), t'-t in (4/3,71/12) : -15\n"
)

# `monitor` on FRACTIONAL_SIGNAL for UNBOUNDED_SPEC under supinf/r
EXPECTED_MONITOR_UNBOUNDED = (
    "t in [0,0], t' in [7/3,7/3], t'-t in [7/3,7/3] : 5\n"
    "t in [0,0], t' in (0,7/3), t'-t in (0,7/3) : 5\n"
    "t in (0,7/3), t' in [7/3,7/3], t'-t in (0,7/3) : 5\n"
    "t in (0,7/3), t' in (0,7/3), t'-t in (0,7/3) : 5\n"
    "t in [7/3,7/3], t' in [17/6,17/6], t'-t in [0.5,0.5] : -25\n"
    "t in [7/3,7/3], t' in (7/3,17/6), t'-t in (0,0.5) : -25\n"
    "t in (7/3,17/6), t' in [17/6,17/6], t'-t in (0,0.5) : -25\n"
    "t in (7/3,17/6), t' in (7/3,17/6), t'-t in (0,0.5) : -25\n"
    "t in [0,0], t' in [17/6,17/6], t'-t in [17/6,17/6] : 5\n"
    "t in [0,0], t' in (7/3,17/6), t'-t in (7/3,17/6) : 5\n"
    "t in (0,7/3), t' in [17/6,17/6], t'-t in (0.5,17/6) : 5\n"
    "t in (0,7/3), t' in (7/3,17/6), t'-t in (0,17/6) : 5\n"
    "t in [17/6,17/6], t' in [11/3,11/3], t'-t in [5/6,5/6] : -2\n"
    "t in [17/6,17/6], t' in (17/6,11/3), t'-t in (0,5/6) : -2\n"
    "t in (17/6,11/3), t' in [11/3,11/3], t'-t in (0,5/6) : -2\n"
    "t in (17/6,11/3), t' in (17/6,11/3), t'-t in (0,5/6) : -2\n"
    "t in [7/3,7/3], t' in [11/3,11/3], t'-t in [4/3,4/3] : -25\n"
    "t in [7/3,7/3], t' in (17/6,11/3), t'-t in (0.5,4/3) : -25\n"
    "t in (7/3,17/6), t' in [11/3,11/3], t'-t in (5/6,4/3) : -25\n"
    "t in (7/3,17/6), t' in (17/6,11/3), t'-t in (0,4/3) : -25\n"
    "t in [0,0], t' in [11/3,11/3], t'-t in [11/3,11/3] : -2\n"
    "t in [0,0], t' in (17/6,11/3), t'-t in (17/6,11/3) : -2\n"
    "t in (0,7/3), t' in [11/3,11/3], t'-t in (4/3,11/3) : -2\n"
    "t in (0,7/3), t' in (17/6,11/3), t'-t in (0.5,11/3) : -2\n"
    "t in [11/3,11/3], t' in [71/12,71/12], t'-t in [2.25,2.25] : 3\n"
    "t in [11/3,11/3], t' in (11/3,71/12), t'-t in (0,2.25) : 3\n"
    "t in (11/3,71/12), t' in [71/12,71/12], t'-t in (0,2.25) : 3\n"
    "t in (11/3,71/12), t' in (11/3,71/12), t'-t in (0,2.25) : 3\n"
    "t in [17/6,17/6], t' in [71/12,71/12], t'-t in [37/12,37/12] : 7\n"
    "t in [17/6,17/6], t' in (11/3,71/12), t'-t in (5/6,37/12) : 7\n"
    "t in (17/6,11/3), t' in [71/12,71/12], t'-t in (2.25,37/12) : 7\n"
    "t in (17/6,11/3), t' in (11/3,71/12), t'-t in (0,37/12) : 7\n"
    "t in [7/3,7/3], t' in [71/12,71/12], t'-t in [43/12,43/12] : -25\n"
    "t in [7/3,7/3], t' in (11/3,71/12), t'-t in (4/3,43/12) : -25\n"
    "t in (7/3,17/6), t' in [71/12,71/12], t'-t in (37/12,43/12) : -25\n"
    "t in (7/3,17/6), t' in (11/3,71/12), t'-t in (5/6,43/12) : -25\n"
    "t in [0,0], t' in [71/12,71/12], t'-t in [71/12,71/12] : -2\n"
    "t in [0,0], t' in (11/3,71/12), t'-t in (11/3,71/12) : -2\n"
    "t in (0,7/3), t' in [71/12,71/12], t'-t in (43/12,71/12) : -2\n"
    "t in (0,7/3), t' in (11/3,71/12), t'-t in (4/3,71/12) : -2\n"
)

# `monitor` on FRACTIONAL_SIGNAL for TWO_CLOCK_SPEC under tropical/t
EXPECTED_MONITOR_TWO_CLOCK = (
    "t in [0,0], t' in [7/3,7/3], t'-t in [7/3,7/3] : 10\n"
    "t in [0,0], t' in (2,7/3), t'-t in (2,7/3) : 15\n"
    "t in [0,0], t' in (0,7/3), t'-t in (0,7/3) : 10\n"
    "t in (0,1/3), t' in [7/3,7/3], t'-t in (2,7/3) : 15\n"
    "t in (0,7/3), t' in [7/3,7/3], t'-t in (0,7/3) : 10\n"
    "t in (0,1/3), t' in (2,7/3), t'-t in (2,7/3) : 15\n"
    "t in (0,7/3), t' in (0,7/3), t'-t in (0,7/3) : 10\n"
    "t in [7/3,7/3], t' in [17/6,17/6], t'-t in [0.5,0.5] : 10\n"
    "t in [7/3,7/3], t' in (7/3,17/6), t'-t in (0,0.5) : 10\n"
    "t in (7/3,17/6), t' in [17/6,17/6], t'-t in (0,0.5) : 10\n"
    "t in (7/3,17/6), t' in (7/3,17/6), t'-t in (0,0.5) : 10\n"
    "t in [0,0], t' in [17/6,17/6], t'-t in [17/6,17/6] : 15\n"
    "t in [0,0], t' in (7/3,17/6), t'-t in (7/3,17/6) : 15\n"
    "t in (0,1/3), t' in [17/6,17/6], t'-t in (2.5,17/6) : 45\n"
    "t in (0,5/6), t' in [17/6,17/6], t'-t in (2,17/6) : 80\n"
    "t in (0,7/3), t' in [17/6,17/6], t'-t in (0.5,17/6) : 15\n"
    "t in (0,1/3), t' in (7/3,17/6), t'-t in (2,17/6) : 45\n"
    "t in (0,5/6), t' in (7/3,17/6), t'-t in (2,17/6) : 80\n"
    "t in (0,7/3), t' in (7/3,17/6), t'-t in (0,17/6) : 15\n"
    "t in [17/6,17/6], t' in [11/3,11/3], t'-t in [5/6,5/6] : 10\n"
    "t in [17/6,17/6], t' in (17/6,11/3), t'-t in (0,5/6) : 10\n"
    "t in (17/6,11/3), t' in [11/3,11/3], t'-t in (0,5/6) : 10\n"
    "t in (17/6,11/3), t' in (17/6,11/3), t'-t in (0,5/6) : 10\n"
    "t in [7/3,7/3], t' in [11/3,11/3], t'-t in [4/3,4/3] : -27\n"
    "t in [7/3,7/3], t' in (17/6,11/3), t'-t in (0.5,4/3) : -27\n"
    "t in (7/3,17/6), t' in [11/3,11/3], t'-t in (5/6,4/3) : -27\n"
    "t in (7/3,17/6), t' in (17/6,11/3), t'-t in (0,4/3) : -27\n"
    "t in [0,0], t' in [11/3,11/3], t'-t in [11/3,11/3] : -22\n"
    "t in [0,0], t' in (17/6,11/3), t'-t in (17/6,11/3) : -22\n"
    "t in (0,1/3), t' in [11/3,11/3], t'-t in (10/3,11/3) : 43\n"
    "t in (0,5/6), t' in [11/3,11/3], t'-t in (17/6,11/3) : 43\n"
    "t in (0,5/3), t' in [11/3,11/3], t'-t in (2,11/3) : 41\n"
    "t in (0,7/3), t' in [11/3,11/3], t'-t in (4/3,11/3) : -22\n"
    "t in (0,1/3), t' in (17/6,11/3), t'-t in (2.5,11/3) : 43\n"
    "t in (0,5/6), t' in (17/6,11/3), t'-t in (2,11/3) : 43\n"
    "t in (0,5/3), t' in (17/6,11/3), t'-t in (2,11/3) : 41\n"
    "t in (0,7/3), t' in (17/6,11/3), t'-t in (0.5,11/3) : -22\n"
    "t in [11/3,11/3], t' in [71/12,71/12], t'-t in [2.25,2.25] : 10\n"
    "t in [11/3,11/3], t' in (17/3,71/12), t'-t in (2,2.25) : 17\n"
    "t in [11/3,11/3], t' in (11/3,71/12), t'-t in (0,2.25) : 10\n"
    "t in (11/3,47/12), t' in [71/12,71/12], t'-t in (2,2.25) : 17\n"
    "t in (11/3,71/12), t' in [71/12,71/12], t'-t in (0,2.25) : 10\n"
    "t in (11/3,47/12), t' in (17/3,71/12), t'-t in (2,2.25) : 17\n"
    "t in (11/3,71/12), t' in (11/3,71/12), t'-t in (0,2.25) : 10\n"
    "t in [17/6,17/6], t' in [71/12,71/12], t'-t in [37/12,37/12] : 17\n"
    "t in [17/6,17/6], t' in (17/3,71/12), t'-t in (17/6,37/12) : 26\n"
    "t in [17/6,17/6], t' in (29/6,71/12), t'-t in (2,37/12) : 24\n"
    "t in [17/6,17/6], t' in (11/3,71/12), t'-t in (5/6,37/12) : 17\n"
    "t in (17/6,11/3), t' in [71/12,71/12], t'-t in (2.25,37/12) : 17\n"
    "t in (17/6,11/3), t' in (17/3,71/12), t'-t in (2,37/12) : 26\n"
    "t in (17/6,11/3), t' in (29/6,71/12), t'-t in (2,37/12) : 24\n"
    "t in (17/6,11/3), t' in (11/3,71/12), t'-t in (0,37/12) : 17\n"
    "t in [7/3,7/3], t' in [71/12,71/12], t'-t in [43/12,43/12] : -20\n"
    "t in [7/3,7/3], t' in (17/3,71/12), t'-t in (10/3,43/12) : 1\n"
    "t in [7/3,7/3], t' in (29/6,71/12), t'-t in (2.5,43/12) : -13\n"
    "t in [7/3,7/3], t' in (13/3,71/12), t'-t in (2,43/12) : 22\n"
    "t in [7/3,7/3], t' in (11/3,71/12), t'-t in (4/3,43/12) : -20\n"
    "t in (7/3,17/6), t' in [71/12,71/12], t'-t in (37/12,43/12) : -20\n"
    "t in (7/3,17/6), t' in (17/3,71/12), t'-t in (17/6,43/12) : 1\n"
    "t in (7/3,17/6), t' in (29/6,71/12), t'-t in (2,43/12) : -13\n"
    "t in (7/3,17/6), t' in (13/3,71/12), t'-t in (2,43/12) : 22\n"
    "t in (7/3,17/6), t' in (11/3,71/12), t'-t in (5/6,43/12) : -20\n"
    "t in [0,0], t' in [71/12,71/12], t'-t in [71/12,71/12] : -15\n"
    "t in [0,0], t' in (17/3,71/12), t'-t in (17/3,71/12) : 6\n"
    "t in [0,0], t' in (29/6,71/12), t'-t in (29/6,71/12) : -8\n"
    "t in [0,0], t' in (13/3,71/12), t'-t in (13/3,71/12) : 27\n"
    "t in [0,0], t' in (4,71/12), t'-t in (4,71/12) : 62\n"
    "t in [0,0], t' in (11/3,71/12), t'-t in (11/3,71/12) : -15\n"
    "t in (0,1/3), t' in [71/12,71/12], t'-t in (67/12,71/12) : 50\n"
    "t in (0,5/6), t' in [71/12,71/12], t'-t in (61/12,71/12) : 50\n"
    "t in (0,5/3), t' in [71/12,71/12], t'-t in (4.25,71/12) : 48\n"
    "t in (0,23/12), t' in [71/12,71/12], t'-t in (4,71/12) : 64\n"
    "t in (0,7/3), t' in [71/12,71/12], t'-t in (43/12,71/12) : -15\n"
    "t in (0,5/3), t' in (17/3,71/12), t'-t in (4,71/12) : 57\n"
    "t in (0,23/12), t' in (17/3,71/12), t'-t in (4,71/12) : 64\n"
    "t in (0,7/3), t' in (17/3,71/12), t'-t in (10/3,71/12) : 6\n"
    "t in (0,5/6), t' in (29/6,71/12), t'-t in (4,71/12) : 57\n"
    "t in (0,5/3), t' in (29/6,71/12), t'-t in (4,71/12) : 55\n"
    "t in (0,7/3), t' in (29/6,71/12), t'-t in (2.5,71/12) : -8\n"
    "t in (0,1/3), t' in (13/3,71/12), t'-t in (4,71/12) : 57\n"
    "t in (0,5/6), t' in (13/3,71/12), t'-t in (4,71/12) : 92\n"
    "t in (0,7/3), t' in (13/3,71/12), t'-t in (2,71/12) : 27\n"
    "t in (0,1/3), t' in (4,71/12), t'-t in (4,71/12) : 62\n"
    "t in (0,1/3), t' in (11/3,71/12), t'-t in (10/3,71/12) : 50\n"
    "t in (0,5/6), t' in (11/3,71/12), t'-t in (17/6,71/12) : 50\n"
    "t in (0,5/3), t' in (11/3,71/12), t'-t in (2,71/12) : 48\n"
    "t in (0,7/3), t' in (11/3,71/12), t'-t in (2,71/12) : 57\n"
    "t in (0,7/3), t' in (11/3,71/12), t'-t in (4/3,71/12) : -15\n"
)

# `monitor` on ACCEPTING_INITIAL_SIGNAL for ACCEPTING_INITIAL_SPEC under
# supinf/r: no row has t' - t = 0
EXPECTED_MONITOR_ACCEPTING_INITIAL = (
    "t in [0,0], t' in [2,2], t'-t in [2,2] : 5\n"
    "t in [0,0], t' in (0,2), t'-t in (0,2) : 5\n"
    "t in (0,2), t' in [2,2], t'-t in (0,2) : 5\n"
    "t in (0,2), t' in (0,2), t'-t in (0,2) : 5\n"
    "t in [2,2], t' in [3,3], t'-t in [1,1] : -25\n"
    "t in [2,2], t' in (2,3), t'-t in (0,1) : -25\n"
    "t in (2,3), t' in [3,3], t'-t in (0,1) : -25\n"
    "t in (2,3), t' in (2,3), t'-t in (0,1) : -25\n"
    "t in [0,0], t' in [3,3], t'-t in [3,3] : -25\n"
    "t in [0,0], t' in (2,3), t'-t in (2,3) : -25\n"
    "t in (0,2), t' in [3,3], t'-t in (1,3) : -25\n"
    "t in (0,2), t' in (2,3), t'-t in (0,3) : -25\n"
)


@pytest.fixture
def spec_path(tmp_path):
    p = tmp_path / "overshoot.tsa"
    p.write_text(OVERSHOOT_SPEC)
    return str(p)


def sig_path(tmp_path, text, name="sig.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tracevalue_supinf(capsys, tmp_path, spec_path):
    code, out, err = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, SHORT_SIGNAL),
    )
    assert (code, out, err) == (0, "5\n", "")


def test_tracevalue_other_pairings(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, SHORT_SIGNAL)
    code, out, _ = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "tropical",
        "--cost", "t", "--signal", sig,
    )
    assert (code, out) == (0, "-10\n")
    code, out, _ = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "boolean",
        "--cost", "b", "--signal", sig,
    )
    assert (code, out) == (0, "true\n")


def test_tracevalue_no_match_prints_zero(capsys, tmp_path, spec_path):
    code, out, _ = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, LONG_SIGNAL),
    )
    assert (code, out) == (0, "-inf\n")


def test_tracevalue_negative_threshold(capsys, tmp_path):
    spec = tmp_path / "negative.tsa"
    spec.write_text(
        "var x;\nclock c;\nlocation l0 init [x > -2];\n"
        "location l1 accept [true];\nedge l0 -> l1 when c < 5;\n"
    )
    sig = sig_path(tmp_path, "x\n1 -1.5\n2 -0.5\n")
    code, out, err = run(
        capsys, "tracevalue", "--spec", str(spec), "--semiring", "supinf",
        "--cost", "r", "--signal", sig,
    )
    assert (code, out, err) == (0, "0.5\n", "")


def test_tracevalue_reads_stdin(capsys, monkeypatch, spec_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(SHORT_SIGNAL))
    code, out, _ = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
    )
    assert (code, out) == (0, "5\n")


def test_pairing_mismatch_is_usage_error(capsys, tmp_path, spec_path):
    code, out, err = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "t", "--signal", sig_path(tmp_path, SHORT_SIGNAL),
    )
    assert code == 64 and out == ""
    assert "tropical" in err


def test_unreadable_spec(capsys, tmp_path):
    code, _, err = run(
        capsys, "tracevalue", "--spec", str(tmp_path / "missing.tsa"),
        "--semiring", "supinf", "--cost", "r", "--signal", "-",
    )
    assert code == 1 and "cannot read" in err


def test_spec_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.tsa"
    bad.write_text("var x;\nlocation l0 [y < 1];\n")
    code, _, err = run(
        capsys, "tracevalue", "--spec", str(bad), "--semiring", "supinf",
        "--cost", "r", "--signal", "-",
    )
    assert code == 1 and "line 2" in err and "unknown variable" in err


@pytest.mark.parametrize("command", ["tracevalue", "monitor"])
@pytest.mark.parametrize("spec,message", [
    (OVERSHOOT_SPEC.replace(" init", ""), "no initial location"),
    (OVERSHOOT_SPEC.replace(" accept", ""), "no accepting location"),
])
def test_spec_that_can_match_nothing_is_rejected(capsys, tmp_path, command, spec, message):
    """A spec with no initial or no accepting location is a parse
    error, not a run that reports no match."""
    bad = tmp_path / "bad.tsa"
    bad.write_text(spec)
    code, out, err = run(
        capsys, command, "--spec", str(bad), "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, SHORT_SIGNAL),
    )
    assert code == 1 and out == "" and message in err


def test_malformed_signal(capsys, tmp_path, spec_path):
    code, _, err = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, "x\n1 2\nbroken row\n"),
    )
    assert code == 1 and "line 3" in err


def test_a_bad_value_is_malformed_signal(capsys, tmp_path, spec_path):
    code, out, err = run(
        capsys, "monitor", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, "x\n1 abc\n"),
    )
    assert (code, out) == (1, "")
    assert err == "quantimatch: line 2: bad value 'abc'\n"


def test_header_only_signal_is_evaluation_error(capsys, tmp_path, spec_path):
    code, _, err = run(
        capsys, "tracevalue", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, "x\n"),
    )
    assert code == 2 and "empty signal" in err


def test_query(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, LONG_SIGNAL)
    base = ["query", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
            "--signal", sig, "--query"]
    code, out, _ = run(capsys, *base, "3", "15")
    assert (code, out) == (0, "5\n")
    code, out, _ = run(capsys, *base, "10", "15")
    assert (code, out) == (0, "-25\n")
    code, out, _ = run(capsys, *base, "0", "25")
    assert (code, out) == (0, "-inf\n")


def test_query_usage_errors(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, LONG_SIGNAL)
    base = ["query", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
            "--signal", sig, "--query"]
    for t, tp in [("abc", "2"), ("5", "5"), ("7", "3"), ("-1", "4"), ("3", "31")]:
        code, out, err = run(capsys, *base, t, tp)
        assert code == 64 and out == ""
        assert err


def test_grid_output_exact(capsys, tmp_path, spec_path):
    code, out, err = run(
        capsys, "grid", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
        "--signal", sig_path(tmp_path, LONG_SIGNAL), "--grid", "10",
    )
    assert (code, err) == (0, "")
    assert out == EXPECTED_GRID


def test_grid_usage_errors(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, LONG_SIGNAL)
    for delta in ("0", "-2", "x"):
        code, _, err = run(
            capsys, "grid", "--spec", spec_path, "--semiring", "supinf",
            "--cost", "r", "--signal", sig, "--grid", delta,
        )
        assert code == 64 and err


def test_usage_errors_come_before_evaluation(capsys, tmp_path, spec_path):
    # the pattern reads x, which this signal lacks
    sig = sig_path(tmp_path, "y\n1 7\n2 12\n")
    base = ["--spec", spec_path, "--semiring", "supinf", "--cost", "r", "--signal", sig]
    code, _, err = run(capsys, "grid", *base, "--grid", "1")
    assert code == 2 and "missing" in err
    code, out, err = run(capsys, "grid", *base, "--grid", "0")
    assert (code, out) == (64, "") and "positive" in err
    code, out, err = run(capsys, "query", *base, "--query", "5", "5")
    assert (code, out) == (64, "") and err


def test_monitor_streams_rows(capsys, tmp_path, spec_path):
    code, out, err = run(
        capsys, "monitor", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, LONG_SIGNAL),
    )
    assert (code, err) == (0, "")
    assert out == EXPECTED_MONITOR


def test_monitor_fractional_durations_exact(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, FRACTIONAL_SIGNAL)
    code, out, err = run(
        capsys, "monitor", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig,
    )
    assert (code, out, err) == (0, EXPECTED_MONITOR_FRACTIONAL, "")
    base = ["query", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
            "--signal", sig, "--query"]
    for window, want in [(("7/3", "71/12"), "-25\n"), (("1/3", "35/12"), "-2\n"),
                         (("0", "17/6"), "5\n")]:
        assert run(capsys, *base, *window) == (0, want, "")


@pytest.mark.parametrize(
    "spec, semiring, cost, expected",
    [
        (CYCLIC_SPEC, "tropical", "t", EXPECTED_MONITOR_CYCLIC),
        (UNBOUNDED_SPEC, "supinf", "r", EXPECTED_MONITOR_UNBOUNDED),
        (TWO_CLOCK_SPEC, "tropical", "t", EXPECTED_MONITOR_TWO_CLOCK),
    ],
    ids=["cyclic", "unbounded", "two-clock"],
)
def test_monitor_other_specs_exact(capsys, tmp_path, spec, semiring, cost, expected):
    spec_file = tmp_path / "spec.tsa"
    spec_file.write_text(spec)
    code, out, err = run(
        capsys, "monitor", "--spec", str(spec_file), "--semiring", semiring,
        "--cost", cost, "--signal", sig_path(tmp_path, FRACTIONAL_SIGNAL),
    )
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("signal", [LONG_SIGNAL, FRACTIONAL_SIGNAL], ids=["long", "fractional"])
@pytest.mark.parametrize(
    "semiring, cost", [("boolean", "b"), ("supinf", "r"), ("tropical", "t")]
)
def test_monitor_ignores_a_branch_that_never_accepts(
    capsys, tmp_path, spec_path, signal, semiring, cost
):
    """States at l3 are fired but never waited, which changes no byte."""
    dead = tmp_path / "dead-branch.tsa"
    dead.write_text(DEAD_BRANCH_SPEC)
    sig = sig_path(tmp_path, signal)
    outputs = [
        run(capsys, "monitor", "--spec", spec, "--semiring", semiring, "--cost", cost,
            "--signal", sig)
        for spec in (spec_path, str(dead))
    ]
    assert outputs[0][0] == 0 and outputs[0][1]
    assert outputs[1] == outputs[0]


def test_monitor_prints_no_zero_length_rows(capsys, tmp_path):
    spec_file = tmp_path / "accepting-initial.tsa"
    spec_file.write_text(ACCEPTING_INITIAL_SPEC)
    code, out, err = run(
        capsys, "monitor", "--spec", str(spec_file), "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, ACCEPTING_INITIAL_SIGNAL),
    )
    assert (code, out, err) == (0, EXPECTED_MONITOR_ACCEPTING_INITIAL, "")


def test_grid_fractional_spacing_exact(capsys, tmp_path, spec_path):
    # windows over q = 3 meet rows at time scales 3 to 12
    code, out, err = run(
        capsys, "grid", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
        "--signal", sig_path(tmp_path, FRACTIONAL_SIGNAL), "--grid", "2/3",
    )
    assert (code, out, err) == (0, EXPECTED_GRID_FRACTIONAL, "")


def test_monitor_from_stdin(capsys, monkeypatch, spec_path):
    monkeypatch.setattr("sys.stdin", io.StringIO(TWO_STEP_SIGNAL))
    code, out, _ = run(
        capsys, "monitor", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
    )
    assert code == 0
    assert any(l.endswith(" : 7") for l in out.splitlines())


def test_monitor_reports_bad_row_after_output(capsys, tmp_path, spec_path):
    text = "x\n7.5 10\n10 40\nno good\n"
    code, out, err = run(
        capsys, "monitor", "--spec", spec_path, "--semiring", "supinf",
        "--cost", "r", "--signal", sig_path(tmp_path, text),
    )
    assert code == 1
    assert "line 4" in err
    assert len(out.splitlines()) > 3  # rows from the first two segments made it out


def test_usage_exit_codes(capsys, spec_path):
    with pytest.raises(SystemExit) as e:
        cli.main(["tracevalue"])
    assert e.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        cli.main(
            ["tracevalue", "--spec", spec_path, "--semiring", "galois", "--cost", "r"]
        )
    assert e.value.code == 64
    capsys.readouterr()


def test_reruns_are_byte_identical(capsys, tmp_path, spec_path):
    sig = sig_path(tmp_path, LONG_SIGNAL)
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "monitor", "--spec", spec_path, "--semiring", "supinf",
            "--cost", "r", "--signal", sig,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_commands_in_one_process_are_byte_identical(capsys, tmp_path, spec_path):
    """The process builds its parser once; a usage error, then `grid`,
    then `query`, run twice in one process, give the same bytes on
    stdout and stderr and the same exit codes each time."""
    sig = sig_path(tmp_path, LONG_SIGNAL)
    common = ["--spec", spec_path, "--semiring", "supinf", "--cost", "r", "--signal", sig]
    rounds = []
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            cli.main(["grid", *common])  # no --grid
        results = [(e.value.code, *capsys.readouterr())]
        results.append(run(capsys, "grid", *common, "--grid", "10"))
        results.append(run(capsys, "query", *common, "--query", "3", "15"))
        rounds.append(results)
    assert [r[0] for r in rounds[0]] == [64, 0, 0]
    assert "--grid" in rounds[0][0][2]
    assert rounds[0][1][1] == EXPECTED_GRID
    assert rounds[0] == rounds[1]
    assert cli._parser() is cli._parser()


# one command line per subcommand, with the expected stdout on FRACTIONAL_SIGNAL
COMMANDS = {
    "tracevalue": ([], "-2\n"),
    "monitor": ([], EXPECTED_MONITOR_FRACTIONAL),
    "query": (["--query", "1/3", "35/12"], "-2\n"),
    "grid": (["--grid", "2/3"], EXPECTED_GRID_FRACTIONAL),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("command", COMMANDS)
def test_file_and_stdin_read_alike(capsys, monkeypatch, tmp_path, spec_path, command, newline):
    """The signal as `--signal FILE` and on stdin, as the interpreter
    wraps it, gives the same bytes for every command and line end."""
    data = ("# comment\n\n" + FRACTIONAL_SIGNAL).replace("\n", newline).encode()
    sig = tmp_path / "sig.txt"
    sig.write_bytes(data)
    extra, expected = COMMANDS[command]
    base = [command, "--spec", spec_path, "--semiring", "supinf", "--cost", "r", *extra]
    from_file = run(capsys, *base, "--signal", str(sig))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    from_stdin = run(capsys, *base)
    assert from_file == from_stdin == (0, expected, "")


@pytest.mark.parametrize("command", COMMANDS)
def test_undecodable_signal_file_is_unreadable(capsys, tmp_path, spec_path, command):
    sig = tmp_path / "sig.txt"
    sig.write_bytes(b"x\n1 \xff\n")
    extra, _ = COMMANDS[command]
    code, out, err = run(
        capsys, command, "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
        *extra, "--signal", str(sig),
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"quantimatch: cannot read {sig}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", COMMANDS)
def test_undecodable_spec_is_unreadable(capsys, tmp_path, command):
    spec = tmp_path / "bad.tsa"
    spec.write_bytes(OVERSHOOT_SPEC.encode() + b"# \xff\n")
    extra, _ = COMMANDS[command]
    code, out, err = run(
        capsys, command, "--spec", str(spec), "--semiring", "supinf", "--cost", "r",
        *extra, "--signal", sig_path(tmp_path, FRACTIONAL_SIGNAL),
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"quantimatch: cannot read {spec}: ") and err.count("\n") == 1
    assert "Traceback" not in err


class FullDisk(io.StringIO):
    """A stdout on a full disk: every write fails with ENOSPC.  Its file
    descriptor is `fd`, which the CLI then points at /dev/null."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def fileno(self):
        return self._fd


class ClosedPipe(FullDisk):
    """A stdout whose reader went away: every write fails with EPIPE."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


NO_SPACE = "quantimatch: cannot write stdout: [Errno 28] No space left on device\n"


def test_a_failed_write_is_not_unreadable_input(monkeypatch, capsys, tmp_path, spec_path):
    """Only a failed open or read of the signal is reported as
    unreadable input; a failed write of stdout is reported as such."""
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr("sys.stdout", FullDisk(fh.fileno()))
        code = cli.main(["monitor", "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
                         "--signal", sig_path(tmp_path, LONG_SIGNAL)])
    assert (code, capsys.readouterr().err) == (1, NO_SPACE)


@pytest.mark.parametrize("command", ["monitor", "tracevalue", "grid"])
def test_a_failed_write_of_stdout_is_one_named_error(monkeypatch, capsys, tmp_path, spec_path,
                                                     command):
    """A stdout whose writes fail ends the command with exit 1 and one
    line on stderr, not a traceback; stdout's descriptor is then
    /dev/null, so the interpreter's final flush stays quiet."""
    extra, _ = COMMANDS[command]
    target = tmp_path / "stdout"
    with open(target, "wb") as fh:
        monkeypatch.setattr("sys.stdout", FullDisk(fh.fileno()))
        code = cli.main([command, "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
                         *extra, "--signal", sig_path(tmp_path, FRACTIONAL_SIGNAL)])
        os.write(fh.fileno(), b"dropped")
    err = capsys.readouterr().err
    assert (code, err) == (1, NO_SPACE)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert target.read_bytes() == b""


@pytest.mark.parametrize("command", ["monitor", "tracevalue", "grid"])
def test_a_closed_pipe_ends_the_command_quietly(monkeypatch, capsys, tmp_path, spec_path,
                                                command):
    """A stdout whose reader went away (as when piped into `head`) ends
    the command with exit 0 and nothing on stderr; stdout's descriptor
    is then /dev/null, so the interpreter's final flush stays quiet."""
    extra, _ = COMMANDS[command]
    target = tmp_path / "stdout"
    with open(target, "wb") as fh:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
        code = cli.main([command, "--spec", spec_path, "--semiring", "supinf", "--cost", "r",
                         *extra, "--signal", sig_path(tmp_path, FRACTIONAL_SIGNAL)])
        os.write(fh.fileno(), b"dropped")
    assert (code, capsys.readouterr().err) == (0, "")
    assert target.read_bytes() == b""
