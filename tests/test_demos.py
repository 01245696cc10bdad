"""The walk demos run through the public API and print what they pin.

Demos 01 and 02 run in fresh interpreters on ``src``; demo 03 (several
seconds of Monte Carlo) and demo 04 (a seed study) are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# demo 01 prints exact rationals only, so its whole output is pinned
WALK_EXIT_TABLES = """\
n   P(exit up)      P(exit down)    P(still inside)
0   0               0               1
1   0               0               1
2   9/25            4/25            12/25
3   0               0               12/25
4   108/625         48/625          144/625
5   0               0               144/625
6   1296/15625      576/15625       1728/15625
7   0               0               1728/15625
8   15552/390625    6912/390625     20736/390625
9   0               0               20736/390625
10  186624/9765625  82944/9765625   248832/9765625
11  0               0               248832/9765625
12  2239488/244140625 995328/244140625 2985984/244140625

P(exit at +k) = 9/13
joint row == pmf * side split, exactly, at every step

E[exit step] at p=3/5, k=2: 50/13
E[exit step] at p=1/2, k=5: 25

dominance scan over p (5 points, index n)
  1/2 >= 3/5: dominates
  3/5 >= 7/10: dominates
  7/10 >= 4/5: dominates
  4/5 >= 9/10: dominates
violations: 0
"""

# demo 02's (n, reweighted, direct) columns: the survival of the p = 0.8
# walk at k = 3, to 12 decimals, from the p = 1/2 table and directly
REWEIGHTED_AND_DIRECT = [
    ("0", "1.000000000000", "1.000000000000"),
    ("5", "0.230400000000", "0.230400000000"),
    ("10", "0.053084160000", "0.053084160000"),
    ("20", "0.001352605461", "0.001352605461"),
    ("40", "0.000000878180", "0.000000878180"),
]


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_walk_exit_tables_demo_prints_the_exact_tables():
    assert run_demo("01_walk_exit_tables.py") == WALK_EXIT_TABLES


def test_reweighting_demo_prints_the_reweighted_and_direct_survival():
    lines = run_demo("02_reweighting_identities.py").splitlines()
    start = lines.index("n    reweighted        direct            |diff|      tail bound")
    rows = [tuple(line.split()[:3]) for line in lines[start + 1:start + 6]]
    assert rows == REWEIGHTED_AND_DIRECT
