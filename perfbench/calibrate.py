"""A fixed amount of pure-Python work that measures the host's current speed.

run.py runs this program before every command and divides the end-to-end
times by its trimmed-mean wall time (README.md, "Steadiness").  It imports
nothing from the repository, so no change to crossing_count moves it.  The
work resembles the CLI's: a walk DP over big integers, exact Fraction sums
and dictionary building, in a fresh interpreter.  It exits 1 if the result
is wrong.
"""

import math
import sys
from fractions import Fraction

WIDTH = 280

row = [1] + [0] * WIDTH
for _ in range(WIDTH):
    new = [0] * (WIDTH + 1)
    for j in range(WIDTH):
        new[j + 1] += row[j]
        new[j] += (j + 1) * row[j + 1]
    row = new
harmonic = sum(Fraction(1, i) for i in range(1, 1000))
digits = {j: str(x)[:8] for j, x in enumerate(row) if x}
# row[0] counts the perfect matchings of WIDTH points, (WIDTH - 1)!!
ok = row[0] == math.prod(range(1, WIDTH, 2)) and len(digits) == WIDTH // 2 + 1 and 7 < harmonic < 8
sys.exit(0 if ok else 1)
