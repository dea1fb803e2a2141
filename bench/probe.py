"""Machine-speed probe: a fixed piece of exact arithmetic that does not
use symalg.

    python3 bench/probe.py

run.py times this script in fresh interpreters, in batches between the
measured CLI processes, and scales every end-to-end time by how fast it
ran (see run.py).  The work is of the kind symalg does: elimination on
sparse integer rows kept in dicts, with gcd reduction, and sums of
Fractions.  Changing this file rescales every time the benchmark reports,
so it stays as it is.
"""

from fractions import Fraction
from math import gcd


def eliminate(count, width, modulus):
    """Rank of `count` fixed pseudo-random sparse integer rows."""
    rows = {}
    for i in range(1, count + 1):
        v = {(i * 7 + k * 13) % modulus: ((i + 3 * k) % 11) - 5 or 1
             for k in range(width)}
        while v:
            pivot = min(v)
            row = rows.get(pivot)
            if row is None:
                g = 0
                for x in v.values():
                    g = gcd(g, x)
                rows[pivot] = {k: x // g for k, x in v.items()}
                break
            a, b = row[pivot], v[pivot]
            out = {k: a * x for k, x in v.items()}
            for k, y in row.items():
                val = out.get(k, 0) - b * y
                if val:
                    out[k] = val
                else:
                    out.pop(k, None)
            g = 0
            for x in out.values():
                g = gcd(g, x)
            v = {k: x // g for k, x in out.items()} if g > 1 else out
    return len(rows)


def fraction_sum(count):
    acc = Fraction(0)
    for i in range(1, count + 1):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    return acc


if __name__ == "__main__":
    print(eliminate(100, 12, 40), fraction_sum(3000))
