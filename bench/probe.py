"""A fixed piece of work that measures how fast the host runs right now.

It starts an interpreter, imports numpy, parses CSV-like lines into a dict
and runs dense numpy arithmetic: the same kinds of work as a ``steve``
command, in fixed amounts.  ``run.py`` times it as a child process between
the commands and scales every end-to-end time by it.  It must not change:
any change to it changes every time metric of the benchmark.
"""

import numpy as np

counts: dict[str, int] = {}
for i in range(30_000):
    fields = f"2015/2016,NationalLeague,Club {i % 3780:04d},Club {i * 7 % 3780:04d},{i % 5},{i % 3}".split(",")
    counts[fields[2]] = counts.get(fields[2], 0) + int(fields[4])
assert sum(counts.values()) == sum(i % 5 for i in range(30_000))

rng = np.random.default_rng(0)
a = rng.standard_normal((300, 300))
for _ in range(10):
    a = np.tanh(a @ a.T / 300.0)
b = np.sort(rng.standard_normal(200_000))
assert np.isfinite(a).all() and b[0] <= b[-1]
