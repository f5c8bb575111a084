"""A fixed reference job that the benchmark times next to every command.

It does what a `protouq` command does, without `protouq`: start an
interpreter, import NumPy, then argsort rows, stream over an array larger
than a core's caches, multiply matrices and run a Python loop, all on fixed
data.  The program under test never changes it, so the ratio of a command's
wall time to this job's wall time, taken moments apart, cancels most of the
host's changing speed.  It prints one checksum line.
"""

import numpy as np

rng = np.random.default_rng(20231017)
scores = rng.standard_normal((600, 1200))
large = rng.random((2000, 2000))
left = rng.standard_normal((400, 64))
right = rng.standard_normal((64, 800))
total = 0.0
for _ in range(2):
    total += float(np.argsort(scores, axis=1, kind="stable")[:, 0].sum())
    total += float(np.exp(-large).sum())
    total += float(np.abs(left @ right).sum())
for i in range(100_000):
    total += (i % 7) * 1e-9
print(f"{total:.6f}")
