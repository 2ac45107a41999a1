"""Host-speed probe: a fixed piece of pure-Python work, timed next to
every job so that job times can be put on a common scale.

The host this benchmark was built on is a share of a busy machine whose
speed drifts by up to +-20% over minutes; CPU time drifts with wall time,
so it is the host's speed, not scheduling, that moves.  A job's time
divided by the probe's time just before it is far steadier than either
alone.  The probe is four small kernels of different kinds (the
reference's floor-sum drop test, a larger table of them, JSON and string
building, an integer loop); their geometric mean tracks the jobs better
than any one of them.  It uses only this directory's code, never
``kummerws``, so a faster program gives proportionally faster scaled
job times.

``NOMINAL_S`` is the probe's median time on the machine the bounds were
set on (2-core VM, Python 3.11); a scaled time is the job's time in ms
as it would read at that speed.
"""

from __future__ import annotations

import io
import json
import math
from time import perf_counter

from reference import Reference

NOMINAL_S = 0.002

_SMALL = (101, (3, 5, 7, 11, 13, 2, -41), 2)
_WIDE_LAMS = tuple(list(range(1, 21)) * 2)
_WIDE = (397, _WIDE_LAMS + (-sum(_WIDE_LAMS),), 2)
_ROWS = [{"alpha": [i, i * 3 % 17, -i], "kind": "absolute", "t": i % 97} for i in range(800)]


def _drop_tests():
    ref = Reference(*_SMALL)
    buf = io.StringIO()
    for a in range(30):
        for b in range(20):
            buf.write(f"{a},{b},{ref.verdict((a, b))}\n")
    return len(buf.getvalue())


def _wide_table():
    ref = Reference(*_WIDE)
    out = []
    for a in range(0, 300, 6):
        for b in range(0, 30):
            out.append((a, b, ref.verdict((a, b))))
    return len(out)


def _json_rows():
    rows = json.loads(json.dumps(_ROWS))
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(str(x) for x in row["alpha"]) + "\n")
    return len(buf.getvalue())


def _int_loop():
    return sum(i * i % 7 for i in range(15_000))


KERNELS = (_drop_tests, _wide_table, _json_rows, _int_loop)


def probe() -> float:
    """Seconds: geometric mean of the kernels' times."""
    logs = 0.0
    for kernel in KERNELS:
        t0 = perf_counter()
        kernel()
        logs += math.log(perf_counter() - t0)
    return math.exp(logs / len(KERNELS))
