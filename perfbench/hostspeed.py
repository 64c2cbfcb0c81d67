"""Host speed: a frozen copy of the program's own work, timed between ops.

On a shared host the speed of the CPU this benchmark gets changes by tens
of percent, in phases lasting seconds to minutes, and CPU time moves with
wall time. Two runs of the same code at different moments then differ by
more than any useful regression bound. To take that out, every timed op is
followed, outside its timing, by one run of a fixed *yardstick*: the same
kind of op on a small fixed input, run through `frozen/qstruct_frozen`, a
copy of the package as it was when the benchmark was defined. `roundtrip`
and `reject` get a `classify` at N = 10 (about 80 ms) and `verify` the
verify checks at N = 12 (about 0.2 s), both of continuous q-Jacobi at
t = 1/2; `cli` gets a child interpreter that imports the frozen CLI (about
0.1 s). The yardstick's duration measures the host's speed at that moment
for the kind of work the workload does: the same code, the same mix of
interpreter start, interpreter work and bignum arithmetic, so a slow phase
that hits the program hits the yardstick alike. A stand-alone Fraction
kernel, a smaller yardstick, or an in-process one for `cli`, followed the
program's swings less closely (see README.md).

A reported time is the measured time scaled to a fixed reference speed, the
speed at which the yardstick takes its nominal time:

    reported = measured * nominal / ref

where `ref` is the median yardstick time over the samples nearest the op.
On a host running at the reference speed, reported and measured times
agree. The frozen copy does not change with the program, so a change to the
program shows in full.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction as F
from statistics import median
from time import perf_counter

FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen")
sys.path.insert(0, FROZEN)

from qstruct_frozen import characterize, cli, families, scalar  # noqa: E402

# Samples on each side of an op that set its speed: close enough to follow
# phases of a second, enough for the median to ignore one preempted sample.
WINDOW = 2

_CTX = scalar.QContext(F(1, 2))
_SPEC = families.FamilySpec("continuous-q-jacobi", (("p_a", F(1, 3)), ("p_b", F(2, 5))), "q")
_TTRR = _SPEC.to_ttrr(_CTX, n_max=14)


def classify_yardstick() -> bool:
    """True when the frozen classify recovers the generating point."""
    r = characterize.classify(_CTX, _TTRR, 10)
    return r.family == _SPEC.family and r.params == dict(_SPEC.params)


def verify_yardstick() -> bool:
    """True when every frozen verify check passes."""
    return cli._verify_checks(_CTX, _TTRR, 12, "all").ok


def cli_yardstick() -> bool:
    """A child interpreter that imports the frozen CLI: the start-up and
    import work that dominates a `cli` op."""
    proc = subprocess.run(
        [sys.executable, "-c", "import qstruct_frozen.cli"],
        env=dict(os.environ, PYTHONPATH=FROZEN), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


# Per workload: the yardstick, and its nominal time: the median of its times
# over runs in slow and fast phases on the machine this benchmark was
# written on (2 cores of a shared x86-64 host, Python 3.11.7), so that there
# scaled and measured times agree in the median.
YARDSTICKS = {
    "roundtrip": (classify_yardstick, 0.080),
    "reject": (classify_yardstick, 0.080),
    "verify": (verify_yardstick, 0.190),
    "cli": (cli_yardstick, 0.105),
}


class HostSpeed:
    def __init__(self, workload: str):
        self.yardstick, self.nominal = YARDSTICKS[workload]
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = perf_counter()
        ok = self.yardstick()
        elapsed = perf_counter() - t0
        if not ok:
            raise RuntimeError("host-speed yardstick gave a wrong result")
        self.samples.append(elapsed)
        return elapsed

    def scale(self, samples: list[float]) -> float:
        """Factor that takes a time measured alongside `samples` to the
        reference speed."""
        return self.nominal / median(samples)

    def scales(self, first: int = 0) -> list[float]:
        """One factor per sample from index `first` on: sample i follows op i
        and its factor uses the samples within WINDOW of it."""
        s = self.samples[first:]
        return [self.scale(s[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(s))]
