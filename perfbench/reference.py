"""A fixed reference computation that gauges how fast the host core runs right now.

On a shared host the same code runs up to 1.8x slower or faster from one
second, or one minute, to the next. The benchmark runs this kernel on a timer
signal, `SHARE` of the time, and rescales each instance's wall
time by the kernel's mean time in a window around the instance, so that
timings read as seconds on a core that runs the kernel in `REFERENCE_UNIT_S`.

The kernel does what colonlab's hot loops do, in code of its own that no
change to colonlab can alter: a product of sparse polynomials held as
(exponent tuple, coefficient) terms and reduced mod 32003 through a dict,
merges of sorted term lists, elimination on dense rows mod 32003 as in the
oracle, integer arithmetic in a plain loop, and some `Fraction` arithmetic as
on the Q workload.
"""

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

P = 32003
REFERENCE_UNIT_S = 0.002  # the nominal core runs unit() in 2 ms
SHARE = 0.03  # the kernel gets this share of a run's time
HALF_WINDOW_S = 0.5  # samples this close to an instance gauge its speed


def _form(rng, degree):
    return tuple(
        sorted(
            (((a, b, degree - a - b), rng.randrange(1, P)) for a in range(degree + 1) for b in range(degree + 1 - a)),
            reverse=True,
        )
    )


_RNG = random.Random(20240101)
_A = _form(_RNG, 6)
_B = _form(_RNG, 6)
_BASE = _form(_RNG, 10)
_SHIFTS = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0))
_MATRIX = tuple(tuple(_RNG.randrange(P) for _ in range(12)) for _ in range(12))


def _merge_add(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, ca = a[i]
        kb, cb = b[j]
        if ka > kb:
            out.append(a[i])
            i += 1
        elif ka < kb:
            out.append(b[j])
            j += 1
        else:
            c = (ca + cb) % P
            if c:
                out.append((ka, c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def _row_reduce(matrix):
    """Rank of a dense matrix mod P by elimination on row lists."""
    rows = [list(r) for r in matrix]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, P)
        top = rows[rank] = [x * inv % P for x in rows[rank]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != rank and f:
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def unit():
    """One fixed piece of work; returns its result so nothing is optimised away."""
    acc = {}
    for ea, ca in _A:
        for eb, cb in _B:
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            acc[e] = (acc.get(e, 0) + ca * cb) % P
    total = list(_BASE)
    for n, shift in enumerate(_SHIFTS):
        term = [(tuple(x + y for x, y in zip(k, shift)), c * (n + 2) % P) for k, c in _BASE]
        total = _merge_add(total, term)
    s = 0
    for i in range(14000):
        s += i * i % 7
    f = Fraction(0)
    for k, c in total[:16]:
        f += Fraction(c, k[0] + 1)
    return len(acc), len(total), s, f, _row_reduce(_MATRIX)


def timed_unit():
    """Seconds of one unit, with the cyclic garbage collector off so that the
    program's heap cannot add a collection to it (the kernel makes no cycles)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        unit()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Kernel samples, and the speed they imply.

    As a context manager it samples on a timer signal, `SHARE` of the time,
    also while an instance runs; `kernel_s` tells how much of an interval the
    samples took, to be taken off the instance's time.
    """

    def __init__(self):
        self.at = []  # perf_counter() when each sample started
        self.unit_s = []  # its duration
        self.spent = []  # the whole time the sample took, timer handling included
        unit()  # warm up

    def _sample(self, *_):
        t = time.perf_counter()
        self.unit_s.append(timed_unit())
        self.at.append(t)
        self.spent.append(time.perf_counter() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        every = REFERENCE_UNIT_S / SHARE
        signal.setitimer(signal.ITIMER_REAL, every, every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self, start, end):
        """Seconds the samples that started between `start` and `end` took."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        return sum(self.spent[lo:hi])

    def sample_for(self, seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample()

    def to_reference(self, wall_s, start, end):
        """`wall_s`, measured between `start` and `end`, at the reference core speed.

        The speed is the mean kernel time over the samples within
        `HALF_WINDOW_S` of the interval, leaving out samples above three times
        their median (a preempted sample, not a slow core).
        """
        lo = bisect.bisect_left(self.at, start - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + HALF_WINDOW_S)
        window = self.unit_s[lo:hi]
        cap = 3.0 * statistics.median(window)
        return wall_s * REFERENCE_UNIT_S / statistics.fmean(u for u in window if u <= cap)
