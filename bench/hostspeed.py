"""Host speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed swings with
other tenants' load, by up to about 1.6x and for seconds to minutes at a
time: a fixed pure-Python loop then takes anywhere from 0.22 to 0.34 ms.
The same swing moves every wall time the benchmark takes, so that two runs
of the same code a minute apart can differ by more than any bound worth
keeping.  Timings are therefore reported at a fixed reference speed: a
timed span is scaled by ``REFERENCE_NS`` over the mean time of the
calibration loop run right before and right after it.

The loop imports nothing and calls nothing of the program, so a change to
the program cannot move it; it allocates, hashes, calls and sorts, as the
program's own interpreter-bound work does.
"""

from time import perf_counter_ns

# The loop's time at this host's usual speed (2 vCPUs, CPython 3.11), so
# that scaled timings read close to the wall times seen there.
REFERENCE_NS = 300_000


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def loop_ns() -> int:
    """Wall time of one run of the fixed calibration loop."""
    t0 = perf_counter_ns()
    table = {}
    x = 1
    for i in range(1, 400):
        x = (x * 1103515245 + 12345) % 2147483648
        cell = table.get(x % 97)
        if cell is None:
            table[x % 97] = _Cell(str(x % 97), [i])
        else:
            cell.value.append(i)
    sorted(table.values(), key=lambda c: (len(c.value), c.key))
    return perf_counter_ns() - t0


def scale(wall_ns: int, before_ns: int, after_ns: int) -> float:
    """``wall_ns`` at the reference speed, given the calibration loop's
    times right before and right after the span."""
    return wall_ns * 2 * REFERENCE_NS / (before_ns + after_ns)
