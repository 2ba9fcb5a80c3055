"""Machine-speed reference for scaling wall-clock times.

The benchmark runs on shared hosts, where the same op can take 1.7x longer
while a neighbour keeps the other hardware thread of the core busy, and such
a state lasts from seconds to minutes. So every run also times a fixed,
pure-Python reference loop between ops, at least every EVERY_S seconds. Each
op time is multiplied by REF_MS over the mean of the reference times taken
just before and just after it, which gives its duration at the reference
speed: the speed at which `reference_work` takes REF_MS. Raw wall-clock
values are kept in the result record next to the scaled ones.

At import this module loads only the built-in `gc` and `time`, so a fresh
interpreter can time the reference around `import mindstream.cli` without
loading anything the program imports itself.
"""

import gc
from time import perf_counter

# About reference_work's time on an uncontended Intel Xeon (Sapphire Rapids, KVM
# guest, 2 vCPUs) with CPython 3.11; fixed, so scaled times compare across runs.
REF_MS = 4.5
EVERY_S = 0.05


class _Cell:
    __slots__ = ("label", "value", "stamp")

    def __init__(self, label: str, value: float, stamp: int) -> None:
        self.label = label
        self.value = value
        self.stamp = stamp


def reference_work() -> float:
    """Fixed work of the program's kind: dicts of tuple keys, small objects,
    float updates, sorting, formatting and splitting text."""
    cells = {}
    for i in range(1500):
        key = (f"c{(i * 7919) % 600:04d}", f"c{(i * 104729) % 700:04d}")
        cell = cells.get(key)
        if cell is None:
            cells[key] = _Cell(key[0], 0.5, i)
        else:
            cell.value += 0.5 * (1.0 - cell.value)
            cell.stamp = i
    lines = [f"edge {a} {b} {c.value!r} {c.stamp}" for (a, b), c in sorted(cells.items())]
    return sum(float(line.split()[3]) for line in lines)


def time_reference() -> float:
    """One timed reference_work call in ms. Collection is held off meanwhile
    and the loop frees what it allocates, so the program's GC is unaffected."""
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return (perf_counter() - start) * 1e3
    finally:
        gc.enable()


class Speed:
    """Reference samples taken through a run, and the scale they imply."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (time, reference ms)
        self.spent_s = 0.0
        self._due = 0.0

    def sample(self) -> None:
        start = perf_counter()
        self.samples.append((start, time_reference()))
        end = perf_counter()
        self.spent_s += end - start
        self._due = end + EVERY_S

    def maybe_sample(self) -> None:
        if perf_counter() >= self._due:
            self.sample()

    def scale(self, t: float) -> float:
        """REF_MS / mean of the reference times just before and after time t."""
        import bisect

        i = bisect.bisect(self.samples, (t,))
        around = [ms for _, ms in self.samples[max(0, i - 1) : i + 1]]
        return REF_MS * len(around) / sum(around)

    def scale_between(self, start: float, end: float) -> float:
        """Time-average of the scale over [start, end]: samples are spaced
        evenly in time, so this is the mean of REF_MS / reference time."""
        inside = [REF_MS / ms for t, ms in self.samples if start <= t <= end]
        return sum(inside) / len(inside) if inside else self.scale(start)
