"""Scale timings to a fixed machine speed with a calibration kernel.

Shared hosts change speed by tens of percent within seconds (measured on a
shared 2-vCPU Xeon VM with a 300 MiB LLC: the same check took 0.16 s or
0.27 s depending on when it ran, and wall and CPU time moved together).  So every timed sample is
followed by a short kernel that does not touch shiftchaos, and a sample of
`t` seconds whose neighbouring kernels took `k` seconds is reported as
`t * NOMINAL_S[kind] / k`: the time it would take on a machine where the
kernel takes NOMINAL_S.  A change in shiftchaos moves `t` but not `k`.

The swings slow interpreted Python far more than numpy sweeps over large
arrays, so there are two kernels: "python" (bisect and run objects like the
run walks) for set-up, catalog, deep-horizon and cli-cold, and "numpy" (a
sweep like the dense tables) for dense-sweep.  Raw wall times are kept next to the
scaled ones in the result files.
"""

from __future__ import annotations

import bisect
import gc
import math
import time
from dataclasses import dataclass

# about each kernel's time on that VM when its host is quiet
NOMINAL_S = {"python": 0.014, "numpy": 0.034}


@dataclass(frozen=True)
class _Item:
    start: int
    stop: int
    value: float


def _python_kernel() -> None:
    """Run-walk-like: bisect into block bounds, build and merge frozen runs,
    sum counts times logs, plus small numpy calls."""
    import numpy as np
    bounds = list(range(0, 200_000, 7))
    runs: list[_Item] = []
    for i in range(6_000):
        b = bisect.bisect_right(bounds, i * 31)
        item = _Item(i, i + b % 5, float(b))
        if runs and runs[-1].value == item.value:
            runs[-1] = _Item(runs[-1].start, item.stop, item.value)
        else:
            runs.append(item)
    sum((r.stop - r.start + 1) * math.log(r.value + 1.0) for r in runs)
    col = np.arange(20_000, dtype=np.float64)
    for _ in range(40):
        np.cumsum(np.log1p(col))


def _numpy_kernel() -> None:
    import numpy as np
    col = np.log1p(np.arange(4_000_000, dtype=np.float64))
    np.cumsum(col, out=col)
    int(np.count_nonzero(col > 5.0))


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def kernel_seconds(kind: str) -> float:
    gc.disable()  # a collection would time the caller's heap, not the machine
    t0 = time.perf_counter()
    _KERNELS[kind]()
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


class Calibrator:
    """Runs the kernel after each sample; scales the sample by the faster of
    the kernels on either side of it (kernel outliers are slow ones)."""

    def __init__(self, kind: str = "python"):
        self.kind = kind
        self._before = kernel_seconds(kind)

    def factor(self) -> float:
        """NOMINAL_S over the kernel time around the sample just taken."""
        after = kernel_seconds(self.kind)
        kernel = min(self._before, after)
        self._before = after
        return NOMINAL_S[self.kind] / kernel

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()
