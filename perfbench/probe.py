"""Machine-speed probe: times a fixed pure-Python unit while a workload runs.

Started by ``run.py`` as a child process for the measuring window, on the
CPUs the workload may use.  Every 50 ms it times one unit of fixed work
(3 to 6 ms on a 2.1 GHz Xeon vCPU, depending on the host's other load and
on whether it shares the CPU with the workload) and sleeps; when its
standard input closes it prints the unit times, in seconds, as one JSON
list and exits.
"""

from __future__ import annotations

import json
import select
import sys
import time

UNIT_ITERATIONS = 20_000
PERIOD_S = 0.05


def unit() -> int:
    counts: dict[int, int] = {}
    for i in range(UNIT_ITERATIONS):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return len(counts)


def main() -> int:
    samples: list[float] = []
    while True:
        start = time.perf_counter()
        unit()
        samples.append(time.perf_counter() - start)
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable:  # end of file: the window is over
            break
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
