"""Shared machinery of the benchmark: layer timers, percentiles, outcomes.

Nothing here imports :mod:`repro`; the workload modules do.  Importing this
module starts no thread or process, so spawn children may import it.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

#: Set-up is repeated this many times per run and its median reported, so
#: one slow spawn or cold page cache does not set the figure.
SETUP_REPEATS = 3


class Layers:
    """Per-layer call counts and seconds, timed around public entry points.

    A call is timed inclusive of everything it calls.  A timed call made
    while another timed call is open on the same thread is also charged to
    that parent as child time, so every layer carries a *self* time and the
    self times of one thread never add up to more than its wall time; the
    rest of the wall time is the unattributed remainder.
    """

    def __init__(self) -> None:
        self.records: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self.add(name, elapsed, self_seconds=elapsed - children[0])

    def add(
        self,
        name: str,
        seconds: float,
        calls: int = 1,
        self_seconds: float | None = None,
    ) -> None:
        """Record time measured elsewhere (e.g. seconds a worker cell reports)."""
        with self._lock:
            rec = self.records.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += seconds
            rec[2] += seconds if self_seconds is None else self_seconds

    def patch(
        self, owner: object, attr: str, name: str | Callable[[], str]
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper until :meth:`unpatch`.

        ``owner`` is a module (patch the name a caller imported, e.g.
        ``repro.serve.gateway.deltas_from_records``) or a class (patch a
        method for every instance).  ``name`` may be a callable, read at
        each call, when one entry point serves several layers in turn.
        """
        original = getattr(owner, attr)
        layers = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with layers.span(name if isinstance(name, str) else name()):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return int(self.records.get(name, (0, 0.0, 0.0))[0])

    def seconds(self, name: str) -> float:
        return float(self.records.get(name, (0, 0.0, 0.0))[1])

    def self_seconds(self) -> float:
        return sum(rec[2] for rec in self.records.values())

    def merge(self, records: dict[str, list[float]]) -> None:
        """Fold in a table recorded by another process."""
        for name, (calls, total, own) in records.items():
            self.add(name, total, calls=int(calls), self_seconds=own)


class NullLayers(Layers):
    """The untraced stand-in: spans cost one call, nothing is patched."""

    def span(self, name: str):  # type: ignore[override]
        return nullcontext()

    def patch(self, owner: object, attr: str, name) -> None:
        pass


def percentile(samples: list[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if len(samples) * (1.0 - q / 100.0) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    """Peak resident set of this process or any child it has reaped, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def repeated_setup(
    setup: Callable[[], object], teardown: Callable[[object], None]
) -> tuple[float, object]:
    """Run ``setup`` :data:`SETUP_REPEATS` times; keep the last result.

    Returns ``(median seconds, state)``.  Earlier states are torn down
    before the next set-up starts, so the repeats do not compete.
    """
    times: list[float] = []
    state = None
    for i in range(SETUP_REPEATS):
        if i:
            teardown(state)
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times), state


#: The reference time of one probe unit, in seconds: figures "at the
#: nominal speed" are scaled to a machine on which the unit takes this
#: long.  The 2-vCPU, 2.1 GHz Xeon VM the benchmark was tuned on took
#: 3.4 to 5 ms, as a mean over a 15-second window.
PROBE_NOMINAL_S = 0.004
PROBE_STOP_TIMEOUT_S = 30.0


class SpeedProbe:
    """How fast the machine ran during a window, from a concurrent probe.

    The host this benchmark was tuned on runs each vCPU at one of two
    speeds about 1.6x apart, switching within a second, and the share of
    time at the slow speed drifts over minutes, per vCPU, with the host's
    other load; a run's timings move with that share.  ``probe.py`` runs
    beside the workload, on the same CPUs (it inherits the affinity), and
    times a fixed pure-Python unit every 50 ms, which samples the same
    share.  :attr:`factor` is the nominal unit time over the mean
    measured one (below 1 on a slowed machine): multiplying a time by it,
    or dividing a rate by it, gives the figure at the nominal speed.

    The probe is a process of its own; leaving the ``with`` block always
    stops it and waits for it, whatever happened inside.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        proc = self._proc
        try:
            out, _ = proc.communicate(timeout=PROBE_STOP_TIMEOUT_S)  # closes stdin
            if proc.returncode == 0:
                self.samples = json.loads(out)[1:]  # the first unit runs cold
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    @property
    def mean_s(self) -> float:
        if not self.samples:
            raise RuntimeError("the speed probe returned no samples")
        return statistics.fmean(self.samples)

    @property
    def factor(self) -> float:
        return PROBE_NOMINAL_S / self.mean_s


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Spawning a worker or creating a shared-memory segment starts the
    tracker as a helper process that nobody waits for: it only ends once
    this process exits, and is then left unreaped.  Closing its pipe and
    reaping it here means the benchmark leaves no process behind.  Call it
    after every worker is joined and every segment released.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def keep_going(started: float, seconds: float, last_op: float) -> bool:
    """Whether to start another operation in a ``seconds``-long window.

    Stops once the window is within half an operation of its end, so a run
    of long operations overshoots the window by at most half of one.
    """
    return time.perf_counter() - started + last_op / 2.0 < seconds


@dataclass
class Outcome:
    """What one measuring window of a workload hands back to :mod:`run`."""

    #: Wall seconds of each timed operation (pass, sweep, batch or ack).
    op_seconds: list[float]
    #: Work units done in the window and the busy seconds they took.
    work_units: float
    work_seconds: float
    #: Wall seconds of the whole measuring window.
    window_s: float
    attempted: int
    failed: int
    #: The workload's own name and unit for its operation time.
    op_name: str
    op_unit: str
    #: Further workload metrics for the human report: (name, value, unit, note).
    extras: list[tuple[str, float, str, str]] = field(default_factory=list)
