"""What the four chaos suites share: arm a crash point, kill, reap, report.

Each suite (``python -m repro.{resilience,stream,data,serve}.chaos``) is a
table of :class:`Scenario` rows run by :func:`run_suite`.  A scenario's
``run`` drives subprocesses through the helpers below and raises
:class:`~repro.errors.InternalError` when an oracle fails; ``site`` names
the crash point it arms (``None`` when it crashes nothing through one),
which is how the site-coverage test proves every
:func:`~repro.crashpoint.crashpoint` in the tree is drilled.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.crashpoint import CRASH_EXIT, CRASH_EXIT_CODE, CRASHPOINT_ENV
from repro.errors import InternalError

#: Ceiling on any one drill subprocess (a loaded 1-core box included).
DRILL_TIMEOUT = 120.0


@dataclass(frozen=True)
class Scenario:
    """One drill: ``run(ctx)`` raises on a broken oracle; ``ok`` is printed."""

    name: str
    run: Callable[[Any], None]
    site: str | None
    ok: str


def arm(site: str, key: str | int, mode: str, seconds: float | None = None) -> dict:
    """A crash-point plan for :func:`drill_env` (``seconds`` for ``hang``)."""
    armed = {"site": site, "key": key, "mode": mode}
    if seconds is not None:
        armed["seconds"] = seconds
    return armed


def drill_env(armed: dict | None = None) -> dict[str, str]:
    """This process's environment with ``armed`` set as the only plan."""
    env = dict(os.environ)
    env.pop(CRASHPOINT_ENV, None)
    if armed is not None:
        env[CRASHPOINT_ENV] = json.dumps(armed)
    return env


def exit_status(mode: str) -> int:
    """The return code a subprocess killed by crash mode ``mode`` reports."""
    return CRASH_EXIT_CODE if mode == CRASH_EXIT else -signal.SIGKILL


def run(
    cmd: Sequence[str],
    armed: dict | None = None,
    check: bool = True,
    timeout: float = DRILL_TIMEOUT,
) -> subprocess.CompletedProcess:
    """Run ``cmd`` to completion with ``armed`` (or no plan) in its env."""
    proc = subprocess.run(
        list(cmd), capture_output=True, env=drill_env(armed), timeout=timeout
    )
    if check and proc.returncode != 0:
        raise InternalError(
            f"command {list(cmd[3:])} failed (exit {proc.returncode}): "
            f"{proc.stderr.decode(errors='replace')}"
        )
    return proc


def kill_when(
    cmd: Sequence[str],
    ready: Callable[[], bool],
    armed: dict | None = None,
    timeout: float = DRILL_TIMEOUT,
) -> None:
    """Start ``cmd``, SIGKILL it once ``ready()`` holds, and reap it.

    Raises :class:`~repro.errors.InternalError` when the victim exits on
    its own or ``timeout`` passes first: the kill window was never
    entered.  The victim is killed and reaped on every way out, including
    an exception from ``ready`` (which propagates) or Ctrl-C.
    """
    victim = subprocess.Popen(
        list(cmd),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=drill_env(armed),
    )
    deadline = time.monotonic() + timeout
    try:
        while not ready():
            if victim.poll() is not None:
                raise InternalError(
                    f"victim {list(cmd[3:])} exited {victim.returncode} "
                    "before its kill window"
                )
            if time.monotonic() > deadline:
                raise InternalError(
                    f"victim {list(cmd[3:])} never reached its kill window "
                    f"in {timeout:.0f}s"
                )
            time.sleep(0.02)
    finally:
        victim.kill()
        victim.wait()


def run_suite(
    label: str,
    scenarios: Sequence[Scenario],
    setup: Callable[[Path], Any] | None = None,
) -> int:
    """Run ``scenarios`` in order in one temp dir; ``setup(tmp)`` is their ctx."""
    with tempfile.TemporaryDirectory(prefix=f"repro-{label}-") as tmpname:
        tmp = Path(tmpname)
        ctx = setup(tmp) if setup is not None else tmp
        for scenario in scenarios:
            scenario.run(ctx)
            print(f"{label} ok ({scenario.name}): {scenario.ok}", flush=True)
    return 0
