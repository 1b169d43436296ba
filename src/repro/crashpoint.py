"""Named crash points: one environment variable kills one process at one site.

Every durability window the recovery contract covers calls
``crashpoint(site, key)`` at the exact spot a crash must be survivable.
Disarmed, a call is a single ``os.environ.get``.  Armed with a plan::

    REPRO_CRASHPOINT='{"site": "stream.journalled", "key": "b0020", "mode": "sigkill"}'

the call whose ``site`` and ``key`` match runs :func:`fire`: ``exit``
leaves via ``os._exit(CRASH_EXIT_CODE)``, ``sigkill`` SIGKILLs the
process, and ``hang`` sleeps ``seconds`` so an outside killer can land
deterministically.  The drill suites (``python -m repro.*.chaos``) arm
one plan per subprocess and assert the restart recovers byte for byte.

The process pool's ``CrashFault`` / ``HangFault`` descriptors use the same
``{mode, seconds}`` shape and the same :func:`fire`.

This module is a leaf (stdlib + :mod:`repro.errors`) so that any layer,
including the store that :mod:`repro.resilience` itself imports, can host
a site without an import cycle.
"""

from __future__ import annotations

import json
import os
import signal
import time
from typing import Mapping

from repro.errors import ResilienceError

#: The one environment variable that arms a crash point.
CRASHPOINT_ENV = "REPRO_CRASHPOINT"

CRASH_EXIT = "exit"
CRASH_SIGKILL = "sigkill"
HANG = "hang"
MODES = (CRASH_EXIT, CRASH_SIGKILL, HANG)

#: Exit status of ``mode="exit"`` so drills can tell it from a real failure.
CRASH_EXIT_CODE = 23


def fire(action: Mapping[str, object]) -> None:
    """Run one ``{mode, seconds}`` action against the current process.

    ``exit`` and ``sigkill`` never return; ``hang`` returns after sleeping.
    """
    mode = action["mode"]
    if mode == CRASH_SIGKILL:
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == HANG:
        time.sleep(float(action["seconds"]))
        return
    os._exit(CRASH_EXIT_CODE)


def _parse_plan(spec: str) -> dict:
    try:
        plan = json.loads(spec)
    except ValueError as exc:
        raise ResilienceError(
            f"{CRASHPOINT_ENV} is not JSON ({exc}): {spec!r}"
        ) from exc
    if not isinstance(plan, dict):
        raise ResilienceError(f"{CRASHPOINT_ENV} must be a JSON object: {spec!r}")
    required = ("site", "key", "mode")
    if plan.get("mode") == HANG:
        required += ("seconds",)
    missing = [name for name in required if name not in plan]
    if missing:
        raise ResilienceError(f"{CRASHPOINT_ENV} plan lacks {missing}: {spec!r}")
    if plan["mode"] not in MODES:
        raise ResilienceError(
            f"{CRASHPOINT_ENV} mode must be one of {MODES}, got {plan['mode']!r}"
        )
    return plan


def crashpoint(site: str, key: str | int) -> None:
    """Fire the armed plan if it names this ``site`` and ``key``.

    The variable is read on every call, never cached, so one process can
    be armed by its environment alone.  A malformed plan raises
    :class:`~repro.errors.ResilienceError` naming the variable.
    """
    spec = os.environ.get(CRASHPOINT_ENV)
    if not spec:
        return
    plan = _parse_plan(spec)
    if plan["site"] == site and str(plan["key"]) == str(key):
        fire(plan)
