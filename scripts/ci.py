"""Offline CI driver: staged gates with per-stage timing and a status table.

Runs the repository's quality gates in order, fail-fast::

    lint               tree hygiene (no tracked bytecode/cache junk), then
                       static analysis (per-file R001-R008, R015 and R016
                       plus whole-program R009-R014) against the baseline,
                       through the incremental cache (missing/corrupt
                       cache = cold run);
                       its wall time lands in the status table like every
                       stage's
    tier1              fast pytest suite (slow-marked modules skipped)
    experiments-smoke  resilience smoke sweep over the experiment harnesses
    chaos              strict no-baseline lint of the resilience/obs
                       subsystems (every rule but R014, like every strict
                       slice below), then the process-backend sweep under
                       crashes/hangs/driver kill
    stream-chaos       the streaming auditor's crash/hang/torn-tail drills:
                       every scenario must recover to a byte-identical
                       replay with no orphaned segments
    data-verify        the sharded dataset plane's gates: strict
                       no-baseline lint of the store package, the
                       data-chaos drills (bit flips, torn materialize,
                       lease pinning), then the hypothesis
                       property suite proving sharded == in-memory byte
                       for byte
    serve-chaos        the audit gateway's process-level drills: strict
                       no-baseline lint of the serve package, then
                       SIGKILL mid-ingest and mid-fetch, a remedy crash,
                       and a SIGTERM drain —
                       every drill must converge to a byte-identical
                       replay with zero acked-but-lost batches
    examples           every script in examples/ end to end
    bench-regression   scripts/bench.py --check: every benchmark workload
                       (ibs, pool, stream, data, serve) at CI sizes, gated
                       against its committed BENCH_*.json baseline
    bench-smoke        every perfbench workload at tiny sizes, untraced and
                       traced: exit 0, correct, the declared metrics, no
                       process left behind

Each stage runs as a subprocess with ``PYTHONPATH=src`` and is timed through
a :mod:`repro.obs` span; the run ends with a per-stage status table and a
non-zero exit as soon as any stage fails (later stages are reported as
``skipped``).  Everything is offline — no network, no package installs.

Usage::

    make ci                 # or: PYTHONPATH=src python scripts/ci.py
    python scripts/ci.py --stages lint,tier1
    python scripts/ci.py --trace ci-trace.jsonl
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import RULE_IDS  # noqa: E402
from repro.experiments.reporting import format_table  # noqa: E402
from repro.obs import Tracer, tracing  # noqa: E402

PYTHON = sys.executable

#: The rule list of every strict (no-baseline) subsystem lint: every rule
#: but R014, whose dead-export verdict needs the consumers outside the
#: slice.  ``STRICT_RULES`` in the Makefile mirrors it.
STRICT_RULES = ",".join(rule for rule in RULE_IDS if rule != "R014")


def stage_commands() -> list[tuple[str, list[list[str]]]]:
    """The ordered CI stages; each is (name, list of argv to run in order)."""
    return [
        (
            "lint",
            [
                [PYTHON, "scripts/check_tree.py"],
                [PYTHON, "-m", "repro.analysis", "src/repro",
                 "--baseline", "analysis-baseline.json",
                 "--cache", ".analysis-cache.json", "--stats"],
            ],
        ),
        (
            "tier1",
            [[PYTHON, "-m", "pytest", "-x", "-q", "-m", "not slow", "tests/"]],
        ),
        (
            "experiments-smoke",
            [[PYTHON, "-m", "repro.resilience.smoke"]],
        ),
        (
            "chaos",
            [
                # Strict lint first: new resilience/obs code must be clean
                # outright — no baseline, inline suppressions only.
                [PYTHON, "-m", "repro.analysis",
                 "src/repro/resilience", "src/repro/obs",
                 "--rules", STRICT_RULES],
                [PYTHON, "-m", "repro.resilience.chaos"],
            ],
        ),
        (
            "stream-chaos",
            [[PYTHON, "-m", "repro.stream.chaos"]],
        ),
        (
            "data-verify",
            [
                # Strict lint first: the store package must be clean
                # outright.
                [PYTHON, "-m", "repro.analysis", "src/repro/data/store",
                 "--rules", STRICT_RULES],
                # Bit flips, truncation, SIGKILLed materialize, lease
                # pinning — the registry's loud-and-atomic contracts.
                [PYTHON, "-m", "repro.data.chaos"],
                # The equivalence proof: sharded region_counts and full
                # IBS reports byte-identical to the in-memory Dataset
                # across random schemas, shard sizes, and delta sequences.
                [PYTHON, "-m", "pytest", "-q", "tests/test_properties_store.py"],
            ],
        ),
        (
            "serve-chaos",
            [
                # Strict lint first: the serving front must be clean
                # outright.
                [PYTHON, "-m", "repro.analysis", "src/repro/serve",
                 "--rules", STRICT_RULES],
                # SIGKILL mid-ingest and mid-fetch, a remedy crash, and a
                # SIGTERM drain — restart + client retry must converge to
                # a byte-identical replay with zero acked-but-lost batches
                # and no .tmp-* orphans.
                [PYTHON, "-m", "repro.serve.chaos"],
            ],
        ),
        (
            "examples",
            [[PYTHON, str(path)] for path in sorted(
                (REPO_ROOT / "examples").glob("*.py")
            )],
        ),
        (
            "bench-regression",
            [[PYTHON, "scripts/bench.py", "--check"]],
        ),
        (
            "bench-smoke",
            [[PYTHON, "perfbench/smoke.py"]],
        ),
    ]


def run_stage(name: str, commands: list[list[str]], env: dict[str, str]) -> bool:
    """Run one stage's commands in order; False on the first failure."""
    for argv in commands:
        print(f"[ci:{name}] $ {' '.join(argv)}", flush=True)
        proc = subprocess.run(argv, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            print(f"[ci:{name}] FAILED (exit {proc.returncode})", flush=True)
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    """Run the staged gates; exit 0 only when every requested stage passes."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--stages", default=None,
        help="comma-separated subset of stages to run (default: all)",
    )
    parser.add_argument(
        "--trace", default=None,
        help="also write the per-stage span trace to this JSONL path",
    )
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    stages = stage_commands()
    if args.stages:
        wanted = [s.strip() for s in args.stages.split(",") if s.strip()]
        known = {name for name, _ in stages}
        unknown = [s for s in wanted if s not in known]
        if unknown:
            print(f"error: unknown stage(s) {unknown}; known: {sorted(known)}",
                  file=sys.stderr)
            return 2
        stages = [(name, cmds) for name, cmds in stages if name in wanted]

    tracer = Tracer()
    rows: list[tuple[str, str, str]] = []
    failed = False
    with tracing(tracer):
        for name, commands in stages:
            if failed:
                rows.append((name, "skipped", "-"))
                continue
            with tracer.span(f"ci.{name}") as stage_span:
                ok = run_stage(name, commands, env)
                stage_span.annotate(status="ok" if ok else "failed")
            wall = tracer.spans[-1].wall
            rows.append((name, "ok" if ok else "FAILED", f"{wall:.1f}"))
            if not ok:
                failed = True

    print()
    print(format_table(("stage", "status", "seconds"), rows, title="CI"))
    if args.trace:
        tracer.write(Path(args.trace))
        print(f"trace written to {args.trace}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
