"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_pipeline --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up (several times; the median is
``setup_s``), measures it untraced for ``--seconds`` seconds, checks its
outputs and prints the end-to-end metrics; a speed probe runs beside the
measuring window and the two timing metrics are scaled to its nominal
machine speed (see ``harness.SpeedProbe``).  ``--trace 1`` measures the
workload twice for half the window each, untraced and then traced, checks
the traced run's outputs and prints the per-layer table and metrics;
``bench.trace_overhead`` is the traced cost per work unit over the
untraced one.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}

The process exits 0 only when every output check passed.  ``--smoke``
runs the workloads at tiny sizes (see ``perfbench/smoke.py``).  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from harness import (  # noqa: E402  (needs the path set above)
    Layers,
    NullLayers,
    SpeedProbe,
    peak_rss_mib,
    percentile,
    repeated_setup,
    stop_resource_tracker,
)

WORKLOADS = {
    "paper_pipeline": "wl_pipeline",
    "fig9_sweep": "wl_sweep",
    "stream_adult": "wl_stream",
    "gateway_mixed": "wl_gateway",
}

#: Printed by ``--trace 0`` on every workload: (name, unit).
#: ``op_p50_ref_ms`` and ``work_per_ref_s`` are at the probe's nominal
#: machine speed (see :class:`harness.SpeedProbe`); the raw figures are
#: printed beside them.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ref_ms", "ms"),
    ("work_per_ref_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

#: Printed by ``--trace 1`` on every workload; 0 where the workload does
#: not reach the layer.  Seconds are per operation of the workload (pass,
#: sweep, batch or ack; per fetch for the fetch tier).
PER_LAYER = (
    ("ml.dt.fit_s", "s"),
    ("ml.lg.fit_s", "s"),
    ("ml.nn.fit_s", "s"),
    ("ml.predict_s", "s"),
    ("audit.fairness_index_s", "s"),
    ("core.hierarchy.build_s", "s"),
    ("core.ibs.identify_ibs_s", "s"),
    ("core.remedy.remedy_dataset_s", "s"),
    ("core.remedy.regions_remedied", "count"),
    ("resilience.executor.run_specs_s.counts", "s"),
    ("resilience.executor.run_specs_s.identify", "s"),
    ("resilience.executor.run_specs_s.remedy", "s"),
    ("resilience.cell_compute_s", "s"),
    ("resilience.pool_overhead_s", "s"),
    ("data.store.shard_region_counts_s", "s"),
    ("stream.engine.validate_batch_s", "s"),
    ("stream.journal.append_batch_s", "s"),
    ("stream.journal.bytes_per_delta", "B"),
    ("stream.engine.apply_batch_s", "s"),
    ("core.hierarchy.apply_count_delta_s", "s"),
    ("stream.monitor.observe_s", "s"),
    ("core.ibs.region_report_s", "s"),
    ("core.ibs.region_report_calls", "count"),
    ("stream.rescore_share", "ratio"),
    ("stream.deltas.deltas_from_records_s", "s"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.client.retries", "count"),
    ("serve.shed", "count"),
    ("data.store.read_manifest_s", "s"),
    ("data.store.read_manifest_calls", "count"),
    ("serve.client.fetch_dataset_s", "s"),
    ("data.store.file_sha256_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_share", "ratio"),
)


def _say(line: str = "") -> None:
    print(line, flush=True)


def _report_op(outcome) -> None:
    """The workload's own timing names, each with its sample count."""
    ops = outcome.op_seconds
    n = len(ops)
    if outcome.op_unit == "s":
        _say(f"  {outcome.op_name:24s} {statistics.median(ops):12.4f} s      median of n={n}")
    else:
        base = outcome.op_name.split("_p50")[0]
        for q in (50, 95, 99):
            value = percentile(ops, q)
            if value is not None:
                _say(f"  {f'{base}_p{q}_ms':24s} {value * 1000.0:12.4f} ms     n={n}")
        if percentile(ops, 50) is None:
            _say(f"  {outcome.op_name:24s} {'':12s} ms     n={n}: too few samples")
    for name, value, unit, note in outcome.extras:
        _say(f"  {name:24s} {value:12.4f} {unit:6s} {note}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    _say(
        f"  {'error_rate':24s} {rate:12.4f} ratio  "
        f"{outcome.failed} failed of {outcome.attempted} operations"
    )


def _report_checks(checks) -> bool:
    failed = [c for c in checks if not c[1]]
    for what, ok, detail in failed:
        _say(f"  CHECK FAILED: {what}: {detail}")
    _say(f"  checks: {len(checks) - len(failed)} of {len(checks)} passed")
    return bool(checks) and not failed


def _report_table(layers: Layers, wall: float, unattributed: float) -> None:
    _say(f"  {'layer':48s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}")
    for name, (calls, total, own) in sorted(
        layers.records.items(), key=lambda kv: -kv[1][1]
    ):
        _say(
            f"  {name:48s} {int(calls):8d} {total:10.4f} {own:10.4f} "
            f"{100.0 * total / wall:6.1f}%"
        )
    _say(f"  {'unattributed remainder':48s} {'':8s} {'':10s} {'':10s} {100.0 * unattributed:6.1f}%")


#: Workloads that run on one thread.  Their process, and with it the speed
#: probe it starts, is held to one CPU: the host's slow spells come and go
#: per CPU, so the probe must share the workload's CPU to see the spells
#: the workload sees.  BLAS is held to one thread to match.
ONE_CPU = ("paper_pipeline", "stream_adult")


def _hold_to_one_cpu() -> None:
    """Pin this process to its highest-numbered CPU; call before numpy loads."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(args) -> int:
    if args.workload in ONE_CPU:
        _hold_to_one_cpu()
    mod = importlib.import_module(WORKLOADS[args.workload])
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def setup(traced: bool):
        return mod.setup(args.seed, workdir, args.smoke, traced)

    try:
        _say(f"{args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
        if not args.trace:
            setup_s, state = repeated_setup(lambda: setup(False), mod.teardown)
            try:
                with SpeedProbe() as probe:
                    outcome = mod.measure(state, args.seconds, NullLayers())
                checks = mod.check(state, outcome)
            finally:
                mod.teardown(state)
            op_ms = statistics.median(outcome.op_seconds) * 1000.0
            work_per_s = outcome.work_units / outcome.work_seconds
            metrics = {
                "setup_s": setup_s,
                "op_p50_ref_ms": op_ms * probe.factor,
                "work_per_ref_s": work_per_s / probe.factor,
                "peak_rss_mib": peak_rss_mib(),
            }
            units = dict(END_TO_END)
            for name, value in metrics.items():
                _say(f"  {name:24s} {value:12.4f} {units[name]}")
            _say(f"  {'op_p50_ms':24s} {op_ms:12.4f} ms     raw")
            _say(f"  {'work_per_s':24s} {work_per_s:12.4f} 1/s    raw")
            _say(
                f"  {'probe_unit_ms':24s} {probe.mean_s * 1000.0:12.4f} ms     "
                f"mean of n={len(probe.samples)}; speed factor {probe.factor:.4f}"
            )
            _report_op(outcome)
        else:
            state = setup(False)
            try:
                base = mod.measure(state, args.seconds / 2.0, NullLayers())
            finally:
                mod.teardown(state)
            layers = Layers()
            state = setup(True)
            try:
                outcome = mod.measure(state, args.seconds / 2.0, layers)
                found = mod.layer_metrics(state, outcome, layers)
                checks = mod.check(state, outcome)
            finally:
                mod.teardown(state)
            found["bench.trace_overhead"] = (
                outcome.work_seconds / outcome.work_units
            ) / (base.work_seconds / base.work_units)
            wall = outcome.window_s
            if "bench.unattributed_share" not in found:
                found["bench.unattributed_share"] = (
                    max(0.0, wall - layers.self_seconds()) / wall
                )
            _report_table(layers, wall, found["bench.unattributed_share"])
            units = dict(PER_LAYER)
            metrics = {name: float(found.get(name, 0.0)) for name, _ in PER_LAYER}
            for name, value in metrics.items():
                if name in found:
                    _say(f"  {name:44s} {value:14.6f} {units[name]}")
        correct = _report_checks(checks)
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the smoke test"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro package under {SRC}; run from a checkout of "
            "the repository",
            file=sys.stderr,
        )
        return 2
    # SIGTERM unwinds like an error, so the clean-up in ``run`` still stops
    # the workload's workers, gateway process, speed probe and resource
    # tracker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
