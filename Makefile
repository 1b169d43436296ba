# Development workflow shortcuts.

.PHONY: install test lint lint-strict ci bench bench-full bench-ibs bench-pool bench-stream bench-data bench-serve bench-smoke examples experiments-smoke chaos stream-chaos data-chaos serve-chaos report clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src pytest tests/

# Incremental: warm runs re-parse only changed files (a cold or corrupt
# cache transparently falls back to a full analysis).  The tree-hygiene
# guard runs first: no tracked bytecode or cache junk, ever.
lint:
	python scripts/check_tree.py
	PYTHONPATH=src python -m repro.analysis src/repro \
		--baseline analysis-baseline.json --cache .analysis-cache.json

# No baseline, no cache: the resilience / obs, store and serve subsystems
# must be clean outright (inline `# repro: ignore[...]` suppressions only).
# The CI chaos, data-verify and serve-chaos stages run the same slices with
# the same rules (scripts/ci.py STRICT_RULES): every rule but R014, because
# dead-export detection is meaningless on a subsystem slice — the
# consumers live elsewhere.
STRICT_RULES := R001,R002,R003,R004,R005,R006,R007,R008,R009,R010,R011,R012,R013,R015,R016

lint-strict:
	PYTHONPATH=src python -m repro.analysis src/repro/resilience src/repro/obs \
		--rules $(STRICT_RULES)
	PYTHONPATH=src python -m repro.analysis src/repro/data/store --rules $(STRICT_RULES)
	PYTHONPATH=src python -m repro.analysis src/repro/serve --rules $(STRICT_RULES)

ci:
	PYTHONPATH=src python scripts/ci.py

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only -s

bench-full:
	PYTHONPATH=src REPRO_BENCH_FULL=1 pytest benchmarks/ --benchmark-only -s

# Re-baseline one workload of the scripts/bench.py table (make bench-ibs,
# bench-pool, bench-stream, bench-data, bench-serve): overwrites its
# BENCH_<name>.json.  Run on a quiet machine after an intentional
# performance change and commit the refreshed file; CI gates against it
# with `scripts/bench.py --check`.  Absolute bounds never move.
bench-ibs bench-pool bench-stream bench-data bench-serve:
	PYTHONPATH=src python scripts/bench.py $(@:bench-%=%)

# Every perfbench workload at tiny sizes, untraced and traced: each must
# exit 0, report correct, print exactly the declared metrics, and leave no
# process behind.  The last CI stage.
bench-smoke:
	python3 perfbench/smoke.py

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src python $$f || exit 1; done

experiments-smoke:
	PYTHONPATH=src python -m repro.resilience.smoke

# Process-backend chaos smoke: the sweep must survive injected worker
# crashes (os._exit, SIGKILL), past-deadline hangs, and a SIGKILLed driver,
# and still reproduce the clean serial output byte for byte.
chaos:
	PYTHONPATH=src python -m repro.resilience.chaos

# Streaming-auditor chaos drills: crash (exit / SIGKILL) between the journal
# append and the apply, a hung ingest killed externally, a torn tail
# record, and a crash mid-compaction — every scenario must recover to a
# byte-identical replay with no orphaned segments past the watermark.
stream-chaos:
	PYTHONPATH=src python -m repro.stream.chaos

# Sharded-store chaos drills: a flipped or truncated byte in any shard must
# fail `repro data verify` with a typed error naming the file, a SIGKILLed
# materialize must leave no partial registry entry (prune sweeps the .tmp-*
# orphan), and a live lease must pin its entry against prune.
data-chaos:
	PYTHONPATH=src python -m repro.data.chaos

# Audit-gateway chaos drills: SIGKILL mid-ingest (restart + client retry
# must converge with zero acked-but-lost batches), SIGKILL mid-fetch (no
# torn store, no .tmp-* orphans), a crash between remedy journalling and
# the ack, and a SIGTERM drain — every drill ends in a byte-identical
# replay digest.
serve-chaos:
	PYTHONPATH=src python -m repro.serve.chaos

report:
	PYTHONPATH=src python examples/regenerate_report.py REPORT.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
