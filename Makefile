# Convenience targets for the repro library.

PYTHON ?= python
TRIALS ?= 1024
JOBS ?=

.PHONY: install test bench bench-runner bench-cache bench-fabric bench-service bench-service-pool cache-smoke kernel-smoke vec-smoke fabric-smoke profile figures lint lint-clean examples serve-smoke serve-pool-smoke all

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-runner:
	PYTHONPATH=src $(PYTHON) scripts/bench_runner.py

# Cold/warm/delta timings of the content-addressed trial store; writes
# BENCH_cache.json and fails if warm is not >= 5x faster than cold or
# cached results are not bit-identical to uncached ones.
bench-cache:
	PYTHONPATH=src $(PYTHON) scripts/bench_cache.py

# Tiny sweep twice through the CLI --cache path; the second run must be
# served 100% from the store with a byte-identical report.
cache-smoke:
	PYTHONPATH=src $(PYTHON) scripts/cache_smoke.py

# Tiny sweep through the CLI with REPRO_KERNEL=0 and =1, and with
# REPRO_KERNEL=0 on a 2-worker pool; all reports must be byte-identical
# — the compiled kernel's oracle contract at the CLI boundary.
kernel-smoke:
	PYTHONPATH=src $(PYTHON) scripts/kernel_smoke.py

# Vectorized-tier smoke: a 64-seed-unit `repro sweep` byte-identical to
# the same sweep under REPRO_KERNEL=0, and the batched stage pipeline
# over its smoke speedup floor.
vec-smoke:
	PYTHONPATH=src $(PYTHON) scripts/vec_smoke.py

# Chaos smoke of the distributed sweep fabric: coordinator + 2 local
# workers, one SIGKILLed while holding a lease, plus a journal-chaos
# leg (worker killed mid-append, journal tail torn); every sweep must
# still complete bit-identical to a single-process run and resume for
# free.
fabric-smoke:
	PYTHONPATH=src $(PYTHON) scripts/fabric_smoke.py

# Fabric overhead/protocol/scaling benchmark; writes BENCH_fabric.json.
# Gated: workers=1 inline overhead <= 1.15x the single-process
# baseline, journaled-queue protocol throughput over its floor,
# bit-identity everywhere, resume free.  The workers=N speedup is
# recorded, not gated (CI boxes vary; single-CPU hosts record
# "skipped: single-cpu").
bench-fabric:
	PYTHONPATH=src $(PYTHON) scripts/bench_fabric.py

# cProfile hotspot tables of the trial hot path, compiled kernel vs
# string-keyed reference — where the next optimisation should go.
profile:
	PYTHONPATH=src $(PYTHON) scripts/profile_trial.py

bench-service:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_service.py --benchmark-only -q

# Static checks (pyflakes + bugbear/async classes) on the modules where
# concurrency bugs live: the service, the admission path, the store,
# the CLI.
lint:
	ruff check src/repro/service src/repro/online src/repro/store src/repro/fabric src/repro/cli src/repro/errors.py

figures:
	$(PYTHON) -m repro --all --trials $(TRIALS) --out results/ $(if $(JOBS),--jobs $(JOBS))

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

serve-smoke:
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py

# serve-smoke plus the pooled-topology leg: the same HTTP server over
# a 2-worker pre-forked pool, keep-alive pipelining, one forced 429,
# bounded drain.
serve-pool-smoke:
	PYTHONPATH=src $(PYTHON) scripts/serve_smoke.py --workers 2

# Topology equivalence (byte-identity + metric totals) and throughput
# legs for the pooled service; writes the workers section of
# BENCH_service.json.  The pooled-vs-single speedup is gated only on
# hosts with >= 2 CPUs; single-CPU hosts record "skipped: single-cpu".
bench-service-pool:
	PYTHONPATH=src $(PYTHON) scripts/bench_service.py

all: test bench
