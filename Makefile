# Tier-1 verification plus the race-detector gate the fleet engine
# requires. `make check` is what CI's build+test jobs run; `make lint`,
# `make cover`, and `make bench` mirror the remaining CI jobs.

GO ?= go

# Coverage floor (percent) enforced on the packages PR 1 race-proofed.
COVER_FLOOR ?= 85.0

.PHONY: check fmt-check vet build test race chaos shard shard-smoke shard-smoke-1m auth fuzz fuzz-verify fuzz-jit fuzz-features fuzz-auth fuzz-station fleet-demo lint lint-custom campaigns vuln cover bench bench-check perf-smoke

check: vet build race

# gofmt must have nothing to rewrite anywhere in the tree.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite must be race-clean: the fleet engine, the atomic
# channel telemetry, and the parallel experiment sweeps are all
# exercised concurrently by their tests.
race:
	$(GO) test -race ./...

# The fault-injected transport suite: the chaos injector itself, the
# reconnecting sinks, the over-TCP scenario/fleet parity tests, the
# base station's window pipeline with its admission reference model, and
# the borrowed-frame pins (zero steady-state allocations per hop, and
# verdicts unmoved when every frame is poisoned once its callee
# returns), all under the race detector and run twice (-count=2 catches
# state leaking between runs through package-level counters or lingering
# goroutines).
chaos:
	$(GO) test -race -count=2 ./internal/wiot/chaos/ ./internal/wiot/ -run 'Chaos|Reconnect|RunScenarioOverTCP|FrameScanner|ServeTCP|ServeConn|Station|Admission|PeekRecord|AcceptLoop|ErrorRing|BareFrameBody|Corruption|Cut|Partition|ControlRecords|Latency|CoalescedAcks|SinkBatch|SteadyStateAllocs|BorrowedFrame'
	$(GO) test -race -count=2 ./internal/fleet/ -run 'FleetRunnerOverChaosTCP'

# The sharded control plane under the race detector: the coordinator's
# oracle-parity suite (including mid-run station kills and failover),
# the station registry, snapshot merging, telemetry folding, the
# heap-watermark sampler the streamed smoke relies on, and the metrics
# federation layer (keep-latest absorption, publisher flush ordering,
# federated-sum exactness, cross-station trace connectivity).
shard:
	$(GO) test -race -count=1 ./internal/fleet/shard/ ./internal/fleet/ -run 'Shard|SnapshotMerge'
	$(GO) test -race -count=1 ./internal/wiot/ -run 'StationRegistry'
	$(GO) test -race -count=1 ./internal/obs/ ./internal/obs/telemetry/ -run 'HeapWatermark|Absorb|RegistryMerge'
	$(GO) test -race -count=1 ./internal/obs/federate/

# 100k streamed smoke: the same cohort at S=4 and S=1 must print
# byte-identical digest lines (aggregates are shard-count-invariant),
# and the heap watermark must stay bounded regardless of cohort size.
shard-smoke:
	$(GO) build -o /tmp/wiotsim-shard ./cmd/wiotsim
	/tmp/wiotsim-shard -fleet 100000 -shards 4 -workers 2 -stream -train 60 -live 6 -attack-at 3 -max-heap-mib 256 | tee /tmp/shard_s4.out
	/tmp/wiotsim-shard -fleet 100000 -shards 1 -workers 8 -stream -train 60 -live 6 -attack-at 3 -max-heap-mib 256 | tee /tmp/shard_s1.out
	grep '^digest:' /tmp/shard_s4.out > /tmp/shard_s4.digest
	grep '^digest:' /tmp/shard_s1.out > /tmp/shard_s1.digest
	diff -u /tmp/shard_s1.digest /tmp/shard_s4.digest
	@echo "digest invariant holds at 100k wearers"

# The full-scale acceptance run: a million wearers through four stations
# with per-subject tracking off. The heap bound is the point — aggregate
# state must not grow with the cohort.
shard-smoke-1m:
	$(GO) run ./cmd/wiotsim -fleet 1000000 -shards 4 -stream -train 60 -live 6 -attack-at 3 -max-heap-mib 256

# The authenticated-wire suite under the race detector: the handshake
# and session machinery, serial-arithmetic seq comparisons across the
# u32 wrap, the scheduled byzantine adversary (every forgery must be
# rejected while honest verdicts converge with plain v2), the wire
# attack campaigns (impersonation, frame replay, session hijack — zero
# forged frames accepted, every attempt accounted for in the reject
# counters), the borrowed-frame lifetime test over the sealed wire, and
# the declarative auth-adversary campaign.
auth:
	$(GO) test -race -count=2 ./internal/wiot/ -run 'Auth|Session|Serial|SeqWrap|DeriveSensorKey|KeyStore|CMAC|MACState|SinkBatch|BorrowedFrame'
	$(GO) test -race -count=1 ./internal/wiot/chaos/ -run 'Adversary'
	$(GO) test -race -count=1 ./internal/attack/
	$(GO) test -race -count=1 ./internal/campaign/ -run 'AuthAdversary|AuthParity'

# Short coverage-guided session on the frame codec and the station's
# wire scanner (beyond the seed corpus that `go test` always runs).
fuzz:
	$(GO) test ./internal/wiot/ -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime 30s

# Differential fuzz: vmlint's static verdicts against the interpreter's
# actual behaviour. Minimization is capped so wall time goes to new
# inputs rather than shrinking 2 KB detector mutants.
fuzz-verify:
	$(GO) test ./internal/amulet/ -run '^$$' -fuzz FuzzVerifyVsRun -fuzztime 30s -fuzzminimizetime 2s

# Differential fuzz: the template JIT against the interpreter oracle on
# verifier-accepted bytecode, then on the real firmware programs with
# fuzzed headers, samples and peak indices at full segment size — Usage,
# memory effects, and fault classes must agree at randomized cycle budgets.
fuzz-jit:
	$(GO) test ./internal/amulet/jit/ -run '^$$' -fuzz FuzzJITVsInterp -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/amulet/jit/ -run '^$$' -fuzz FuzzDetectorSegmentVsInterp -fuzztime 30s -fuzzminimizetime 2s

# Differential fuzz: the one-pass host feature core against the
# portrait → grid path, bit for bit, on fuzzed Q16.16 sample pairs.
fuzz-features:
	$(GO) test ./internal/features/ -run '^$$' -fuzz FuzzFeatureCoreVsPortrait -fuzztime 30s -fuzzminimizetime 2s

# Fuzz the v3 auth control-record codec: every auth handshake record
# must round-trip or be rejected, never crash the frame scanner.
fuzz-auth:
	$(GO) test ./internal/wiot/ -run '^$$' -fuzz FuzzAuthRecordRoundTrip -fuzztime 30s -fuzzminimizetime 2s

# Fuzz the station's real ingress: fuzzed bytes through one TCPStation
# connection, plain and auth-required. Nothing may panic or refuse a
# frame, cursors only move forward, buffers stay bounded, and no frame
# gets past auth without a valid MAC.
fuzz-station:
	$(GO) test ./internal/wiot/ -run '^$$' -fuzz FuzzStationIngress -fuzztime 30s -fuzzminimizetime 2s

# The acceptance demo: 12 wearers streaming concurrently over a lossy
# link, with the metrics snapshot printed at the end.
fleet-demo:
	$(GO) run ./cmd/wiotsim -fleet 12 -workers 8

# Full linter set when golangci-lint is installed (the CI lint job always
# has it); vet-only fallback so the target works in bare containers.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# The repo's own analyzers (opcomplete, detrand, spanend, qmisuse, plus
# the campaign set: campreach, campseed, campsched, campbudget,
# campdigest) — needs nothing beyond the go toolchain, so it always runs.
lint-custom:
	$(GO) run ./cmd/wiotlint ./...

# The declarative campaign gate: the five camp* analyzers over every
# package (machine-readable output), runtime validation of the catalog,
# and the parity/digest-invariance tests that pin declaration lowering
# byte-identical to the legacy imperative paths (plus the run-manifest
# round-trip and shard-invariance suite), and the check that wiotsim
# -stream builds its cohort with the same recipe.
campaigns:
	$(GO) run ./cmd/wiotlint -campaigns -json ./...
	$(GO) run ./cmd/wiotsim build -lint
	$(GO) test ./internal/campaign/ -run 'DeclarativeMatchesImperative|ShardDigestInvariance|CatalogWellFormed|Manifest'
	$(GO) test ./cmd/wiotsim/ -run 'StreamSourceMatchesCampaignRecipe'

# Known-vulnerability scan; skipped gracefully where the scanner (or the
# network to install it) is unavailable.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Enforce the coverage floor on the packages the fleet work hardened.
cover:
	@for pkg in fleet wiot; do \
		$(GO) test -coverprofile=cover_$$pkg.out ./internal/$$pkg/ >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=cover_$$pkg.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		echo "internal/$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v got=$$pct -v floor=$(COVER_FLOOR) 'BEGIN { exit (got + 0 < floor + 0) }' || \
			{ echo "internal/$$pkg below coverage floor"; exit 1; }; \
	done

# The repository benchmark's own checks: wiotperf's tests (its reference
# verdict digests and the wire-vs-in-process check), then a 2 s run of
# each workload. A run whose verdicts do not match its references prints
# correct:false and exits non-zero, which fails the target.
perf-smoke:
	cd wiotperf && $(GO) test ./...
	for w in cohort-host cohort-device wire-auth; do \
		bash wiotperf/run.sh --workload $$w --seconds 2 --trace 0 || exit 1; \
	done

# Continuous-benchmark harness: quick suite into BENCH_dev.json, then
# bench-check gates it against the committed baseline the way CI does.
bench:
	$(GO) run ./cmd/wiotbench -quick -o BENCH_dev.json

bench-check: bench
	$(GO) run ./cmd/wiotbench -compare BENCH_seed.json BENCH_dev.json -threshold 10
