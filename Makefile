# Tier-1 verification lives here: `make check` is what CI and the roadmap
# run. The race pass covers the packages with real concurrency — the PAL
# service and the remote-attestation protocol — plus the memory and CPU
# cores, whose decode/measurement caches are shared across goroutines, the
# profiler, whose aggregation root is shared across machines, and the chaos
# injector, whose decision streams are drawn from every worker at once.

GO ?= go

.PHONY: check build vet test race bench benchcmp soak soak-short cluster-soak audit-verify fuzz-short

check: build vet test race benchcmp audit-verify soak-short fuzz-short

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/palsvc ./internal/cluster ./internal/attest \
		./internal/obs ./internal/obs/prof ./internal/cpu ./internal/mem \
		./internal/chaos ./internal/sksm ./internal/audit \
		./cmd/palservd ./cmd/palrouter ./cmd/attestd

# soak drives the fault-injected zero-loss/zero-leak acceptance run (see
# docs/RESILIENCE.md): a multi-replica service under the "soak" profile over
# real TCP, asserting the terminal counters partition every submitted job,
# LeakCheck comes back clean, and every injected PAL fault produced exactly
# one crash bundle. Override the knobs per run, e.g.:
#   make soak CHAOS_SOAK_PROFILE=heavy CHAOS_SOAK_SEED=42
CHAOS_SOAK_PROFILE ?= soak
CHAOS_SOAK_SEED ?= 1
soak:
	CHAOS_SOAK_PROFILE=$(CHAOS_SOAK_PROFILE) CHAOS_SOAK_DURATION=6s \
		CHAOS_SOAK_SEED=$(CHAOS_SOAK_SEED) \
		$(GO) test -v -count 1 -run TestSoakZeroLossUnderChaos ./internal/palsvc

# soak-short is the check-gate version: same assertions, shorter load.
soak-short:
	CHAOS_SOAK_PROFILE=$(CHAOS_SOAK_PROFILE) CHAOS_SOAK_DURATION=1200ms \
		CHAOS_SOAK_SEED=$(CHAOS_SOAK_SEED) \
		$(GO) test -count 1 -run TestSoakZeroLossUnderChaos ./internal/palsvc

# cluster-soak is the fleet-level acceptance run (see docs/CLUSTER.md): a
# palrouter-shaped Router over three chaos-injected backends under
# multi-tenant load, with one backend's network killed mid-run. It asserts
# tenants saw zero transport errors, every node's terminal counters still
# partition its submissions, the victim was drained from the ring, and no
# backend leaked. Same knob style as soak:
#   make cluster-soak CLUSTER_SOAK_PROFILE=heavy CLUSTER_SOAK_SEED=42
CLUSTER_SOAK_PROFILE ?= soak
CLUSTER_SOAK_SEED ?= 1
cluster-soak:
	CLUSTER_SOAK_PROFILE=$(CLUSTER_SOAK_PROFILE) CLUSTER_SOAK_DURATION=6s \
		CLUSTER_SOAK_SEED=$(CLUSTER_SOAK_SEED) \
		$(GO) test -v -count 1 -run TestClusterFailoverSoak ./internal/cluster

# audit-verify exercises the tamper-evident log end to end (see
# docs/AUDIT.md): the persistence/recovery/tamper matrix in
# internal/audit, the demo cross-check that verifies both attestd-side
# logs offline, and tcbaudit's offline -verify path — inclusion plus
# cross-restart consistency proofs replayed with no daemon running.
audit-verify:
	$(GO) test -count 1 ./internal/audit
	$(GO) test -count 1 -run 'TestDemoAuditCrossCheck' ./cmd/attestd
	$(GO) test -count 1 -run 'TestOfflineQueryAndVerify|TestVerifyDetectsTamper' ./cmd/tcbaudit

# fuzz-short runs every fuzz target for FUZZTIME each (go test -fuzz takes
# one target per invocation): the assembler, decoder and round-trip
# targets, the interpreter-vs-threaded-code execution differential, the
# sealed-blob parser and the PAL header and build paths. A failing input is
# written to the package's testdata/fuzz and replays in plain `go test`.
#   make fuzz-short FUZZTIME=30s
FUZZTIME ?= 3s
FUZZ_TARGETS = \
	./internal/isa:FuzzAssemble \
	./internal/isa:FuzzDecodeProgram \
	./internal/isa:FuzzAssembleDisassembleAssemble \
	./internal/isa:FuzzExecDifferential \
	./internal/tpm:FuzzUnseal \
	./internal/pal:FuzzParseHeader \
	./internal/pal:FuzzBuild
fuzz-short:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$fn in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# bench commits a machine-readable artifact so later sessions can diff
# against this PR's numbers. Time-based -benchtime lets go test pick the
# iteration count per benchmark: fixed 100x gave microsecond-scale
# benchmarks ±2x run-to-run noise, which tripped the benchcmp gate on
# machine weather rather than real regressions.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 0.5s -benchmem . ./internal/obs ./internal/palsvc ./internal/audit \
		| $(GO) run ./cmd/benchjson -o BENCH_PR10.json

# benchcmp gates the committed artifacts: the batched quote pipeline must
# only ever move the attested-job numbers down, and the zero-allocation
# fast paths of earlier PRs must survive with batching both on and off.
# Thresholds live in cmd/benchjson (-max-ns-regress 50%,
# -max-alloc-regress 25% by default); nothing reruns benchmarks here.
benchcmp:
	$(GO) run ./cmd/benchjson -compare BENCH_PR9.json BENCH_PR10.json
