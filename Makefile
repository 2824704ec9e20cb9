GO ?= go

# Fuzz targets exercised by fuzz-smoke, as package:target pairs.
FUZZ_TARGETS := \
	./internal/wire:FuzzDecode \
	./internal/astypes:FuzzParsePrefix \
	./internal/astypes:FuzzParseASPath \
	./internal/astypes:FuzzParseCommunity \
	./internal/trace:FuzzTraceDecode \
	./internal/mrt:FuzzMRTDecode \
	./internal/mrt:FuzzWriterRoundTrip \
	./internal/mrt/rislive:FuzzRISLiveJSON
FUZZTIME ?= 10s

.PHONY: build test vet vet-test vet-json vet-annotations race e2e bench bench-ingest bench-rov bench-simscale bench-obs bench-smoke bench-test fuzz-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## vet: stock go vet plus the repo's own analyzers (cmd/repro-vet).
## The multichecker runs under a 60s budget: all ten analyzers over
## the full tree take a few seconds, so hitting the budget means an
## analyzer regressed into pathological behavior.
vet:
	$(GO) vet ./...
	timeout 60 $(GO) run ./cmd/repro-vet ./...

## vet-test: the analyzers' own fixture tests and the driver's exit-code
## regression tests.
vet-test:
	$(GO) test ./internal/analysis/... ./cmd/repro-vet

## vet-json: machine-readable findings (one JSON object per line) for
## the CI artifact; the target itself never fails so the artifact is
## produced even when there are findings.
vet-json:
	$(GO) run ./cmd/repro-vet -json ./... > repro-vet.json; \
		code=$$?; echo "repro-vet exit $$code, $$(wc -l < repro-vet.json) finding(s)"; \
		test $$code -ne 2

## vet-annotations: every //repro:allocfree contract site and every
## //repro:vet ignore suppression in the real tree (fixtures excluded),
## so annotation drift shows up in review.
vet-annotations:
	@echo "== //repro:allocfree sites =="
	@grep -rn --include='*.go' '//repro:allocfree' internal cmd | grep -v testdata || true
	@echo "== //repro:vet ignore sites =="
	@grep -rn --include='*.go' '//repro:vet ignore' internal cmd | grep -v testdata || true

## race: the full test suite under the race detector.
race:
	$(GO) test -race ./...

## e2e: the loopback observability scenario plus the telemetry suite,
## under the race detector.
e2e:
	$(GO) test -race ./internal/telemetry/... ./internal/e2etest/...

## bench: telemetry hot-path overhead, recorded as BENCH_telemetry.json
## for regression tracking (one test2json event per line), plus the
## wire/RIB hot-path benchmarks recorded as BENCH_hotpath.json — the
## *Baseline benchmarks in each pair are the pre-pooling allocating
## paths, so the file itself documents the before/after. BENCH_eval.json
## records the end-to-end evaluation pipeline (figure sweeps, the §3
## measurement study, the event engine) against its *Baseline pairs:
## fresh-network sweeps, the serial map-of-maps measurement pipeline,
## and closure-boxed event scheduling. BENCH_trace.json records the
## flight-recorder record path against its disabled/nil baselines.
bench:
	$(GO) test -json -run='^$$' -bench='^BenchmarkTelemetry' -benchmem \
		./internal/telemetry/ > BENCH_telemetry.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_telemetry.json | sed 's/"Output":"//;s/\\t/\t/g' || true
	$(GO) test -json -run='^$$' -bench='^(BenchmarkWire|BenchmarkRIB)' -benchmem \
		./internal/wire/ ./internal/rib/ > BENCH_hotpath.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_hotpath.json | sed 's/"Output":"//;s/\\t/\t/g' || true
	$(GO) test -json -run='^$$' -benchmem -benchtime=2x \
		-bench='^(BenchmarkFigure9Effectiveness|BenchmarkFigure10TopologySize|BenchmarkFigure11PartialDeployment|BenchmarkMeasureStudy)(Baseline)?$$' \
		. > BENCH_eval.json
	$(GO) test -json -run='^$$' -bench='^BenchmarkEngineEvents(Baseline)?$$' -benchmem \
		./internal/sim/ >> BENCH_eval.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_eval.json | sed 's/"Output":"//;s/\\t/\t/g' || true
	$(GO) test -json -run='^$$' -bench='^BenchmarkTrace' -benchmem \
		./internal/trace/ > BENCH_trace.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_trace.json | sed 's/"Output":"//;s/\\t/\t/g' || true
	$(MAKE) bench-ingest
	$(MAKE) bench-rov
	$(MAKE) bench-simscale
	$(MAKE) bench-obs

## bench-ingest: the MRT ingestion benchmarks — a cold ≥100k-prefix
## table load and the steady-state (zero-alloc) churn path — recorded
## as BENCH_ingest.json; split out so CI can produce the artifact
## without the full bench sweep.
bench-ingest:
	$(GO) test -json -run='^$$' -bench='^BenchmarkMRT' -benchmem \
		./internal/mrt/ > BENCH_ingest.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_ingest.json | sed 's/"Output":"//;s/\\t/\t/g' || true

## bench-rov: the RPKI/ROV benchmarks — the allocation-free covering-ROA
## lookup (0 allocs/op is also pinned by TestValidateAllocFree) and the
## RTR delta-apply churn path — recorded as BENCH_rov.json.
bench-rov:
	$(GO) test -json -run='^$$' -bench='^BenchmarkROV' -benchmem \
		./internal/rpki/ > BENCH_rov.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_rov.json | sed 's/"Output":"//;s/\\t/\t/g' || true

## bench-simscale: the internet-scale simulation benchmarks — compact
## simbgp convergence at 10k and 70k ASes (nodes/s, state-bytes/node,
## allocs/op) plus the 1k compact-vs-map-layout pair that documents the
## memory compaction factor — recorded as BENCH_simscale.json.
bench-simscale:
	$(GO) test -json -run='^$$' -bench='^BenchmarkSimScale' -benchmem \
		./internal/simbgp/ > BENCH_simscale.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_simscale.json | sed 's/"Output":"//;s/\\t/\t/g' || true

## bench-obs: the detection-latency observatory record path — stage
## stamping against its nil-recorder and disabled baselines (the
## contract is ≤200ns and 0 allocs per stamp, also pinned by
## TestRecordPathAllocFree) — recorded as BENCH_obs.json.
bench-obs:
	$(GO) test -json -run='^$$' -bench='^BenchmarkObs' -benchmem \
		./internal/obs/ > BENCH_obs.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_obs.json | sed 's/"Output":"//;s/\\t/\t/g' || true

## bench-smoke: one-iteration run of every hot-path and evaluation
## benchmark so they can't silently rot; part of check (and so CI).
bench-smoke:
	$(GO) test -run='^$$' -bench='^(BenchmarkWire|BenchmarkRIB|BenchmarkTelemetry|BenchmarkEngineEvents|BenchmarkTrace|BenchmarkMRT|BenchmarkROV|BenchmarkObs)' \
		-benchtime=1x -benchmem ./internal/wire/ ./internal/rib/ ./internal/telemetry/ ./internal/sim/ ./internal/trace/ ./internal/mrt/ ./internal/rpki/ ./internal/obs/
	$(GO) test -run='^$$' -benchtime=1x -benchmem \
		-bench='^(BenchmarkFigure9Effectiveness|BenchmarkMeasureStudy)(Baseline)?$$' .
	$(GO) test -run='^$$' -benchtime=1x -benchmem \
		-bench='^BenchmarkSimScaleConverge1k(Baseline)?$$' ./internal/simbgp/

## bench-test: the benchmark's own tests at toy size. benchmark/ is a
## nested module, so the root `go build ./... && go test ./...` never
## builds it.
bench-test:
	$(GO) test -C benchmark .

## fuzz-smoke: run each fuzz target briefly against its seed corpus.
fuzz-smoke:
	@set -e; for entry in $(FUZZ_TARGETS); do \
		pkg=$${entry%%:*}; target=$${entry##*:}; \
		echo "fuzz $$target ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run='^$$' -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) $$pkg; \
	done

## check: the full verification gate CI runs on every PR.
check: build vet vet-test test race e2e bench-smoke bench-test fuzz-smoke
