GO ?= go

# Fuzz targets exercised by fuzz-smoke, as package:target pairs.
FUZZ_TARGETS := \
	./internal/core:FuzzListMatchesReference \
	./internal/wire:FuzzDecode \
	./internal/wire:FuzzReaderMatchesReadMessage \
	./internal/astypes:FuzzParsePrefix \
	./internal/astypes:FuzzParseASPath \
	./internal/astypes:FuzzParseCommunity \
	./internal/trace:FuzzTraceDecode \
	./internal/mrt:FuzzMRTDecode \
	./internal/mrt:FuzzWriterRoundTrip \
	./internal/routegen:FuzzReadBinaryDump \
	./internal/mrt/rislive:FuzzRISLiveJSON \
	./internal/mrt/rislive:FuzzDecodeMatchesJSON \
	./internal/collector:FuzzMirrorRoundTrip \
	./cmd/moas-collector:FuzzMIBSource \
	./internal/rpki:FuzzParseROAs \
	./internal/dnsval:FuzzParseMOASRR \
	./internal/sim:FuzzEngineOrder \
	./internal/rib:FuzzSelection
FUZZTIME ?= 10s

.PHONY: build test vet race e2e bench-smoke bench-test fuzz-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## vet: stock go vet over the whole tree, and over the nested benchmark
## module, which ./... does not reach.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark .

## race: the full test suite under the race detector.
race:
	$(GO) test -race ./...

## e2e: the loopback observability scenario plus the telemetry,
## operator-surface and moas-top (the status document's one renderer)
## suites, under the race detector.
e2e:
	$(GO) test -race ./internal/telemetry/... ./internal/obs/... ./internal/e2etest/... ./cmd/moas-top/

## bench-smoke: one-iteration run of every hot-path and evaluation
## benchmark so they can't silently rot, including each Figure 9-11
## entry of the experiment.Figures table; part of check (and so CI).
bench-smoke:
	$(GO) test -run='^$$' -bench='^(BenchmarkWire|BenchmarkRIB|BenchmarkTelemetry|BenchmarkEngineEvents|BenchmarkTrace|BenchmarkMRT|BenchmarkROV|BenchmarkObs|BenchmarkRISLive)' \
		-benchtime=1x -benchmem ./internal/wire/ ./internal/rib/ ./internal/telemetry/ ./internal/sim/ ./internal/trace/ ./internal/mrt/ ./internal/mrt/rislive/ ./internal/rpki/ ./internal/obs/
	$(GO) test -run='^$$' -benchtime=1x -benchmem \
		-bench='^(BenchmarkFigure(9|10|11)[A-Za-z]*|BenchmarkMeasureStudy(Baseline)?)$$' . ./internal/measure/
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
check: build vet test race e2e bench-smoke bench-test fuzz-smoke
