GO ?= go

.PHONY: build test test-times vet race race-core lint chaos chaos-fidelity distcheck verify bench obs-smoke server-smoke

build:
	$(GO) build ./...

# Tier-1: the gate every change must pass.
test: build
	$(GO) test ./...

# Tier-1 wall time per package: the suite run uncached, packages listed
# slowest first as "<seconds> <package>" (FAIL lines included).
test-times: build
	$(GO) test -count=1 ./... 2>&1 | awk '$$1 == "ok" || $$1 == "FAIL" { print $$3, $$2 }' | sort -rn

vet:
	$(GO) vet ./...

# The race pass keeps the concurrent Monte-Carlo engine (internal/mc) and
# everything layered on it honest; internal/mc and internal/threshold are
# the packages that actually spawn workers.
race:
	$(GO) test -race ./...

race-core:
	$(GO) test -race ./internal/mc/... ./internal/threshold/... ./internal/decoder/... ./internal/uf/... ./internal/frame/... ./internal/server/... ./internal/obs/... ./internal/device/... ./internal/noise/... ./internal/surgery/...

# surflint: the domain-aware analyzer suite (rngstream, errdrop, lockcopy,
# loopcapture, paniccheck, ctxleak, atomicmix). Zero findings is the merge
# bar; suppressions
# require an inline justification. Run `go run ./cmd/surflint -list` for
# the full contracts.
lint: build
	$(GO) run ./cmd/surflint ./...

# Chaos: the fault-injection sweep (internal/chaos). -short trims each
# tiling to a smoke sweep; drop it for the full 1000-scenarios-per-tiling
# acceptance run. The fuzz targets hand scenario parameters, and random
# elementary graphs with hyperedges to decompose, to go-fuzz.
chaos:
	$(GO) test ./internal/chaos -run Chaos -short -count=1
	$(GO) test ./internal/chaos -run=^$$ -fuzz FuzzChaos -fuzztime 30s
	$(GO) test ./internal/dem -run=^$$ -fuzz FuzzDecompose -fuzztime 30s

# Fidelity-degradation harness: every minimal tiling (pristine and lightly
# defected) through the good/median/bad calibration snapshots, asserting
# finite logical rates, Wilson-tolerant good<=median<=bad ordering, and an
# unchanged certified fault distance under calibration-aware routing.
chaos-fidelity:
	$(GO) test ./internal/chaos -run Fidelity -count=1

# Distance certification gate (internal/distance): the static certifier
# must return exactly the nominal distance for all five architectures at
# d=3/5 clean, and exactly the degradation ladder's claimed effective
# distance on a random defect preset each.
distcheck:
	$(GO) test ./internal/distance -run TestDistCheck -count=1

verify: vet race lint chaos chaos-fidelity distcheck

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Observability smoke: launch cmd/threshold against a live -metrics-addr,
# scrape /metrics mid-run, and assert the core series (synth stage spans,
# shots/sec, decoder k-histogram, decode-path counters) exist and parse as
# Prometheus text.
obs-smoke:
	$(GO) build -o bin/threshold ./cmd/threshold
	$(GO) run ./cmd/obssmoke -bin bin/threshold

# Serving smoke: boot a real surfstitchd, drive the /v1 job API end to end,
# and assert the live-daemon contracts — an identical resubmission is served
# from the content-addressed cache without a new synthesis span, and a curve
# job killed mid-sweep (SIGTERM) resumes from its checkpoint after restart.
server-smoke:
	$(GO) build -o bin/surfstitchd ./cmd/surfstitchd
	$(GO) run ./cmd/serversmoke -bin bin/surfstitchd
