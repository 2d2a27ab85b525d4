# Build / verify targets. `make ci` is what every PR must keep green:
# the race detector covers the campaign runner's worker pool, and the
# smoke and default-scale sweeps are gated against the committed
# rolling baselines in baselines/. The simulator is deterministic, so
# the gating CLI's -baseline verdict is a byte comparison: it exits 3
# when the fresh artifact differs from its baseline in any byte (vs 2
# usage, 1 IO/runtime) and writes a report of which stamp fields,
# scenarios and metrics moved to *-diff.txt. Each gate then ends in a
# `cmp` against the baseline, which double-checks the verdict. make
# folds any recipe failure into its own exit code, so scripts that need
# the distinction invoke the CLIs directly or cmp the fresh artifacts
# (what .github/workflows/ci.yml does).

GO ?= go

# Recipes pipe `go test` through tee (bench-out.txt); without pipefail a
# benchmark build failure or panic would exit 0 through tee and CI would
# gate on truncated output.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build vet lint test race bench bench-test bench-out.txt bench-json \
	bench-baseline-refresh profile campaign bisect tourney shard-usage wastedcores-smoke baseline-verdict \
	bisect-smoke campaign-smoke tourney-smoke explain-smoke trace-smoke schedviz-smoke \
	examples-smoke bisect-default campaign-default baseline-refresh ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt must be clean and vet quiet.
lint:
	@drift="$$(gofmt -l .)"; if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over every benchmark at minimal iterations; full runs use
# `go test -bench=. -benchtime=...` directly.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# The sweep benchmark's own tests. bench/ is a nested Go module, so the
# root `go test ./...` never reaches them. They pin bench/ref/*.sha256 to
# the committed baselines (a `make baseline-refresh` that leaves them
# stale fails here), check the metric names and units against
# BENCHMARK.json, run every workload on its reduced input and check the
# profile attribution (~22 s).
bench-test:
	cd bench && $(GO) test .

# The pinned perf-trajectory suite: the campaign throughput benchmark
# (events/s + scenarios/s) plus the engine microbenchmarks and one
# balance pass per domain level (the NoBusiest fast path and the full
# path), parsed into a machine-readable report and gated against the
# committed allocation baseline (allocs/op and B/op — wall clock is not
# comparable across machines). Every benchmark runs a fixed iteration
# count, so the gated figures repeat from run to run: B/op averages over
# b.N, and a time-based -benchtime would let b.N, and with it a
# benchmark's amortized heap growth (BenchmarkEventCancel's zombie
# queue), follow host speed. Exit 3 from benchjson = an allocation
# regression. The -max-allocs-per-event bound additionally asserts that
# obs-disabled campaign runs stay at or under one allocation per
# simulation event, so the observability hooks keep compiling down to a
# nil-check.
BENCH_PKG_ARGS   = -run '^$$' -bench 'BenchmarkCampaign|BenchmarkSimulatorThroughput' -benchmem -benchtime 5x .
BENCH_SIM_ARGS   = -run '^$$' -bench 'BenchmarkEngine|BenchmarkEvent' -benchmem -benchtime 200000x ./internal/sim
BENCH_SCHED_ARGS = -run '^$$' -bench 'BenchmarkLoadBalance' -benchmem -benchtime 100000x ./internal/sched

bench-out.txt:
	@rm -f $@
	$(GO) test $(BENCH_PKG_ARGS) | tee -a $@
	$(GO) test $(BENCH_SIM_ARGS) | tee -a $@
	$(GO) test $(BENCH_SCHED_ARGS) | tee -a $@

bench-json: bench-out.txt
	$(GO) run ./cmd/benchjson -in bench-out.txt -out BENCH_campaign.json \
		-baseline baselines/bench-smoke.json -max-allocs-per-event 1

# Re-pin the allocation baseline after an intentional change (commit the
# result, like the campaign/bisect baselines).
bench-baseline-refresh: bench-out.txt
	$(GO) run ./cmd/benchjson -in bench-out.txt -out baselines/bench-smoke.json

# Capture CPU + allocation profiles of the campaign hot path. Explore
# with `go tool pprof -http=:8080 cpu.prof` (View > Flame Graph), or
# `go tool pprof -top cpu.prof` in a terminal.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign/workers=1$$' -benchtime 5x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "profiles written: cpu.prof mem.prof"
	@echo "flamegraph: go tool pprof -http=:8080 cpu.prof"

# The standard 30-scenario campaign at a fast scale, artifact to
# campaign.json. Shard it with `-shard i/n` + `-merge`, or re-run
# incrementally with `-incremental campaign.json`.
campaign:
	$(GO) run ./cmd/campaign -matrix default -scale 0.25 -out campaign.json

# The full 128-cell fix-set bisection, artifact to bisect.json.
bisect:
	$(GO) run ./cmd/bisect -preset default -out bisect.json

# The 54-scenario policy tournament (both paper machines x three
# workloads x the nine-policy lineup), artifact to tourney.json.
tourney:
	$(GO) run ./cmd/tourney -preset default -out tourney.json

# The usage contract, on CLIs built once into a temp dir because `go run`
# reports every non-zero exit as 1. Malformed and out-of-range -shard
# specs exit 2 (usage) on both campaign and bisect, with the shard
# parser's message (a Go panic exits 2 as well). And each sweep CLI
# refuses, with exit 2 and before its "running" line, a negative or
# non-finite number and a dimension entry given twice (serve:050 names
# serve:50), with or without -shard.
SHARD_BAD_SPECS = banana 0/3 4/3 1/0 -2/3 1.5/3 3 a/b
BAD_NUMBERS = -scale=-1 -scale=NaN -horizon=-1 -horizon=NaN -horizon=Inf -workers=-1 -streak-k=-1

shard-usage:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for cli in campaign bisect tourney; do $(GO) build -o "$$tmp/$$cli" ./cmd/$$cli; done; \
	expect2() { rc=0; err=$$("$$tmp/$$1" "$${@:2}" 2>&1 >/dev/null) || rc=$$?; \
		case "$$rc:$$err" in "2:$$1: shard: "*) ;; \
		*) echo "shard-usage: $$* exited $$rc, want 2 with a usage error: $$err"; exit 1;; esac; }; \
	for spec in $(SHARD_BAD_SPECS); do \
		expect2 campaign -matrix smoke -shard "$$spec" -out /dev/null; \
		expect2 bisect -preset smoke -shard "$$spec" -out /dev/null; \
	done; \
	refuse() { rc=0; err=$$("$$tmp/$$1" "$${@:2}" -out /dev/null 2>&1 >/dev/null) || rc=$$?; \
		if [ "$$rc" != 2 ] || grep -q "^$$1: running" <<<"$$err"; then \
			echo "shard-usage: $$* exited $$rc, want 2 before running: $$err"; exit 1; fi; }; \
	for bad in $(BAD_NUMBERS); do \
		refuse campaign -matrix smoke "$$bad"; \
		refuse bisect -preset smoke "$$bad"; \
		refuse tourney -preset smoke "$$bad"; \
	done; \
	refuse campaign -matrix smoke -loads make2r,make2r; \
	refuse campaign -matrix smoke -loads serve:50,serve:050 -shard 1/2; \
	refuse bisect -preset smoke -loads tpch -seeds 1,1; \
	refuse bisect -preset smoke -seeds 1,1 -shard 1/2; \
	refuse tourney -preset smoke -policies bugs,bugs; \
	echo "shard-usage: bad -shard specs, bad numbers and repeated entries exit 2 on campaign, bisect and tourney"

# The paper-tables CLI, built once like shard-usage: every experiment at
# a small scale must exit 0 and print exactly the committed
# baselines/wastedcores-smoke.txt (the tables are deterministic, so the
# gate is a byte comparison), and a negative or non-finite -scale or an
# unknown experiment must exit 2 (usage) without running anything.
wastedcores-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/wastedcores" ./cmd/wastedcores; \
	rc=0; "$$tmp/wastedcores" -scale 0.1 all >"$$tmp/out.txt" 2>&1 || rc=$$?; \
	[ "$$rc" = 0 ] || { echo "wastedcores-smoke: -scale 0.1 all exited $$rc:"; cat "$$tmp/out.txt"; exit 1; }; \
	cmp -s "$$tmp/out.txt" baselines/wastedcores-smoke.txt || { \
		echo "wastedcores-smoke: -scale 0.1 all differs from baselines/wastedcores-smoke.txt:"; \
		diff -u baselines/wastedcores-smoke.txt "$$tmp/out.txt" | head -40; exit 1; }; \
	for bad in -scale=-1 -scale=NaN tables; do \
		rc=0; out=$$("$$tmp/wastedcores" $$bad table1 2>&1) || rc=$$?; \
		if [ "$$rc" != 2 ] || grep -q '^Table 1' <<<"$$out"; then \
			echo "wastedcores-smoke: $$bad exited $$rc, want 2 before running: $$out"; exit 1; fi; \
	done; \
	echo "wastedcores-smoke: every experiment at -scale 0.1 prints the committed baseline; a bad -scale or experiment exits 2"

# The -baseline verdict itself, on built CLIs like shard-usage: against
# a copy of its smoke baseline with one trailing newline appended, each
# of campaign, bisect and tourney must exit 3 and print a non-empty
# report equal to the one it writes to -diff-out; and a -streak-k change
# must exit 3 with a report that names the streak_k stamp field.
baseline-verdict:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for cli in campaign bisect tourney; do $(GO) build -o "$$tmp/$$cli" ./cmd/$$cli; done; \
	expect3() { rc=0; "$$tmp/$$1" "$${@:2}" -q -diff-out "$$tmp/diff.txt" >"$$tmp/out.txt" 2>/dev/null || rc=$$?; \
		if [ "$$rc" != 3 ] || [ ! -s "$$tmp/out.txt" ] || ! cmp -s "$$tmp/out.txt" "$$tmp/diff.txt"; then \
			echo "baseline-verdict: $$* exited $$rc, want 3 with the same report printed and written:"; \
			cat "$$tmp/out.txt"; exit 1; fi; }; \
	for gate in campaign:-matrix bisect:-preset tourney:-preset; do \
		cli=$${gate%%:*}; cp baselines/$$cli-smoke.json "$$tmp/base.json"; echo >>"$$tmp/base.json"; \
		expect3 $$cli $${gate#*:} smoke -baseline "$$tmp/base.json"; \
	done; \
	expect3 bisect -preset smoke -streak-k 5 -baseline baselines/bisect-smoke.json; \
	grep -q streak_k "$$tmp/out.txt" || { echo "baseline-verdict: report does not name streak_k:"; \
		cat "$$tmp/out.txt"; exit 1; }; \
	echo "baseline-verdict: byte drift exits 3 with a report on campaign, bisect and tourney"

# The CI lattice: 48 scenarios under the race detector, gated against
# the committed rolling baseline ("exit status 3" in the output = the
# artifact differs from it; bisect-smoke-diff.txt says where). The second
# run repeats the sweep with -no-fork, one job per scenario, and cmp
# asserts the collapsed path's artifact is byte-identical to it — the
# divergence probe's equivalence contract, enforced on every push. The
# last cmp is the exact gate: the artifact must equal the baseline.
bisect-smoke:
	$(GO) run -race ./cmd/bisect -preset smoke -q -out bisect-smoke.json \
		-baseline baselines/bisect-smoke.json -diff-out bisect-smoke-diff.txt
	$(GO) run -race ./cmd/bisect -preset smoke -q -no-fork -out bisect-smoke-nofork.json
	cmp bisect-smoke.json bisect-smoke-nofork.json
	cmp bisect-smoke.json baselines/bisect-smoke.json

# The CI campaign: the 8-scenario smoke matrix, gated the same way.
campaign-smoke:
	$(GO) run ./cmd/campaign -matrix smoke -q -out campaign-smoke.json \
		-baseline baselines/campaign-smoke.json -diff-out campaign-smoke-diff.txt
	cmp campaign-smoke.json baselines/campaign-smoke.json

# The CI tournament: 18 scenarios (bulldozer8 x {make2r, nas-pin:lu} x
# nine policies), gated the same way; tourney-smoke-diff.txt also lists
# the per-cell policy verdicts (winner circles) that changed.
tourney-smoke:
	$(GO) run ./cmd/tourney -preset smoke -q -out tourney-smoke.json \
		-baseline baselines/tourney-smoke.json -diff-out tourney-smoke-diff.txt
	cmp tourney-smoke.json baselines/tourney-smoke.json

# The CI causal-observability gate: the smoke lattice with decision
# provenance and counterfactual episode replay (-explain), distilled by
# cmd/explain into just the explain data and gated against the
# committed rolling baseline — "exit status 3" here means an episode's
# counterfactual attribution or a cell's minimal-set cross-check
# changed, written to explain-smoke-diff.txt. cmd/explain's comparison
# is exact on its own (any byte difference fails it), so no cmp follows.
explain-smoke:
	$(GO) run ./cmd/bisect -preset smoke -explain -q -out explain-bisect.json
	$(GO) run ./cmd/explain -in explain-bisect.json -q -out explain-smoke.json \
		-baseline baselines/explain-smoke.json -diff-out explain-smoke-diff.txt

# Export a Perfetto/Chrome trace of the smoke matrix's lead scenario
# (a side run — artifact bytes are unaffected). Open trace-smoke.json
# at https://ui.perfetto.dev; CI uploads it as a workflow artifact.
trace-smoke:
	$(GO) run ./cmd/campaign -matrix smoke -q -out /dev/null \
		-trace-out trace-smoke.json

# The binary trace path, on binaries built once into a temp dir like
# shard-usage: the groupimbalance example writes groupimbalance.trace,
# which schedviz must render in every mode and as Perfetto JSON (exit
# 0); a truncated copy must exit 1 with a trace error and no panic, and
# an out-of-range -cores or -cols must exit 2.
schedviz-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/groupimbalance" ./examples/groupimbalance; \
	$(GO) build -o "$$tmp/schedviz" ./cmd/schedviz; \
	(cd "$$tmp" && ./groupimbalance >/dev/null); \
	sv() { rc=0; "$$tmp/schedviz" "$$@" >/dev/null 2>"$$tmp/err.txt" || rc=$$?; }; \
	for mode in size load considered balance episodes; do \
		sv -trace "$$tmp/groupimbalance.trace" -cores 64 -mode $$mode; \
		[ "$$rc" = 0 ] || { echo "schedviz-smoke: -mode $$mode exited $$rc:"; cat "$$tmp/err.txt"; exit 1; }; \
	done; \
	sv -trace "$$tmp/groupimbalance.trace" -cores 64 -perfetto "$$tmp/trace.json"; \
	[ "$$rc" = 0 ] || { echo "schedviz-smoke: -perfetto exited $$rc:"; cat "$$tmp/err.txt"; exit 1; }; \
	head -c 1000 "$$tmp/groupimbalance.trace" >"$$tmp/truncated.trace"; \
	sv -trace "$$tmp/truncated.trace" -cores 64; \
	if [ "$$rc" != 1 ] || ! grep -q '^schedviz: trace: ' "$$tmp/err.txt" || grep -q 'panic:' "$$tmp/err.txt"; then \
		echo "schedviz-smoke: truncated trace exited $$rc, want 1 with a trace error:"; cat "$$tmp/err.txt"; exit 1; fi; \
	for bad in "-cores 0" "-cores 129" "-cols -1"; do \
		sv -trace "$$tmp/groupimbalance.trace" $$bad; \
		[ "$$rc" = 2 ] || { echo "schedviz-smoke: $$bad exited $$rc, want 2"; exit 1; }; \
	done; \
	echo "schedviz-smoke: every mode and -perfetto render the example trace; a truncated trace exits 1, bad -cores/-cols exit 2"

# Every example program, on binaries built once into a temp dir like
# shard-usage: each examples/* directory with a main.go must build, exit
# 0 and print something. Each runs with the temp dir as its working
# directory, because groupimbalance writes its trace there.
examples-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	n=0; for dir in examples/*/; do \
		[ -f "$$dir/main.go" ] || continue; \
		ex=$$(basename "$$dir"); \
		$(GO) build -o "$$tmp/$$ex" "./$${dir%/}"; \
		rc=0; (cd "$$tmp" && "./$$ex" >"$$ex.out" 2>"$$ex.err") || rc=$$?; \
		[ "$$rc" = 0 ] || { echo "examples-smoke: $$ex exited $$rc:"; cat "$$tmp/$$ex.err"; exit 1; }; \
		[ -s "$$tmp/$$ex.out" ] || { echo "examples-smoke: $$ex printed nothing"; exit 1; }; \
		n=$$((n + 1)); \
	done; \
	echo "examples-smoke: all $$n example programs exit 0 with output"

# The default-scale gates: the 128-point lattice and the 30-scenario
# campaign, gated like the smoke ones. Each simulates in under a
# second, so they run on every push. The lattice also repeats with
# -no-fork and cmps the two, like bisect-smoke: its 8 cells bring
# machine32 and the hotplug workload nas-hotplug:lu, which the smoke
# lattice lacks, under the collapse's equivalence check.
bisect-default:
	$(GO) run ./cmd/bisect -preset default -q -out bisect-default.json \
		-baseline baselines/bisect-default.json -diff-out bisect-default-diff.txt
	$(GO) run ./cmd/bisect -preset default -q -no-fork -out bisect-default-nofork.json
	cmp bisect-default.json bisect-default-nofork.json
	cmp bisect-default.json baselines/bisect-default.json

campaign-default:
	$(GO) run ./cmd/campaign -matrix default -scale 0.25 -q -out campaign-default.json \
		-baseline baselines/campaign-default.json -diff-out campaign-default-diff.txt
	cmp campaign-default.json baselines/campaign-default.json

# Regenerate the committed rolling baselines after an *intentional*
# scheduler-model change (commit the result; CI cmps against these).
# Covers the smoke and the default-scale baselines, so additive
# artifact fields land in all six at once, and the paper tables that
# wastedcores-smoke gates.
baseline-refresh:
	$(GO) run ./cmd/bisect -preset smoke -q -out baselines/bisect-smoke.json
	$(GO) run ./cmd/campaign -matrix smoke -q -out baselines/campaign-smoke.json
	$(GO) run ./cmd/tourney -preset smoke -q -out baselines/tourney-smoke.json
	$(GO) run ./cmd/bisect -preset smoke -explain -q -out explain-bisect.json
	$(GO) run ./cmd/explain -in explain-bisect.json -q -out baselines/explain-smoke.json
	$(GO) run ./cmd/bisect -preset default -q -out baselines/bisect-default.json
	$(GO) run ./cmd/campaign -matrix default -scale 0.25 -q -out baselines/campaign-default.json
	$(GO) run ./cmd/wastedcores -scale 0.1 all >baselines/wastedcores-smoke.txt

ci: lint build race bench-test shard-usage wastedcores-smoke baseline-verdict bisect-smoke campaign-smoke tourney-smoke \
	explain-smoke schedviz-smoke examples-smoke bisect-default campaign-default
