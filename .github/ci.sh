#!/usr/bin/env bash
# Everything CI checks, one lane per job: .github/ci.sh <lane>, from anywhere
# in the checkout. Needs go and, for the serve, cluster and harness lanes,
# curl and jq. The serve and cluster lanes listen on localhost:8347; scratch
# files and binaries go to a temporary directory that is removed on exit,
# together with every server the lane started.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
cleanup() {
	status=$?
	if [ "$status" -ne 0 ]; then
		tail -n 50 "$work"/*.log 2>/dev/null || true # the cluster lane's server logs
	fi
	kill $(jobs -p) 2>/dev/null && wait || true
	rm -rf "$work"
	exit "$status"
}
trap cleanup EXIT

url=http://localhost:8347
lx() { "$work/lapses-experiments" "$@"; }

build_service() { go build -o "$work/" ./cmd/lapses-serve ./cmd/lapses-experiments; }

wait_healthy() {
	for _ in $(seq 1 50); do
		curl -fs $url/healthz >/dev/null && return
		sleep 0.2
	done
	echo "no healthy server at $url"
	return 1
}

# table <file>: an experiment's output without its "[...]" timing and
# job-summary lines, the part that must be byte-identical however it ran.
table() { grep -v '^\[' "$1"; }

# no_resimulation <file>: a resubmitted grid must be served entirely from
# the store — no "serve job" line may report a nonzero simulated count.
no_resimulation() {
	if grep -E 'serve job .*, [1-9][0-9]* simulated' "$1"; then
		echo "resubmitted grid re-simulated stored points"
		return 1
	fi
}

# harness <workload>: one short run of the repo benchmark, every result
# checked by the harness itself; prints the result line. Correctness only:
# CI runners are not the reference box, so no timing is asserted.
harness() {
	local out
	out=$(go run ./benchmark --workload "$1" --seconds 3 --trace 0 | tail -n 1)
	grep -q '"correct":true' <<<"$out"
	echo "$out"
}

case "${1:-}" in
unit)
	go vet ./...
	# Formatting is a gate, not a habit: any file gofmt would rewrite
	# fails the lane, named.
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt would rewrite:"
		echo "$unformatted"
		exit 1
	fi
	go build ./...
	# The store reads entries with raw system calls on Unix and with
	# os.ReadFile elsewhere: neither form may stop building.
	GOOS=darwin go build ./...
	GOOS=windows go build ./cmd/... ./internal/...
	# The Go spec lets a build fuse x*y + z into one rounding, and arm64,
	# ppc64le, s390x and riscv64 do; amd64 never does. A fused site would
	# let a worker there store other bits under the same key, so every one
	# carries an explicit float64(...) conversion, which forbids fusing.
	# This lists any site that lacks one, by file:line. The build uses a
	# throwaway cache: a package served from the cache prints no assembly,
	# and the gate would then pass without looking.
	for arch in arm64 ppc64le s390x riscv64; do
		GOARCH=$arch GOCACHE="$work/gocache" go build -gcflags=-S ./internal/... 2>"$work/asm.txt"
		if [ ! -s "$work/asm.txt" ]; then
			echo "GOARCH=$arch printed no assembly: nothing was checked"
			exit 1
		fi
		fused=$(grep -E '\)[[:space:]]+(W?FN?M(ADD|SUB)[A-Z]*|WFN?M[AS]DB)[[:space:]]' "$work/asm.txt" |
			sed -E 's/^[^(]*\(([^)]*\.go:[0-9]+)\)[[:space:]]+([A-Z0-9]+).*$/\1 \2/' | sort -u || true)
		if [ -n "$fused" ]; then
			echo "GOARCH=$arch fuses floating-point operations at:"
			echo "$fused"
			exit 1
		fi
	done
	rm -rf "$work/gocache" "$work/asm.txt"
	# The short suite holds every table organization to the routing
	# function it encodes, on the routers the simulator builds
	# (internal/core TestTablesEqualAlgorithm: every organization x
	# algorithm x {1,2,3}-D x {mesh, torus} that Validate accepts, every
	# lookup), and pins the printed programmings of Fig. 7, Fig. 8 and the
	# interval table (internal/experiments TestRegistryOutputPinned).
	go test -short ./...
	# One real 8x8 saturation search: asserts the bisection converges on
	# the same knee as the dense-grid reference path and spends at most
	# half its simulated cycles (measured ~5-6x fewer; the >=2x bar is the
	# regression floor, well above the 1.5x minimum this gate exists to
	# hold).
	go test -run TestBisectCycleReduction -v ./internal/sweep
	# Damage is one flag: a count of random dead links (a static plan), and
	# a spec whose items may be timed — a link failing and healing mid-run
	# plus a router dead from the start, under the retransmission layer.
	go run ./cmd/lapses-sim -faults 4 -measure 3000
	go run ./cmd/lapses-sim -faults '12-13@2000:4000,r9' -reliability -measure 3000
	# Random selection keys each draw by (seed, router, message), so a run
	# repeats itself on either kernel.
	go build -o "$work/" ./cmd/lapses-sim
	for ev in "" -events; do
		"$work/lapses-sim" -selection random -measure 3000 $ev >"$work/random1.txt"
		"$work/lapses-sim" -selection random -measure 3000 $ev >"$work/random2.txt"
		diff "$work/random1.txt" "$work/random2.txt"
	done
	# core.Config.Validate is the one validator: a config no layer below can
	# run is refused by it, naming the field, with usage status 2. An 8-D
	# mesh is one: its routers would hold more input VCs than the arbiters
	# index.
	invalid() { # invalid <field> <args...>: exit 2 with core's refusal naming <field>
		local field=$1 code=0
		shift
		timeout 10 "$work/lapses-sim" "$@" 2>"$work/reject.txt" || code=$?
		[ "$code" -eq 2 ] && grep -q "^lapses-sim: core: .*$field" "$work/reject.txt"
	}
	invalid MsgLen -msglen 0
	invalid Dims -dims 2x2x2x2x2x2x2x2 -alg xy
	# A load so low, or a Warmup+Measure so large, that the derived cycle
	# budget overflows: each ran one cycle, then reported the budget
	# exhausted with nothing delivered.
	invalid Load -dims 4x4 -load 1e-300 -measure 10
	invalid Warmup -dims 4x4 -warmup 9223372036854775807
	# -max-cycles sets the budget that refusal asks for: the run ends there,
	# saturated, with status 0. A negative budget is refused by name.
	"$work/lapses-sim" -dims 4x4 -load 1e-300 -measure 10 -max-cycles 100 >"$work/budget.txt"
	grep -q '^saturated      cycle budget exhausted' "$work/budget.txt"
	invalid MaxCycles -dims 4x4 -load 1e-300 -measure 10 -max-cycles -1
	# An idle stretch is no deadlock: at this load messages enter more than
	# 50 000 cycles apart, and every one is delivered.
	"$work/lapses-sim" -dims 4x4 -load 1e-5 -warmup 0 -measure 20 >"$work/sparse.txt"
	grep -q '^delivered      20 messages' "$work/sparse.txt"
	if grep -q '^saturated' "$work/sparse.txt"; then exit 1; fi
	# The router is Table 2's and the escape VCs follow from the algorithm
	# and the topology, so there is no -escape, -vcs or -buf, and every run
	# measures a fixed sample, so there is no -auto-tol: asking for one is
	# an unknown flag, usage status 2.
	for args in "-escape 1" "-vcs 4" "-buf 20" "-auto-tol 0.03"; do
		code=0
		"$work/lapses-sim" $args 2>"$work/reject.txt" || code=$?
		[ "$code" -eq 2 ]
		grep -q -- "${args% *}" "$work/reject.txt"
	done
	# A word the flag package would stop at (the "false" of "-lookahead
	# false", which ran LA-PROUD), a seed with no random draw to seed, a
	# NaN high-class fraction, an endless burst and the retired
	# -reliability values are refused, naming the cause, with usage
	# status 2; each used to run something other than what was asked.
	rejected() { # rejected <pattern> <args...>: exit 2 with a message matching <pattern>
		local pattern=$1 code=0
		shift
		"$work/lapses-sim" "$@" 2>"$work/reject.txt" || code=$?
		[ "$code" -eq 2 ] && grep -q -- "$pattern" "$work/reject.txt"
	}
	rejected 'unexpected argument "false"' -lookahead false
	rejected '^lapses-sim: -fault-seed ' -fault-seed 7
	rejected '^lapses-sim: core: QoS ' -qos NaN
	rejected 'Burst.MeanOn +Inf' -burst 0.3,+Inf
	rejected 'unexpected argument "2048,12,64"' -reliability 2048,12,64
	rejected 'unexpected argument "on"' -reliability on
	# A failed run still stops and flushes its CPU profile.
	code=0
	"$work/lapses-sim" -cpuprofile "$work/cpu.pprof" -dims 1x4 2>"$work/reject.txt" || code=$?
	[ "$code" -eq 2 ]
	go tool pprof -top "$work/cpu.pprof" >/dev/null
	# A load no node can inject is refused the same way; before Validate
	# bounded it the injector drew forever, so each run has a deadline.
	for load in Inf 1e300; do
		code=0
		timeout 10 "$work/lapses-sim" -load $load 2>"$work/reject.txt" || code=$?
		[ "$code" -eq 2 ]
		grep -q '^lapses-sim: core: Load ' "$work/reject.txt"
	done
	# So is a burst whose ON state offers more than that (the mean rate
	# over OnFrac): its source drew forever too.
	code=0
	timeout 10 "$work/lapses-sim" -dims 4x4 -measure 300 -burst 1e-300,200 2>"$work/reject.txt" || code=$?
	[ "$code" -eq 2 ]
	grep -q '^lapses-sim: core: .*Burst.OnFrac' "$work/reject.txt"
	# lapses-experiments refuses a flag its run never reads, by name and
	# before any simulation or health check: -reps without -csv, -workers
	# with -server (the URL is unreachable; the refusal comes first); and
	# a positional argument, which the flag package would stop at.
	go build -o "$work/" ./cmd/lapses-experiments
	refused() { # refused <flag> <args...>: exit 2 with a message naming <flag>
		local flag=$1 code=0
		shift
		lx "$@" 2>"$work/reject.txt" || code=$?
		[ "$code" -eq 2 ] && grep -q "^lapses-experiments: $flag " "$work/reject.txt"
	}
	refused -reps -exp table1 -reps 3
	refused -workers -exp table1 -server http://127.0.0.1:1 -workers 4
	refused 'unexpected argument "stray"' -exp table1 stray
	# The table programmings are registry experiments, pinned by
	# TestRegistryOutputPinned; one is pinned through the command too. The
	# command closes each experiment with a blank line, its "[... done in
	# ...]" line and another blank line.
	lx -exp fig8 >"$work/fig8.txt"
	diff <(table "$work/fig8.txt") <(cat internal/experiments/testdata/fig8.txt && printf '\n\n')
	# The adaptive measurement tier is gone: -fidelity auto is refused by
	# name.
	code=0
	lx -exp table1 -fidelity auto 2>"$work/reject.txt" || code=$?
	[ "$code" -eq 2 ]
	grep -q 'unknown fidelity "auto"' "$work/reject.txt"
	# Experiments answer from the cycle-driven kernel only: -events is an
	# unknown flag (the event kernel is a lapses-sim -events run).
	code=0
	lx -exp table1 -events 2>"$work/reject.txt" || code=$?
	[ "$code" -eq 2 ]
	grep -q 'flag provided but not defined: -events' "$work/reject.txt"
	# A structure whose table build panics must panic again on the next
	# touch, not hand back a remembered error: run the test twice in one
	# process.
	go test -count=2 -run TestPanicIsolatedThroughCoreRun ./internal/sweep
	;;
full)
	# The full-fidelity paper-claim tests (skipped under -short) still
	# gate every change; they run in parallel and finish in ~a minute.
	go test ./...
	# Every example program runs clean (about 22 s together; storage and
	# pathselection are most of it).
	for example in examples/*/; do
		go run "./$example" >/dev/null
	done
	;;
race)
	# Kernel + sweep + experiments. internal/router carries
	# TestFifoRunsAgainstFlitModel (run-length buffers against a
	# flit-array reference) and internal/table TestSignTablesEqualRoute
	# (every organization's shared lookup against its algorithm);
	# internal/core carries TestPlumbingConcurrentFirstTouch (eight
	# goroutines first-touching one cold structure: the single-flight
	# build of the routes they then share), its parallel tests sharing
	# the plumbing cache, and the arena free list's pins:
	# TestConcurrentRunsMatchSerial (eight goroutines on one shape, each
	# in its own recycled arena, equal to their serial results),
	# TestPanicDropsArena, TestArenaPoolBounded and
	# TestShapeLimitsValidateOrRun (every case run twice in a row);
	# internal/network carries the kernel invariants and fast-forward
	# regression tests, whose parallel subtests share prebuilt tables, and
	# TestResetEqualsNew (a dirtied network reset in place against a fresh
	# one, field by field and run by run); internal/sweep carries
	# TestBisectDeterminism (the saturation search on 1 worker vs N) and
	# the worker pool, memo cache and cancellation tests.
	go test -race -short ./internal/router ./internal/table ./internal/core ./internal/network ./internal/sweep ./internal/experiments
	# The event-vs-cycle equivalence suite skips under -short, so it gets
	# its own race invocation: its healthy, faulted and torus points each
	# build a cold structure whose routes every router reads, on the
	# kernel the short suite exercises least. TestGoldenEvent (also
	# skipped under -short) rides along: the event kernel's own bit-exact
	# fixture, 26 runs.
	go test -race -run 'TestEventMode|TestGoldenEvent' -v ./internal/core
	# Chaos smoke: one quick-fidelity availability point, a staggered
	# link/router storm with mid-run reconvergence, run both with and
	# without the end-to-end retransmission layer: the policy x
	# reliability points run on concurrent sweep workers sharing the
	# plumbing cache while each applies its transitions (epoch swap, purge,
	# credit recompute) and NI ARQ timers.
	go test -race -run 'TestClaimAvailability' -v ./internal/experiments
	;;
harness)
	# kernel-short: 90 hundred-message runs over 30 structures in a fresh
	# process, so every structure is built cold (21 builds: es, full and
	# interval over one algorithm share one, and a healthy mesh build is
	# one row of 3^n RouteSigns calls) and every network reset from an
	# arena. The heap is machine-independent enough for a ceiling: peak
	# RSS reads about 19-27 MB now that every node's generator seeds in O(1)
	# (it was about 30 MB while each seeding expanded and copied a 4.9 KB
	# vector, 43 before a run recycled an idle network of its shape, 68
	# with a network per run, and 215 when every full-table entry held its
	# own route set).
	harness kernel-short | jq -e '.metrics.peak_rss_mb.value <= 50'
	# kernel-congested: three runs at and past saturation, where buffers
	# are full and most worms are parked — the regime in which the
	# router's standing crossbar/mux/free-VC request masks are raised,
	# withdrawn and woken rather than merely set once.
	harness kernel-congested
	# kernel-event: the express path end to end — worm admission, per-flit
	# express, unpacking at contended routers — entered through the one
	# event-mode arrival; the harness holds the event twin to its
	# cycle-mode reference.
	harness kernel-event
	# kernel-flow: the per-flit path below saturation, and the only kernel
	# workload with 5-flit messages, max-credit selection, bit-reversal
	# traffic and a 32x32 point.
	harness kernel-flow
	# grid-inproc: a 65-point figure grid through sweep.Run with 2 workers,
	# checked for its 52 simulated / 13 memo-reused split.
	harness grid-inproc
	;;
serve)
	# served-warm: a fully stored grid resubmitted through the default
	# client, every result checked against the stored bytes.
	harness served-warm
	# Crash-safety of the lapses-serve service: a quick-tier grid served
	# over HTTP must be byte-identical to the in-process run, and after a
	# kill -9 mid-grid the restarted server must serve every
	# already-completed point from the store (no quarantined entries, no
	# re-simulation on resubmit). A standalone server runs its jobs on the
	# cluster's lease path, through its one in-process Worker: the served
	# fig5 must show up as claims in its lease counters. Its CSV is the
	# in-process one, and it comes from the rows the table was rendered
	# from: one grid, one job.
	build_service
	cd "$work"
	# A flag the mode never reads is refused at start with usage status 2.
	# Under timeout: a worker that started anyway would claim for ever.
	code=0
	timeout 10 ./lapses-serve -mode worker -peers $url -store store -retries 2 2>refused.txt || code=$?
	[ "$code" -eq 2 ]
	grep -q -- '-retries does not apply in worker mode' refused.txt
	# The heartbeat cadence is a quarter of -lease-ttl, not a flag, and a
	# lease is one point, so there is no unit size: asking for either is
	# an unknown flag, with usage status 2.
	for flag in -heartbeat -unit; do
		code=0
		timeout 10 ./lapses-serve -mode coordinator $flag 4 -store store 2>refused.txt || code=$?
		[ "$code" -eq 2 ]
		grep -q -- "$flag" refused.txt
	done
	./lapses-serve -store store &
	server=$!
	wait_healthy
	# /healthz names the simulator semantics version the store keeps.
	curl -fs $url/healthz | jq -e '.semantics_version >= 1'
	# A member the server does not read is refused by name, not dropped:
	# this point misspells lookahead, which would otherwise run PROUD.
	code=$(curl -s -o refused.json -w '%{http_code}' -H 'Content-Type: application/json' $url/v1/jobs \
		-d '{"points":[{"dims":[4,4],"look_ahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.1,"msg_len":20,"warmup":10,"measure":100,"seed":1}]}')
	[ "$code" -eq 400 ]
	jq -e '.error | contains("\"look_ahead\"")' refused.json
	# So is a router member fixed at Table 2 or derived from the algorithm,
	# a reliability or QoS parameter object (the layer is a switch and QoS
	# its high-class fraction), the latency guard, the kernel's constant,
	# the tolerance of the adaptive measurement tier, which is gone, and
	# event mode: a served point runs on the cycle-driven kernel.
	for member in '"escape_vcs":1' '"vcs":4' '"reliability":{"rto":512}' '"qos":{"hi_frac":0.2}' '"sat_latency":5000' '"auto_tol":0.03' '"event_mode":true'; do
		code=$(curl -s -o refused.json -w '%{http_code}' -H 'Content-Type: application/json' $url/v1/jobs \
			-d '{"points":[{"dims":[4,4],'"$member"',"lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.1,"msg_len":20,"warmup":10,"measure":100,"seed":1}]}')
		[ "$code" -eq 400 ]
		jq -e --arg m "${member%%:*}" '.error | contains($m)' refused.json
	done
	mkdir served-csv local-csv
	lx -exp fig5 -fidelity quick -csv served-csv -server $url >served.txt
	[ "$(grep -c 'serve job' served.txt)" -eq 1 ]
	curl -fs $url/v1/cluster | jq -e '.claims > 0'
	# The job is the one place a served grid is deduplicated: a job whose
	# two points are the same point is one lease, one simulation and one
	# cached repeat.
	claims=$(curl -fs $url/v1/cluster | jq .claims)
	twice='{"dims":[4,4],"lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.1,"msg_len":20,"warmup":10,"measure":100,"seed":59}'
	id=$(curl -fs -H 'Content-Type: application/json' $url/v1/jobs -d "{\"points\":[$twice,$twice]}" | jq -r .id)
	curl -fs "$url/v1/jobs/$id?wait_ms=30000" | jq -e '.state == "done" and .simulated == 1 and .cached == 1'
	curl -fs $url/v1/cluster | jq -e --argjson c "$claims" '.claims == $c + 1'
	lx -exp fig5 -fidelity quick -csv local-csv >local.txt
	diff <(table served.txt) <(table local.txt)
	diff served-csv/fig5.csv local-csv/fig5.csv

	lx -exp fig6 -fidelity quick -server $url >interrupted.txt 2>&1 &
	client=$!
	sleep 1
	kill -9 "$server"
	# The client must fail loudly, not produce a partial table.
	if wait "$client"; then
		echo "client succeeded against a dead server"
		exit 1
	fi

	./lapses-serve -store store &
	wait_healthy
	# kill -9 must not have corrupted a single entry.
	curl -fs $url/v1/store | tee store.json
	jq -e '.quarantined == 0' store.json
	lx -exp fig5 -fidelity quick -server $url >resub.txt
	no_resimulation resub.txt
	diff <(table resub.txt) <(table local.txt)
	# The interrupted fig6 grid resumes: the rerun completes and the
	# points its first attempt persisted are not simulated again.
	lx -exp fig6 -fidelity quick -server $url >/dev/null
	# -exp scaling's fixed-budget overdriven points complete no batch, so
	# their CI95 is +Inf: results the wire and the store carry like any
	# other. Served must equal in-process, a resubmission must simulate
	# nothing, and no put may have failed. Its saturation searches advance
	# in lockstep, one job per round of all of them: the fixed points plus
	# the longest search's rounds, not a job per round of every search.
	lx -exp scaling -fidelity quick -server $url >scaling.txt
	[ "$(grep -c 'serve job' scaling.txt)" -le 6 ]
	lx -exp scaling -fidelity quick >scaling-local.txt
	diff <(table scaling.txt) <(table scaling-local.txt)
	lx -exp scaling -fidelity quick -server $url >scaling-resub.txt
	no_resimulation scaling-resub.txt
	curl -fs $url/v1/store | jq -e '.put_failures == 0'
	# Timed damage and the reliability layer travel on the wire too: the
	# availability storm served equals in-process, and a resubmission is
	# answered from the store.
	lx -exp availability -fidelity quick -server $url >availability.txt
	lx -exp availability -fidelity quick >availability-local.txt
	diff <(table availability.txt) <(table availability-local.txt)
	lx -exp availability -fidelity quick -server $url >availability-resub.txt
	no_resimulation availability-resub.txt
	diff <(table availability-resub.txt) <(table availability-local.txt)
	;;
cluster)
	# The deterministic chaos pins first, under the race detector on the
	# coordinator/worker interleavings: orphaned-lease recovery within one
	# TTL, drain requeue, the panic taxonomy (a panic fails its point on
	# its first lease) and the exactly-once simulation accounting (a job
	# leases each distinct key once and records its outcome at every
	# point that shares the key; a re-leased point whose first lease
	# finished is a store hit), plus the
	# server-held waits (status and claim requests parked on a channel,
	# woken by completion, requeue and drain), a Worker running -workers
	# one-point leases at once and claiming only while a slot is free, a
	# grant whose point lacks a member failing that point, a completion
	# resolving the point its lease names and no other, a point resolved
	# while queued never leased again, each side refusing the other's
	# message in the array form of an older build, and a claim under
	# another semantics version refused, which stops its worker.
	# TestServer* and TestOneExecutionPath ride along: a standalone
	# server's jobs run on the same lease goroutines, leased to its one
	# in-process Worker, which claims and heartbeats by function call.
	# TestStore and TestResultsBody too: the store pre-scan's goroutines
	# hand each job the verified bytes its results body is built from.
	go test -race -run 'TestCluster|TestClient|TestStore|TestResultsBody|TestWait|TestStatusHold|TestShutdownReleases|TestHeldClaim|TestParkedWorker|TestServer|TestOneExecutionPath|TestWorker' -v ./internal/serve
	# Then end to end: one coordinator leasing a quick-tier grid to three
	# workers over a shared store, one worker kill -9'd mid-sweep and a
	# second drained by SIGTERM. The job must complete, the merged output
	# must be byte-identical to the in-process run, and resubmitting must
	# re-simulate nothing.
	build_service
	cd "$work"
	./lapses-serve -mode coordinator -store store -lease-ttl 2s 2>coord.log &
	wait_healthy
	# The lease wire, pinned on the binary before any worker starts: a
	# claim names the semantics version /healthz reports, and one naming
	# another is refused naming "version"; a grant carries one "point" and
	# no "indices"; a completion in the array form of an older build
	# ("reports") is refused naming it; and one with no outcome hands the
	# point back, for the workers to finish.
	post() { curl -fs -H 'Content-Type: application/json' "$url/v1/$1" -d "$2"; }
	version=$(curl -fs $url/healthz | jq -e .semantics_version)
	post jobs '{"points":[{"dims":[4,4],"lookahead":true,"algorithm":"duato","table":"es","selection":"lru","pattern":"uniform","load":0.1,"msg_len":20,"warmup":10,"measure":100,"seed":7}]}' >/dev/null
	code=$(curl -s -o refused.json -w '%{http_code}' -H 'Content-Type: application/json' $url/v1/cluster/claim \
		-d '{"worker":"curl","version":0}')
	[ "$code" -eq 400 ]
	jq -e '.error | contains("\"version\"")' refused.json
	post cluster/claim "{\"worker\":\"curl\",\"version\":$version,\"wait_ms\":2000}" >grant.json
	jq -e '.point.seed != null and .indices == null' grant.json
	lease=$(jq -r .lease grant.json)
	job=$(jq -r .job grant.json)
	code=$(curl -s -o refused.json -w '%{http_code}' -H 'Content-Type: application/json' $url/v1/cluster/complete \
		-d "$(jq -nc --arg l "$lease" --arg j "$job" '{lease:$l,job:$j,worker:"curl",reports:[]}')")
	[ "$code" -eq 400 ]
	jq -e '.error | contains("\"reports\"")' refused.json
	post cluster/complete "$(jq -nc --arg l "$lease" --arg j "$job" '{lease:$l,job:$j,worker:"curl"}')" | jq -e '.ok'
	workers=()
	for w in 1 2 3; do
		./lapses-serve -mode worker -peers $url -store store -worker-id "w$w" 2>"worker$w.log" &
		workers+=($!)
	done
	lx -exp fig5 -fidelity quick -server $url >clustered.txt 2>&1 &
	client=$!
	# Give the sweep a moment to spread across the workers, then hard-kill
	# one: its leases go silent and must be requeued by the TTL failure
	# detector, not lost.
	sleep 1
	kill -9 "${workers[0]}"
	# Then drain a second one mid-sweep (the client must still be
	# running): it finishes and reports its in-flight points, hands back
	# any lease it has not started for immediate requeue, and exits 0.
	sleep 1
	kill -0 "$client"
	kill -TERM "${workers[1]}"
	wait "${workers[1]}"
	wait "$client"
	lx -exp fig5 -fidelity quick >local.txt
	diff <(table clustered.txt) <(table local.txt)
	# Every point the dead worker persisted before the kill is durable in
	# the shared store.
	lx -exp fig5 -fidelity quick -server $url >resub.txt
	no_resimulation resub.txt
	diff <(table resub.txt) <(table local.txt)
	# The lease counters must show the cluster actually clustered, and the
	# store kept a clean bill of health.
	curl -fs $url/v1/cluster | tee cluster.json
	jq -e '.coordinator == true' cluster.json
	curl -fs $url/healthz | tee health.json
	jq -e '.store.quarantined == 0' health.json
	;;
fuzz)
	# Short bounded fuzzing of the fault-plan and router invariants, so
	# regressions in degraded-topology handling surface without
	# open-ended runtime.
	go test -run '^$' -fuzz FuzzFaultPlan -fuzztime 10s ./internal/network
	# Random transient schedules over random traffic: exactly-once
	# delivery with the reliability layer, exact loss accounting without
	# it, and full quiescence after every storm.
	go test -run '^$' -fuzz FuzzFaultSchedule -fuzztime 10s ./internal/network
	# Random radices, dimensions, wraparound and VC classes: every table
	# of every algorithm defined there equals the algorithm.
	go test -run '^$' -fuzz FuzzSignTables -fuzztime 10s ./internal/table
	# Random seeds and Rand call sequences: the O(1)-seeded generator
	# replays math/rand's streams across its expansion and its wrap.
	go test -run '^$' -fuzz FuzzFibSource -fuzztime 10s ./internal/lfib
	# Random store entries: whatever the one-pass entry reader accepts,
	# encoding/json reads the same key, checksum and result; a store
	# reading the bytes from disk gives the reader's verdict, on the first
	# read and on the repeat its memo of accepted bytes serves; every
	# entry the store writes is read back exactly.
	go test -run '^$' -fuzz FuzzStoreEntry -fuzztime 10s ./internal/serve
	# Random result payloads: the strict one-pass decoder accepts exactly
	# what json.Valid and encoding/json accept (floats also exactly
	# "+Inf", "-Inf" or "NaN") and reads every field to the same bits.
	go test -run '^$' -fuzz FuzzResultJSON -fuzztime 10s ./internal/core
	# Random results bodies: the client's one-pass decoder fails exactly
	# when json.Unmarshal into a JobResults fails and otherwise reads the
	# same status and outcomes, every result field to the bit.
	go test -run '^$' -fuzz FuzzJobResults -fuzztime 10s ./internal/serve
	;;
*)
	echo "usage: $0 unit|full|race|harness|serve|cluster|fuzz" >&2
	exit 2
	;;
esac
