# Build and verification tiers for the reproduction.
#
# tier-1 (`make test`) is the fast gate every change must keep green:
# a full build plus the unit/integration suite in virtual time.
#
# `make verify` is the release tier: vet, the full suite, the same
# suite under the Go race detector, and the internal/mpi coverage
# floor. The simulation kernel hands a
# single execution token between cooperative Procs, so simulated code
# is race-clean by construction — the race run exists to prove that
# claim stays true (kernel internals, test goroutines, and any future
# real-concurrency helpers), not because simulated Procs could race.
#
# `make cover` writes an HTML coverage report to cover.html.

GO ?= go

.PHONY: all build test benchtest race vet lint cover covercheck verify figures bench sweep timeline soak loc clean

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Style tier: gofmt cleanliness plus vet, of the root module and of the
# nested benchmark/ module (which root `go build ./...` never compiles,
# yet reflects over the layers' Stats structs). gofmt -l prints
# offending files; any output fails the tier so an unformatted file
# cannot land.
lint: vet
	cd benchmark && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@echo "lint green: gofmt + vet clean"

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	$(GO) tool cover -html=cover.out -o cover.html
	@echo "wrote cover.html"

# Per-package statement-coverage floors, as internal/<pkg>:<floor %>
# pairs. Each floor sits just below the package's coverage so ordinary
# refactors pass while a change that lands uncovered paths fails loudly
# here instead of rotting silently:
#   mpi      the rendezvous conformance/fault/edge batteries, the
#            collective liveness, partition and schedule batteries, and
#            the algorithm-selection and wire-decoder checks;
#   spin     the handler verdict/budget/rollback semantics the ring
#            integration and the E12 figures rest on;
#   trace, metrics
#            the capped recorder's eviction accounting and the metrics
#            registry and snapshot stream, which MayHaveDroppedMsg and
#            the sweep trajectory rest on;
#   liveness, fault
#            the cut-corroborated partition declaration, quorum election
#            and fence/heal/resync transitions, and the scripted fault
#            injection (link cut/splice, schedule validation) they are
#            proven against;
#   xport    the switch model the Fig. 2/3/5/6 Fast Ethernet, ATM and Myrinet baselines rest on,
#            and the Inbox reassembler and Mcast destination rule every frame transport shares;
#   tcpip    the TCP-lite window, Nagle and delayed-ACK paths and its receive loop, which the
#            Fast Ethernet, ATM and Myrinet TCP baselines of Figs. 2, 3, 5 and 6 rest on;
#   myrinet  the native Myrinet API's fragmenting send and polling receive, the Fig. 2 crossover
#            and the hybrid router's high-bandwidth path rest on;
#   sim      the hand-written 4-ary event heap whose (t, seq) pop order every figure's determinism rests on;
#   bench    the one driver per measured scenario (ping-pong, stream, barrier, incast, message rate, E6 loss run) every figure and BENCH number comes from;
#   timeline the observed E6 run and the span/snapshot joins (breakdowns, co-spikes) cmd/timeline and make timeline render;
#   core     the BBP receive and poll paths (the event-driven poller included) that every BBP latency rests on;
#   scramnet the paged replicated bank and owner table (every access path, FuzzBank's seed corpus) and the ring's packet life cycle that every SCRAMNet number rests on;
#   hybrid   the §7 router's resequencing, failover and poller-run receives (Sweep, Recv, RecvAny and the twins that pin them to the TryRecv loops) that bulk_hybrid and E10 rest on.
COVER_FLOORS := mpi:88.0 spin:80.0 trace:85.0 metrics:85.0 liveness:85.0 fault:80.0 xport:90.0 tcpip:93.0 myrinet:96.5 sim:91.5 bench:89.0 timeline:88.5 core:89.5 scramnet:87.5 hybrid:92.5

covercheck: build
	@for pf in $(COVER_FLOORS); do \
		pkg=$${pf%%:*}; floor=$${pf#*:}; \
		$(GO) test -coverprofile=.cover.$$pkg.out ./internal/$$pkg > /dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=.cover.$$pkg.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		rm -f .cover.$$pkg.out; \
		if awk "BEGIN {exit !($$pct >= $$floor)}"; then \
			echo "covercheck green: internal/$$pkg statement coverage $$pct% (floor $$floor%)"; \
		else \
			echo "internal/$$pkg statement coverage $$pct% fell below the $$floor% floor"; \
			exit 1; \
		fi; \
	done

# The nested benchmark/ module's own tests (determinism, smoke, plan
# and comparison checks) run here too, since root `go test ./...` never
# reaches them: a change to the program that breaks the benchmark fails
# locally rather than only in an A/B run.
benchtest:
	cd benchmark && $(GO) test .

verify: lint test benchtest race covercheck timeline soak
	@echo "verify tier green: lint + test + benchtest + race + covercheck + timeline + soak"

# Robustness soak tier: the multi-seed fault + liveness battery under
# the race detector. Each seed generates a script mixing loss windows
# with node fail/repair cycles against a heartbeat-enabled cluster and
# live retry traffic, then requires every node's failure detector to
# have reconverged to an all-alive membership view with the traffic
# delivered intact. The false-positive property (loss windows alone
# never kill anyone) and the MPI dead-peer acceptance test run in the
# same package, as does the multi-seed partition/heal battery (ISSUE
# 10): scripted double cuts must fence the minority, complete majority
# collectives over the quorum, and deliver exactly-once across the
# heal. The tier then runs three 10 s fuzz passes, each minimizing a
# new input for at most 1 s so that the pass keeps fuzzing (the 60 s
# default would spend most of the 10 s minimizing). FuzzKernelOrder
# decodes its input into At/AfterKind/Timer+Stop/Serve/RunUntil calls
# and checks every execution against a reference sort by (t, seq).
# FuzzMPIWire feeds arbitrary bytes to the MPI engine's wire decoders
# (control envelopes with the kCTSW window descriptor, and the
# multicast fast-path header): neither may panic, each rejects what its
# encoder cannot produce, and what it accepts re-encodes byte for byte.
# FuzzBank runs write, apply and read sequences against the paged
# replicated bank, with page-crossing spans and reads of untouched pages,
# and checks every read and both banks of a two-node ring against a flat
# reference. FuzzScriptValidate decodes its input into a fault script:
# Validate may not panic on it, and a script that Validate and
# cluster.New accept must run 3 ms of retry, liveness and live traffic
# on a 4-node ring without panicking.
soak: build
	$(GO) test -race -count=1 -run 'TestSoak|TestLossWindowsNeverKill|TestMPIBarrierDeadPeer|TestFlappingNode|TestPartitionSoak|TestMPIPartitionErrors|TestPartitionFenceAndHeal|TestSingleCutNoMPIErrors' ./internal/liveness
	$(GO) test -run '^$$' -fuzz '^FuzzKernelOrder$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzMPIWire$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzBank$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/scramnet
	$(GO) test -run '^$$' -fuzz '^FuzzScriptValidate$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fault
	@echo "soak tier green: liveness battery survives scripted faults under -race; the kernel's pop order, the MPI wire decoders, the paged bank and fault scripts survive 10 s of fuzzing each"

# Observability smoke tier: replay the E6 fault-sweep point at 15% loss
# with span tracing and snapshot streaming on, and require cmd/timeline
# to exit 0 with a non-empty retry/bus co-spike correlation table. This
# proves the whole pipeline — message-id propagation, span boundaries,
# the snapshot stream, the correlator — end to end on a lossy run. The
# tier also renders a multicast RecvAny anatomy, which exits nonzero on
# any trace/metrics/cost-model disagreement, so cmd/anatomy cannot rot.
# Last come the smoke runs of the tools no other tier runs: cmd/pingpong
# and a multicast cmd/collective barrier must exit 0 and print their
# header line, each must refuse `-net bogus` with exit 2 and no panic,
# examples/quickstart, paramdist, pubsub and telemetry must exit 0 and
# print their first line, and examples/stencil2d must report an
# identical heat checksum.
timeline: build
	@$(GO) run ./cmd/timeline -rate 0.15 -seed 1999 > .timeline.tmp.out || \
		{ cat .timeline.tmp.out; rm -f .timeline.tmp.out; exit 1; }
	@grep -q "^correlation OK" .timeline.tmp.out || \
		{ cat .timeline.tmp.out; rm -f .timeline.tmp.out; \
		  echo "timeline tier: no correlation table in the output"; exit 1; }
	@$(GO) run ./cmd/anatomy -mcast -recvany > .timeline.tmp.out || \
		{ cat .timeline.tmp.out; rm -f .timeline.tmp.out; \
		  echo "timeline tier: cmd/anatomy -mcast -recvany found a mismatch"; exit 1; }
	@rm -rf .smoke && $(GO) build -o .smoke/ ./cmd/pingpong ./cmd/collective \
		./examples/quickstart ./examples/paramdist ./examples/pubsub ./examples/telemetry
	@./.smoke/pingpong > .timeline.tmp.out 2>&1 && \
		grep -q "^one-way latency, scramnet, api layer" .timeline.tmp.out || \
		{ cat .timeline.tmp.out; rm -rf .timeline.tmp.out .smoke; \
		  echo "timeline tier: cmd/pingpong failed or printed no header line"; exit 1; }
	@./.smoke/collective -op barrier -impl mcast -nodes 4 > .timeline.tmp.out 2>&1 && \
		grep -q "^MPI_Barrier scramnet *mcast *4 nodes" .timeline.tmp.out || \
		{ cat .timeline.tmp.out; rm -rf .timeline.tmp.out .smoke; \
		  echo "timeline tier: cmd/collective -op barrier -impl mcast failed or printed no header line"; exit 1; }
	@for c in pingpong collective; do \
		./.smoke/$$c -net bogus > .timeline.tmp.out 2>&1; code=$$?; \
		if [ $$code -ne 2 ] || grep -q "^panic" .timeline.tmp.out || \
			! grep -q 'unknown network "bogus"' .timeline.tmp.out; then \
			cat .timeline.tmp.out; rm -rf .timeline.tmp.out .smoke; \
			echo "timeline tier: cmd/$$c -net bogus did not exit 2 with a usage error (exit $$code)"; exit 1; \
		fi; \
	done
	@for ex in 'quickstart:node 0: posted a unicast and a 3-way multicast' \
		'paramdist:master/worker parameter distribution: 4 ranks' \
		'pubsub:8 topics × 25 rounds published' \
		'telemetry:t=20ms: node 2 failed'; do \
		name=$${ex%%:*}; want=$${ex#*:}; \
		./.smoke/$$name > .timeline.tmp.out 2>&1 && head -n 1 .timeline.tmp.out | grep -qF "$$want" || \
			{ cat .timeline.tmp.out; rm -rf .timeline.tmp.out .smoke; \
			  echo "timeline tier: examples/$$name failed or its first line is not \"$$want\""; exit 1; }; \
	done
	@rm -rf .smoke
	@$(GO) run ./examples/stencil2d > .timeline.tmp.out 2>&1 && \
		grep -q "identical heat checksum" .timeline.tmp.out || \
		{ cat .timeline.tmp.out; rm -f .timeline.tmp.out; \
		  echo "timeline tier: examples/stencil2d failed or its checksums differ"; exit 1; }
	@rm -f .timeline.tmp.out
	@echo "timeline tier green: span/snapshot streams correlate retry storms with bus saturation; the anatomy cross-check agrees; cmd/pingpong, cmd/collective and every example run"

# Regenerate every figure and table of the paper's §5, plus the
# fault-sweep extension.
figures:
	$(GO) run ./cmd/figures -faults

# Perf-regression tier: re-run the Figure 1–6 suite plus the throughput
# and bus-utilization sweeps (internal/bench/report) and fail on any
# drift from the checked-in BENCH_figures.json. The report is
# byte-stable by construction, so a diff means a latency or a counter
# actually moved; if the move is intended, regenerate the baseline with
# `$(GO) run ./cmd/figures -json BENCH_figures.json` so it lands in
# review alongside the change that caused it.
#
# The run itself also enforces the regression gates before writing
# anything: cmd/figures -json prints every failing row and exits 1
# unless each row of the E9–E15 gate table (`experiments` in
# internal/bench/report/report.go, one bound on one BENCH_figures.json
# key per row) accepts the run — so a regression in any of them cannot
# silently regenerate itself into a new baseline.
bench: build sweep
	$(GO) run ./cmd/figures -json .bench.tmp.json
	@if diff -u BENCH_figures.json .bench.tmp.json; then \
		rm -f .bench.tmp.json; \
		echo "bench tier green: BENCH_figures.json matches the simulated testbed"; \
	else \
		rm -f .bench.tmp.json; \
		echo "BENCH_figures.json drifted — if intended, regenerate with:"; \
		echo "  $(GO) run ./cmd/figures -json BENCH_figures.json"; \
		exit 1; \
	fi

# Continuous-performance tier: re-run the OSU-style sweep matrix
# (internal/bench/sweep), gate it against the trajectory history, and
# fail on any drift from the checked-in BENCH_sweep.json. The run itself
# also applies the least-squares trend gate over BENCH_trajectory.jsonl
# extended with this run — a sustained drift across runs fails even when
# each individual run sits inside golden-file tolerance. The second step
# is the gate's own self-test: inject a synthetic +2%/run drift onto the
# real history and require the gate to catch it (exit code 1 — anything
# else, including "missed", fails the tier).
#
# Record a real run into the trajectory (one line per landed change) with:
#   $(GO) run ./cmd/sweep -matrix -trajectory BENCH_trajectory.jsonl \
#     -append -describe "$$(git describe --always)"
sweep: build
	$(GO) run ./cmd/sweep -json .sweep.tmp.json -trajectory BENCH_trajectory.jsonl
	@if diff -u BENCH_sweep.json .sweep.tmp.json; then \
		rm -f .sweep.tmp.json; \
	else \
		rm -f .sweep.tmp.json; \
		echo "BENCH_sweep.json drifted — if intended, regenerate with:"; \
		echo "  $(GO) run ./cmd/sweep -json BENCH_sweep.json -trajectory BENCH_trajectory.jsonl"; \
		exit 1; \
	fi
	@$(GO) run ./cmd/sweep -trajectory BENCH_trajectory.jsonl -inject-trend 2 > .sweep.gate.out 2>&1; \
	code=$$?; \
	if [ $$code -ne 1 ]; then \
		cat .sweep.gate.out; rm -f .sweep.gate.out; \
		echo "sweep tier: trend gate did not catch an injected +2%/run drift (exit $$code)"; \
		exit 1; \
	fi; \
	rm -f .sweep.gate.out
	@echo "sweep tier green: matrix matches BENCH_sweep.json; trend gate catches injected drift"

# Lean metric (ROADMAP item 6): lines of non-test Go outside the
# nested benchmark/ module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

clean:
	rm -f cover.out cover.html .cover.*.out \
		.bench.tmp.json .sweep.tmp.json .sweep.gate.out .timeline.tmp.out
	rm -rf .smoke
