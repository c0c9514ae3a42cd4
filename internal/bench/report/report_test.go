package report

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/scramnet"
)

// golden is the checked-in BENCH_figures.json.
var golden = filepath.Join("..", "..", "..", "BENCH_figures.json")

// reduced is the one reduced-suite run the schema, golden-figure and
// bus-sweep tests share.
var reduced = sync.OnceValue(func() Report { return Run(ReducedOptions()) })

// TestReportByteStable is the stability guarantee the `make bench` tier
// rests on: two reduced runs must marshal to identical bytes.
func TestReportByteStable(t *testing.T) {
	if !bytes.Equal(Marshal(reduced()), Marshal(Run(ReducedOptions()))) {
		t.Fatal("two identical report runs produced different bytes")
	}
}

// TestReportSchemaAndShape pins the document structure a schema-7
// consumer relies on.
func TestReportSchemaAndShape(t *testing.T) {
	r := reduced()
	if r.Schema != 7 {
		t.Fatalf("schema = %d, want 7", r.Schema)
	}
	wantFigs := []string{"fig1_small", "fig1", "fig2", "fig3", "fig4"}
	if len(r.Figures) != len(wantFigs) {
		t.Fatalf("got %d figures, want %d", len(r.Figures), len(wantFigs))
	}
	for i, f := range r.Figures {
		if f.Name != wantFigs[i] {
			t.Errorf("figure[%d] = %q, want %q", i, f.Name, wantFigs[i])
		}
		for _, s := range f.Series {
			if len(s.X) != len(s.Y) {
				t.Errorf("%s/%s: %d sizes but %d latencies", f.Name, s.Label, len(s.X), len(s.Y))
			}
		}
	}
	if len(r.BusSweep) != len(ReducedOptions().BusSizes) {
		t.Fatalf("bus sweep has %d points, want %d", len(r.BusSweep), len(ReducedOptions().BusSizes))
	}
	if len(r.Rollup.Counters) == 0 {
		t.Fatal("rollup snapshot is empty — cluster instrumentation did not fire")
	}
	// The marshaled document must round-trip.
	var back Report
	if err := json.Unmarshal(Marshal(r), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != r.Schema || back.RecvDMACrossoverBytes != r.RecvDMACrossoverBytes {
		t.Fatal("round-tripped report disagrees with original")
	}
}

// TestReportMatchesGoldenFigures pins the report's latencies to the
// same values the golden figure tests enforce: installing metrics must
// not move any figure (instruments never charge virtual time).
func TestReportMatchesGoldenFigures(t *testing.T) {
	r := reduced()
	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*want
	}
	api0 := r.Figures[0].Series[0].Y[0] // fig1_small, SCRAMNet API, 0 B
	if !within(api0, 6.88, 0.02) {
		t.Errorf("API 0-byte latency %v µs, want 6.88 ±2%%", api0)
	}
	mpi0 := r.Figures[0].Series[1].Y[0] // fig1_small, MPI, 0 B
	if !within(mpi0, 43.92, 0.02) {
		t.Errorf("MPI 0-byte latency %v µs, want 43.92 ±2%%", mpi0)
	}
	if !within(r.Throughput.FixedMBs, 6.61, 0.02) {
		t.Errorf("fixed-mode throughput %v MB/s, want 6.61 ±2%%", r.Throughput.FixedMBs)
	}
	if !within(r.Throughput.VariableMBs, 16.80, 0.02) {
		t.Errorf("variable-mode throughput %v MB/s, want 16.80 ±2%%", r.Throughput.VariableMBs)
	}
}

// TestBusSweepShowsPIOReadDominance verifies the §7 claim the sweep
// exists to quantify: on the PIO receive path the receiver's read-word
// traffic grows with message size, and for large messages the DMA path
// is strictly cheaper.
func TestBusSweepShowsPIOReadDominance(t *testing.T) {
	r := reduced()
	small, large := r.BusSweep[0], r.BusSweep[len(r.BusSweep)-1]
	if large.PIOReadWords <= small.PIOReadWords {
		t.Errorf("PIO read words did not grow with size: %d -> %d", small.PIOReadWords, large.PIOReadWords)
	}
	if large.DMAUs >= large.PIOUs {
		t.Errorf("at %d B, DMA receive (%v µs) should beat PIO (%v µs)", large.Bytes, large.DMAUs, large.PIOUs)
	}
	if large.BusBusyFrac <= 0 || large.BusBusyFrac > 1 {
		t.Errorf("bus utilization %v outside (0,1]", large.BusBusyFrac)
	}
	if cross := r.RecvDMACrossoverBytes; cross <= 0 {
		t.Errorf("receive DMA crossover = %d, want a positive size", cross)
	}
}

// runGate runs experiment id alone, fails the test on any of its gate
// rows, and returns the report with that experiment's section filled.
func runGate(t *testing.T, id string) Report {
	t.Helper()
	for _, e := range experiments {
		if e.id == id {
			var r Report
			e.run(&r)
			if err := check(r, []experiment{e}); err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	t.Fatalf("no experiment %s", id)
	return Report{}
}

// TestPollAggregationGate runs E9 and enforces its gates in-tree: the
// burst-read poll path must cut the 0-byte incast sink's full-round-trip
// poll reads by poll_aggregation.reduction_pct ≥ 60 versus per-word
// polling, and the adaptive threshold must converge on the measured
// 20 B crossover (E7) on the default uncontended bus.
func TestPollAggregationGate(t *testing.T) {
	r := runGate(t, "E9")
	p := r.PollAggregation
	if p.BurstPollReads >= p.PerWordPollReads {
		t.Errorf("burst polling did not reduce poll reads: %d -> %d", p.PerWordPollReads, p.BurstPollReads)
	}
	if r.AdaptiveRecvDMABytes != 20 {
		t.Errorf("adaptive threshold converged on %d B, want the 20 B E7 crossover", r.AdaptiveRecvDMABytes)
	}
}

// TestFailoverLatencyGate runs E10 and enforces its gates in-tree: a
// node death mid-Barrier must surface as a DeadPeerError within the
// detector's confirmation window (plus scan slack), and the hybrid
// router must reroute within the suspicion window (plus probe spacing)
// — both orders of magnitude below the ~51 ms retry-exhaustion path the
// failure detector replaces.
func TestFailoverLatencyGate(t *testing.T) {
	f := runGate(t, "E10").FailoverLatency
	if f.MPIErrorUs <= f.HybridRerouteUs {
		t.Errorf("MPI error (%v µs, confirmation-bound) should be slower than the hybrid reroute (%v µs, suspicion-bound)",
			f.MPIErrorUs, f.HybridRerouteUs)
	}
}

// TestRndvPipelineGate runs E11 and enforces its gates in-tree: the
// receiver-posted-window pipelined rendezvous must beat the sequential
// path at the 64 KiB panel point by rndv_pipeline.improvement_pct ≥ 10.
// The ring wire bounds both paths, so the improvement must also stay
// below the sequential path's non-wire share — a larger number would
// mean the windowed path stopped paying for the wire at all, i.e. the
// model broke.
func TestRndvPipelineGate(t *testing.T) {
	z := runGate(t, "E11").RndvPipeline
	if z.PipelinedUs >= z.SequentialUs {
		t.Errorf("windowed path (%v µs) not faster than sequential (%v µs)", z.PipelinedUs, z.SequentialUs)
	}
	// 64 KiB at 615 ns per 4-byte ring packet is ~10.1 ms of wire that
	// no protocol can remove.
	wireUs := float64(z.Bytes/4) * 0.615
	if z.PipelinedUs < wireUs {
		t.Errorf("pipelined latency %v µs beat the %v µs wire bound — model broken", z.PipelinedUs, wireUs)
	}
}

// TestGoldenBenchJSON regenerates the full default report and compares
// it byte-for-byte against the checked-in BENCH_figures.json — the
// in-tree copy of what `make bench` enforces. Regenerate with:
//
//	go run ./cmd/figures -json BENCH_figures.json
func TestGoldenBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite in -short mode")
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	got := Marshal(Run(DefaultOptions()))
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCH_figures.json drifted from the checked-in golden.\n"+
			"If the change is intended, regenerate with: go run ./cmd/figures -json BENCH_figures.json\n"+
			"(got %d bytes, want %d)", len(got), len(want))
	}
}

// TestBarrierScalingGate runs E14 and enforces its gates in-tree: the
// NIC-combined barrier must beat the 16-node mcast-coordinator baseline
// by barrier_scaling.improvement_pct ≥ 25, its 16→256 scaling must stay
// flatter than O(ranks), the host baseline's critical path must pin the
// rank-0 coordinator as the gating rank, and the combining pass must
// relieve that rank's bus.
func TestBarrierScalingGate(t *testing.T) {
	if testing.Short() {
		t.Skip("256-rank barrier sweep in -short mode")
	}
	b := runGate(t, "E14").BarrierScaling
	// One ring revolution of wire and hop delay bounds the NIC barrier
	// from below at every rank count.
	for _, pt := range b.NIC {
		cfg := scramnet.DefaultConfig(pt.Nodes)
		wireUs := float64(cfg.Nodes) * (float64(cfg.HopDelay) + 615.0) / 1000.0
		if pt.Us < wireUs {
			t.Errorf("%d-rank NIC barrier %v µs beat the %v µs one-revolution bound — model broken", pt.Nodes, pt.Us, wireUs)
		}
	}
	// The host coordinator serializes size-1 arrival drains plus the
	// release mcast; its critical-path share must carry a large part of
	// the window (measured ~0.44 — the rest is concurrent arrival sends
	// and wire), and the NIC round must cut the gating rank's serialized
	// work outright (measured ~60 µs → ~30 µs).
	if b.HostPath.PathFrac < 0.35 {
		t.Errorf("host barrier gating rank carries only %.2f of the window; coordinator serialization missing", b.HostPath.PathFrac)
	}
	if b.NICPath.PathUs >= b.HostPath.PathUs {
		t.Errorf("gating rank's critical-path share did not shrink: host %v µs → NIC %v µs", b.HostPath.PathUs, b.NICPath.PathUs)
	}
}

// TestStreamAllreduceGate runs E12 and enforces its gates in-tree: the
// in-network handler allreduce must beat the rank-side tree at 16 nodes
// by stream_allreduce.improvement_pct ≥ 25, must charge handler cycles
// in virtual time, and must degrade to the tree when a member is
// suspect.
func TestStreamAllreduceGate(t *testing.T) {
	s := runGate(t, "E12").StreamAllreduce
	if s.HandlerUs >= s.TreeUs {
		t.Errorf("handler path (%v µs) not faster than the tree (%v µs)", s.HandlerUs, s.TreeUs)
	}
	// The vector still circulates the whole ring once: 16 nodes of wire
	// and hop delay bound the fast path from below.
	cfg := scramnet.DefaultConfig(StreamAllreduceNodes)
	wireUs := float64(cfg.Nodes) * (float64(cfg.HopDelay) + 615.0) / 1000.0
	if s.HandlerUs < wireUs {
		t.Errorf("handler latency %v µs beat the %v µs one-revolution bound — model broken", s.HandlerUs, wireUs)
	}
}

// TestPartitionToleranceGate runs E15 and enforces its gates in-tree:
// the double cut must surface as a minority PartitionError within the
// confirmation window (plus scan slack) but not before suspicion can
// stabilize; the splice must reconverge to an all-alive resynced
// membership within a few detector periods; and the dual ring's
// single-cut wrap path must cost latency — some, but only wire time.
func TestPartitionToleranceGate(t *testing.T) {
	pt := runGate(t, "E15").PartitionTolerance
	// Fencing rides the partition declaration, not dead-peer
	// confirmation: it must land well before the per-peer confirmation
	// window would have expired.
	if pt.FenceUs >= pt.ConfirmWindowUs {
		t.Errorf("fence (%v µs) did not beat the confirmation window (%v µs); the declaration is not faster than mass death", pt.FenceUs, pt.ConfirmWindowUs)
	}
	// The wrap penalty is pure wire time: an integer number of
	// secondary-ring hop delays.
	hopUs := float64(scramnet.DefaultConfig(4).HopDelay) / 1000.0
	if rem := math.Mod(pt.WrapPenaltyUs, hopUs); rem > 1e-9 && hopUs-rem > 1e-9 {
		t.Errorf("wrap penalty %v µs is not a whole number of %v µs hop delays — the wrap path charges more than wire time", pt.WrapPenaltyUs, hopUs)
	}
}

// gateProbe moves one gate row's value and lists, per finite bound,
// the value at that bound and its first neighbour past it: pass must be
// accepted and fail rejected, exactly as the bounds of the hand-written
// branches the gate table replaced. A derived row's setter moves the
// first key against the golden value of the key it subtracts, and
// passes a little above 0, where a float sum cannot land exactly.
type gateProbe struct {
	set        func(r *Report, v float64)
	pass, fail []float64
}

const tiny = math.SmallestNonzeroFloat64

// above is the smallest float64 greater than x.
func above(x float64) float64 { return math.Nextafter(x, inf) }

// gateProbes holds one probe per gate row, keyed by the row's metric.
var gateProbes = map[string]gateProbe{
	"poll_aggregation.per_word_poll_reads": {func(r *Report, v float64) { r.PollAggregation.PerWordPollReads = int64(v) }, []float64{1}, []float64{0}},
	"poll_aggregation.burst_poll_reads":    {func(r *Report, v float64) { r.PollAggregation.BurstPollReads = int64(v) }, []float64{1}, []float64{0}},
	"poll_aggregation.reduction_pct":       {func(r *Report, v float64) { r.PollAggregation.ReductionPct = v }, []float64{60}, []float64{justBelow(60)}},
	"failover_latency.mpi_error_us - confirm_window_us": {func(r *Report, v float64) {
		r.FailoverLatency.MPIErrorUs = r.FailoverLatency.ConfirmWindowUs + v
	}, []float64{1e-3}, []float64{0}},
	"failover_latency.mpi_error_us": {func(r *Report, v float64) { r.FailoverLatency.MPIErrorUs = v }, []float64{3500}, []float64{above(3500)}},
	"failover_latency.hybrid_reroute_us - suspect_window_us": {func(r *Report, v float64) {
		r.FailoverLatency.HybridRerouteUs = r.FailoverLatency.SuspectWindowUs + v
	}, []float64{1e-3}, []float64{0}},
	"failover_latency.hybrid_reroute_us": {func(r *Report, v float64) { r.FailoverLatency.HybridRerouteUs = v }, []float64{1200}, []float64{above(1200)}},
	"rndv_pipeline.sequential_us":        {func(r *Report, v float64) { r.RndvPipeline.SequentialUs = v }, []float64{tiny}, []float64{0}},
	"rndv_pipeline.pipelined_us":         {func(r *Report, v float64) { r.RndvPipeline.PipelinedUs = v }, []float64{tiny}, []float64{0}},
	"rndv_pipeline.improvement_pct":      {func(r *Report, v float64) { r.RndvPipeline.ImprovementPct = v }, []float64{10}, []float64{justBelow(10)}},
	"stream_allreduce.tree_us":           {func(r *Report, v float64) { r.StreamAllreduce.TreeUs = v }, []float64{tiny}, []float64{0}},
	"stream_allreduce.handler_us":        {func(r *Report, v float64) { r.StreamAllreduce.HandlerUs = v }, []float64{tiny}, []float64{0}},
	"stream_allreduce.improvement_pct":   {func(r *Report, v float64) { r.StreamAllreduce.ImprovementPct = v }, []float64{25}, []float64{justBelow(25)}},
	"stream_allreduce.handler_cycles":    {func(r *Report, v float64) { r.StreamAllreduce.HandlerCycles = int64(v) }, []float64{1}, []float64{0}},
	"stream_allreduce.suspect_fallback":  {func(r *Report, v float64) { r.StreamAllreduce.SuspectFallback = v == 1 }, []float64{1}, []float64{0}},
	"barrier_scaling.host_us":            {func(r *Report, v float64) { r.BarrierScaling.HostUs = v }, []float64{tiny}, []float64{0}},
	"len(barrier_scaling.nic)":           {func(r *Report, v float64) { r.BarrierScaling.NIC = make([]BarrierPoint, int(v)) }, []float64{1}, []float64{0}},
	"barrier_scaling.improvement_pct":    {func(r *Report, v float64) { r.BarrierScaling.ImprovementPct = v }, []float64{25}, []float64{justBelow(25)}},
	"barrier_scaling.scale_ratio":        {func(r *Report, v float64) { r.BarrierScaling.ScaleRatio = v }, []float64{tiny, justBelow(16)}, []float64{0, 16}},
	"barrier_scaling.host_path.gating_rank": {func(r *Report, v float64) {
		r.BarrierScaling.HostPath.GatingRank = int(v)
	}, []float64{0}, []float64{-1, 1}},
	"barrier_scaling.host_path.bus_busy_frac - nic_path.bus_busy_frac": {func(r *Report, v float64) {
		r.BarrierScaling.HostPath.BusBusyFrac = r.BarrierScaling.NICPath.BusBusyFrac + v
	}, []float64{1e-3}, []float64{0}},
	"partition_tolerance.fence_us - suspect_window_us": {func(r *Report, v float64) {
		r.PartitionTolerance.FenceUs = r.PartitionTolerance.SuspectWindowUs + v
	}, []float64{1e-3}, []float64{0}},
	"partition_tolerance.fence_us":        {func(r *Report, v float64) { r.PartitionTolerance.FenceUs = v }, []float64{3500}, []float64{above(3500)}},
	"partition_tolerance.heal_resync_us":  {func(r *Report, v float64) { r.PartitionTolerance.HealResyncUs = v }, []float64{tiny, 2000}, []float64{0, above(2000)}},
	"partition_tolerance.wrap_penalty_us": {func(r *Report, v float64) { r.PartitionTolerance.WrapPenaltyUs = v }, []float64{tiny, 5}, []float64{0, above(5)}},
}

// TestGateNegativeBattery holds every gate row to its bounds without
// running a simulation. The checked-in BENCH_figures.json must pass
// Check. Moving any one row's value onto a bound it accepts must still
// pass, and moving it to the first value past that bound must fail
// Check with exactly that row named. Moving two rows at once must name
// both, one per line.
func TestGateNegativeBattery(t *testing.T) {
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var base Report
	if err := json.Unmarshal(b, &base); err != nil {
		t.Fatalf("golden does not parse: %v", err)
	}
	if err := base.Check(); err != nil {
		t.Fatalf("checked-in BENCH_figures.json fails its gates:\n%v", err)
	}
	rows := 0
	for _, e := range experiments {
		for _, g := range e.gates {
			rows++
			probe, ok := gateProbes[g.metric]
			if !ok {
				t.Errorf("%s %s: no probe", e.id, g.metric)
				continue
			}
			for _, v := range probe.pass {
				r := base
				probe.set(&r, v)
				if err := r.Check(); err != nil {
					t.Errorf("%s %s = %g failed Check: %v", e.id, g.metric, v, err)
				}
			}
			for _, v := range probe.fail {
				r := base
				probe.set(&r, v)
				err := r.Check()
				if err == nil {
					t.Errorf("%s %s = %g passed Check", e.id, g.metric, v)
					continue
				}
				if msg := err.Error(); !strings.HasPrefix(msg, e.id+" gate "+g.metric+" = ") || strings.Contains(msg, "\n") {
					t.Errorf("%s %s = %g: Check reported %q, want exactly this row", e.id, g.metric, v, msg)
				}
			}
		}
	}
	if rows != len(gateProbes) {
		t.Errorf("%d gate rows but %d probes", rows, len(gateProbes))
	}

	r := base
	gateProbes["poll_aggregation.reduction_pct"].set(&r, 59)
	gateProbes["partition_tolerance.wrap_penalty_us"].set(&r, 6)
	err = r.Check()
	if err == nil {
		t.Fatal("two failing rows passed Check")
	}
	want := []string{
		"E9 gate poll_aggregation.reduction_pct = 59, outside [60, +Inf]",
		"E15 gate partition_tolerance.wrap_penalty_us = 6, outside (0, 5]",
	}
	if got := strings.Split(err.Error(), "\n"); !slices.Equal(got, want) {
		t.Errorf("Check reported %q, want %q", got, want)
	}
}
