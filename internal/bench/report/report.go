// Package report is the perf-regression harness: it re-runs the
// Figure 1–6 suite plus the raw-throughput and bus-utilization sweeps
// against the simulated testbed and emits one schema-versioned,
// byte-stable JSON document (BENCH_figures.json). A checked-in copy of
// that document is the performance baseline; the `make bench` tier
// regenerates it and fails on any drift, so a PR that moves a latency
// or a counter must also move the golden file — visibly, in review.
//
// Byte stability is by construction: the simulation is deterministic,
// the report contains no wall-clock time, every float is rounded to
// three decimals before marshaling, and serialization is
// struct-field-ordered json.MarshalIndent (no maps).
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hybrid"
	"repro/internal/liveness"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/myrinet"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/xport"
)

// Schema is the report format version. Bump it whenever a field is
// added, removed or reinterpreted, so downstream tooling can refuse
// documents it does not understand. EXPERIMENTS.md ("BENCH_figures.json
// schema history") records what each version added.
const Schema = 7

// Options selects the sweep resolution. The default runs the figure
// suite at the paper's panel sizes; Reduced is a fast subset for tests.
type Options struct {
	// SmallSizes and FullSizes are the figure panels' size axes.
	SmallSizes []int
	FullSizes  []int
	// BusSizes is the bus-utilization sweep axis.
	BusSizes []int
	// CrossoverLo/Hi/Step bound the fine-grained scan for the receive
	// DMA threshold crossover (Step <= 0 disables the scan).
	CrossoverLo, CrossoverHi, CrossoverStep int
	// BarrierAndBcast includes Figures 5 and 6 (the slowest part of the
	// suite, involving every network's collectives).
	BarrierAndBcast bool
}

// DefaultOptions is the full suite, as committed in BENCH_figures.json.
func DefaultOptions() Options {
	return Options{
		SmallSizes:      bench.SmallSizes,
		FullSizes:       bench.FullSizes,
		BusSizes:        []int{0, 16, 64, 256, 1024, 4096},
		CrossoverLo:     4,
		CrossoverHi:     256,
		CrossoverStep:   4,
		BarrierAndBcast: true,
	}
}

// ReducedOptions is a two-point subset for schema and stability tests.
func ReducedOptions() Options {
	return Options{
		SmallSizes:      []int{0, 64},
		FullSizes:       []int{0, 64},
		BusSizes:        []int{0, 256},
		CrossoverLo:     32,
		CrossoverHi:     64,
		CrossoverStep:   32,
		BarrierAndBcast: false,
	}
}

// Report is the document written to BENCH_figures.json.
type Report struct {
	Schema int    `json:"schema"`
	Paper  string `json:"paper"`
	// Figures are the paper's latency panels, in figure order.
	Figures []Figure `json:"figures"`
	// Barrier is the Figure 6 table (empty when BarrierAndBcast is off).
	Barrier []BarrierRow `json:"barrier,omitempty"`
	// Throughput is the §2 raw-hardware table.
	Throughput Throughput `json:"throughput"`
	// BusSweep quantifies §7's claim that polling PIO reads dominate
	// receive overhead: per message size, the receive-side latency on
	// the pure-PIO and pure-DMA paths, the receiver's PIO read traffic,
	// and its I/O-bus utilization.
	BusSweep []BusPoint `json:"bus_sweep"`
	// RecvDMACrossoverBytes is the smallest message size at which the
	// DMA receive path beats PIO word reads (-1: never within the scan,
	// 0: scan disabled).
	RecvDMACrossoverBytes int `json:"recv_dma_crossover_bytes"`
	// PollAggregation is the E9 measurement: the sink's full-round-trip
	// poll reads in a 0-byte incast with per-word polling vs the
	// burst-read poll path. Check() gates ReductionPct.
	PollAggregation PollAggregation `json:"poll_aggregation"`
	// AdaptiveRecvDMABytes is the receive-DMA threshold the adaptive
	// estimator converges to on the default uncontended bus (the
	// bbp.recv_dma_threshold_bytes gauge after an instrumented run with
	// adaptation enabled); it must agree with the measured crossover.
	AdaptiveRecvDMABytes int64 `json:"adaptive_recv_dma_bytes"`
	// FailoverLatency is the E10 measurement: node-death-to-action
	// delays with the heartbeat failure detector on. Check() gates both
	// delays against the detector's configured windows.
	FailoverLatency FailoverLatency `json:"failover_latency"`
	// RndvPipeline is the E11 measurement: one large-message one-way
	// MPI latency with the legacy sequential rendezvous vs the
	// receiver-posted-window pipelined rendezvous. Check() gates
	// ImprovementPct.
	RndvPipeline RndvPipeline `json:"rndv_pipeline"`
	// StreamAllreduce is the E12 measurement: one small-vector allreduce
	// at 16 nodes through the in-network handler engine vs the rank-side
	// software tree, and whether a suspect member degrades the fast path
	// back onto the tree. Check() gates the improvement, the non-zero
	// handler cycle charge, and the degradation.
	StreamAllreduce StreamAllreduce `json:"stream_allreduce"`
	// BarrierScaling is the E14 measurement: the NIC-combined barrier (a
	// 1-lane BAND spin.Reducer round) against the host mcast-coordinator
	// barrier at 16 nodes, NIC scaling out to the 256-node ring limit,
	// and the span-tree critical-path proof of which rank's bus gates
	// each variant. Check() gates the improvement, the scaling exponent,
	// and the gating rank's bus relief.
	BarrierScaling BarrierScaling `json:"barrier_scaling"`
	// PartitionTolerance is the E15 measurement: how quickly a ring-cut
	// partition is turned into typed fencing at the MPI layer, how
	// quickly a splice is turned back into an all-alive resynced
	// membership, and what the dual ring's wrap path costs in one-way
	// latency while it heals a single cut. Check() gates all three.
	PartitionTolerance PartitionTolerance `json:"partition_tolerance"`
	// Rollup is the cluster-wide metrics snapshot of the canonical
	// instrumented run (the 4-byte SCRAMNet ping-pong): protocol and
	// hardware counters that must not drift silently.
	Rollup metrics.Snapshot `json:"rollup"`
}

// Figure is one latency panel.
type Figure struct {
	Name   string   `json:"name"`
	Title  string   `json:"title"`
	Series []Series `json:"series"`
}

// Series is one curve: latency in microseconds against message size.
type Series struct {
	Label string    `json:"label"`
	X     []int     `json:"x_bytes"`
	Y     []float64 `json:"y_us"`
}

// BarrierRow is one Figure 6 measurement.
type BarrierRow struct {
	Config string  `json:"config"`
	Nodes  int     `json:"nodes"`
	Us     float64 `json:"us"`
}

// Throughput is the §2 raw ring throughput table.
type Throughput struct {
	FixedMBs    float64 `json:"fixed_mb_s"`
	VariableMBs float64 `json:"variable_mb_s"`
}

// BusPoint is one size of the bus-utilization sweep. All counters are
// whole-run totals of the receiving node over warmup+Iters round trips.
type BusPoint struct {
	Bytes int `json:"bytes"`
	// PIOUs and DMAUs are the one-way latencies with the receive path
	// forced to PIO word reads and to the DMA engine respectively.
	PIOUs float64 `json:"pio_recv_us"`
	DMAUs float64 `json:"dma_recv_us"`
	// PIOReadWords is the receiver's PIO read-word count on the PIO
	// path; every one costs a full bus round trip (§7).
	PIOReadWords int64 `json:"recv_pio_read_words"`
	// Polls is how many times the receiver's poll loop read the MESSAGE
	// flag word.
	Polls int64 `json:"recv_polls"`
	// BusBusyFrac is the receiver's I/O-bus occupancy divided by the
	// run's virtual duration, on the PIO path.
	BusBusyFrac float64 `json:"recv_bus_busy_frac"`
}

// PollAggregation compares the receiver's poll traffic, in full
// bus-round-trip read transactions, between the per-word and burst-read
// poll paths on the same workload: a 0-byte incast of Nodes−1 senders
// into one RecvAny sink. Per-word, every poll word is its own round
// trip; with bursts, each wide read costs one round trip however many
// words it moves, so the transaction count is
// (poll_words − burst_poll_words) + burst_polls.
type PollAggregation struct {
	Nodes int `json:"nodes"`
	Bytes int `json:"bytes"`
	// PerWordPollReads / BurstPollReads are the sink's full-round-trip
	// poll read transactions with BurstPoll forced off vs the default.
	PerWordPollReads int64 `json:"per_word_poll_reads"`
	BurstPollReads   int64 `json:"burst_poll_reads"`
	// ReductionPct is the drop, in percent, burst polling achieves.
	ReductionPct float64 `json:"reduction_pct"`
}

// FailoverLatency is the E10 measurement (EXPERIMENTS.md): how quickly
// the stack turns a node death into action once the heartbeat failure
// detector (liveness.DefaultConfig) is on. Both delays are measured
// from the instant the fault script bypasses the node's ring card.
type FailoverLatency struct {
	Nodes int `json:"nodes"`
	// SuspectWindowUs / ConfirmWindowUs record the detector calibration
	// the run used, so the gated delays are self-describing.
	SuspectWindowUs float64 `json:"suspect_window_us"`
	ConfirmWindowUs float64 `json:"confirm_window_us"`
	// MPIErrorUs is the worst delay, across surviving ranks, until a
	// Barrier interrupted by the death returns DeadPeerError. Bounded by
	// the confirmation window — not the retry daemon's MaxRetries ×
	// doubling-Timeout budget (~51 ms).
	MPIErrorUs float64 `json:"mpi_error_us"`
	// HybridRerouteUs is the delay until the hybrid router's first
	// proactive reroute of a ring-preferred send onto the high-bandwidth
	// substrate. Bounded by the suspicion window: rerouting starts on
	// suspicion, before confirmation.
	HybridRerouteUs float64 `json:"hybrid_reroute_us"`
}

// PartitionTolerance is the E15 measurement (EXPERIMENTS.md): the
// ring-cut partition lifecycle with link-cut faults and the partition
// detector (liveness.DefaultConfig) on. Fence and heal delays are
// measured from the instants the fault script cuts and splices the
// fibers; the wrap penalty compares a clean dual ring against one
// healing a single cut.
type PartitionTolerance struct {
	Nodes int `json:"nodes"`
	// SuspectWindowUs / ConfirmWindowUs record the detector calibration
	// the runs used, so the gated delays are self-describing.
	SuspectWindowUs float64 `json:"suspect_window_us"`
	ConfirmWindowUs float64 `json:"confirm_window_us"`
	// FenceUs is the worst delay, across minority ranks, until a Barrier
	// straddling a scripted double cut returns PartitionError. Bounded
	// below by the suspicion window (the declaration needs a stable
	// suspect arc) and above by the confirmation window plus scan slack.
	FenceUs float64 `json:"fence_us"`
	// HealResyncUs is the delay from the splice until every node reports
	// no partition and an all-alive membership — the minority's
	// incarnation-fenced rejoin and resync included.
	HealResyncUs float64 `json:"heal_resync_us"`
	// WrapPenaltyUs is the added one-way BBP latency of a small send
	// whose path crosses a single cut segment: the cost of the secondary
	// ring's wrap hops, and nothing else — delivery stays byte-identical
	// and no partition is ever declared.
	WrapPenaltyUs float64 `json:"wrap_penalty_us"`
}

// RndvPipeline is the E11 measurement (EXPERIMENTS.md): the one-way
// MPI latency of one Bytes-long message on the paper's PIO-only
// SCRAMNet channel device, sequentially (rendezvous data re-crosses
// the receiver's I/O bus as polled word reads) and through a
// receiver-posted window (payload bursts across each bus exactly once,
// chunks pipelined PipelineDepth deep on the ring). The wire format
// with the feature off is byte-identical to pre-window builds, so
// SequentialUs doubles as the legacy-path regression anchor.
type RndvPipeline struct {
	Bytes         int     `json:"bytes"`
	PipelineDepth int     `json:"pipeline_depth"`
	SequentialUs  float64 `json:"sequential_us"`
	PipelinedUs   float64 `json:"pipelined_us"`
	// ImprovementPct is how much of the sequential latency the windowed
	// path removes, in percent.
	ImprovementPct float64 `json:"improvement_pct"`
}

// StreamAllreduce is the E12 measurement (EXPERIMENTS.md): the
// completion latency of one Bytes-long 32-bit-lane sum allreduce across
// Nodes ranks, (a) through Comm.Allreduce's in-network fast path with
// mpi.SumU32 — the vector circulates the ring once and every transit
// NIC's spin.Reducer handler folds the local contribution in — and (b)
// through the rank-side binomial tree (WithAlgorithm(Tree)) over the
// identical fold. Both runs
// use the same substrate and cost model; the handler path additionally
// pays HandlerCycles × scramnet.Config.HandlerCycleCost of in-network
// compute, so the win is honest. SuspectFallback records the liveness
// gate: with one member suspected (bypassed then repaired), the same
// call must decline the fast path and complete on the tree.
type StreamAllreduce struct {
	Nodes int `json:"nodes"`
	Bytes int `json:"bytes"`
	// TreeUs / HandlerUs are the worst-rank completion latencies of the
	// software tree and the handler fast path.
	TreeUs    float64 `json:"tree_us"`
	HandlerUs float64 `json:"handler_us"`
	// ImprovementPct is how much of the tree latency the handler path
	// removes, in percent.
	ImprovementPct float64 `json:"improvement_pct"`
	// HandlerCycles is the cluster-wide spin.handler_cycles total of the
	// fast-path run — the virtual-time cost the NICs charged for the
	// in-network compute.
	HandlerCycles int64 `json:"handler_cycles"`
	// SuspectFallback reports that the degraded run declined the fast
	// path on suspicion and still produced the correct sums on the tree.
	SuspectFallback bool `json:"suspect_fallback"`
}

// BarrierScaling is the E14 document section. HostUs is the paper-style
// mcast-coordinator barrier at BarrierHostNodes ranks (the ~137 µs
// baseline); NIC lists the NIC-combined barrier latency per rank count
// out to the 256-node ring address limit; ScaleRatio is
// NIC(256)/NIC(16), which O(ranks) scaling would put at ≥ 16. HostPath
// and NICPath are the span-tree critical-path decompositions
// (timeline.CriticalPath) of traced 16-node runs: which rank's
// sequential work — and hence whose host bus — gates the collective,
// what fraction of the barrier window sits on that rank's chain, and
// that rank's PCI bus occupancy over the run.
type BarrierScaling struct {
	HostNodes int            `json:"host_nodes"`
	HostUs    float64        `json:"host_us"`
	NIC       []BarrierPoint `json:"nic"`
	// ImprovementPct is how much of the 16-node host barrier the
	// NIC-combined round removes.
	ImprovementPct float64     `json:"improvement_pct"`
	ScaleRatio     float64     `json:"scale_ratio"`
	HostPath       BarrierPath `json:"host_path"`
	NICPath        BarrierPath `json:"nic_path"`
}

// BarrierPoint is one rank count of the NIC barrier scaling sweep.
type BarrierPoint struct {
	Nodes int     `json:"nodes"`
	Us    float64 `json:"us"`
}

// BarrierPath is the critical-path summary of one traced 16-node
// barrier: the gating rank (largest critical-path share), that share in
// µs and as a fraction of the barrier window, and the gating rank's
// pci.busy_ns occupancy over the run.
type BarrierPath struct {
	GatingRank  int     `json:"gating_rank"`
	PathUs      float64 `json:"path_us"`
	PathFrac    float64 `json:"path_frac"`
	BusBusyFrac float64 `json:"bus_busy_frac"`
}

// BarrierHostNodes / BarrierNICNodes are the E14 panel points: the
// baseline size the paper's coordinator barrier is proven at, and the
// NIC sweep out to the flat ring's address limit.
var BarrierNICNodes = []int{4, 16, 64, 256}

const BarrierHostNodes = 16

// StreamAllreduceNodes / StreamAllreduceBytes are the E12 panel point:
// the acceptance cluster size and the vector size (16 32-bit lanes).
const (
	StreamAllreduceNodes = 16
	StreamAllreduceBytes = 64
)

// RndvPipelineBytes / RndvPipelineDepth are the E11 panel point: the
// acceptance size for "pipelining pays off at or above 64 KiB", at the
// engine's default pipeline depth.
const (
	RndvPipelineBytes = 64 << 10
	RndvPipelineDepth = 2
)

// PollAggregationNodes is the cluster size of the E9 incast.
const PollAggregationNodes = 16

// gate is one regression-gate row of an experiment. metric names the
// BENCH_figures.json key that value reads, or the expression over keys
// it derives, and the row accepts lo < value ≤ hi. An infinite bound
// leaves that end open; justBelow(x) as lo closes the lower end at x,
// and as hi opens the upper end at x.
type gate struct {
	metric string
	value  func(Report) float64
	lo, hi float64
}

// experiment is one gated extension measurement: run fills its section
// of the report, and Check requires every one of its gates to accept.
type experiment struct {
	id    string
	run   func(*Report)
	gates []gate
}

var inf = math.Inf(1)

// justBelow is the largest float64 less than x.
func justBelow(x float64) float64 { return math.Nextafter(x, -inf) }

// one is 1 for true and 0 for false.
func one(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// experiments is every gated extension (EXPERIMENTS.md E9–E15), in
// document order. A bound on an improvement sits below the measured
// value, leaving room for cost-model recalibration while still catching
// a change that drifts back toward the path the experiment replaced. A
// row bounded only by lo = 0 rejects a degenerate (empty) measurement.
var experiments = []experiment{
	{id: "E9", run: func(r *Report) {
		r.PollAggregation = pollAggregation()
		r.AdaptiveRecvDMABytes = adaptiveConverged()
	}, gates: []gate{
		{"poll_aggregation.per_word_poll_reads", func(r Report) float64 { return float64(r.PollAggregation.PerWordPollReads) }, 0, inf},
		{"poll_aggregation.burst_poll_reads", func(r Report) float64 { return float64(r.PollAggregation.BurstPollReads) }, 0, inf},
		{"poll_aggregation.reduction_pct", func(r Report) float64 { return r.PollAggregation.ReductionPct }, justBelow(60), inf},
	}},
	{id: "E10", run: func(r *Report) { r.FailoverLatency = failoverLatency() }, gates: []gate{
		// The MPI error lands after the confirmation window, within scan
		// slack; the hybrid reroute after the suspicion window, within the
		// sender's probe spacing. Drifting up means death discovery
		// regressed toward the ~51 ms retry-exhaustion path.
		{"failover_latency.mpi_error_us - confirm_window_us", func(r Report) float64 { return r.FailoverLatency.MPIErrorUs - r.FailoverLatency.ConfirmWindowUs }, 0, inf},
		{"failover_latency.mpi_error_us", func(r Report) float64 { return r.FailoverLatency.MPIErrorUs }, -inf, 3500},
		{"failover_latency.hybrid_reroute_us - suspect_window_us", func(r Report) float64 { return r.FailoverLatency.HybridRerouteUs - r.FailoverLatency.SuspectWindowUs }, 0, inf},
		{"failover_latency.hybrid_reroute_us", func(r Report) float64 { return r.FailoverLatency.HybridRerouteUs }, -inf, 1200},
	}},
	{id: "E11", run: func(r *Report) { r.RndvPipeline = rndvPipeline() }, gates: []gate{
		{"rndv_pipeline.sequential_us", func(r Report) float64 { return r.RndvPipeline.SequentialUs }, 0, inf},
		{"rndv_pipeline.pipelined_us", func(r Report) float64 { return r.RndvPipeline.PipelinedUs }, 0, inf},
		// The 615 ns/word wire dominates both paths; the win is the
		// receiver's removed polled re-read of the last chunk.
		{"rndv_pipeline.improvement_pct", func(r Report) float64 { return r.RndvPipeline.ImprovementPct }, justBelow(10), inf},
	}},
	{id: "E12", run: func(r *Report) { r.StreamAllreduce = streamAllreduce() }, gates: []gate{
		{"stream_allreduce.tree_us", func(r Report) float64 { return r.StreamAllreduce.TreeUs }, 0, inf},
		{"stream_allreduce.handler_us", func(r Report) float64 { return r.StreamAllreduce.HandlerUs }, 0, inf},
		{"stream_allreduce.improvement_pct", func(r Report) float64 { return r.StreamAllreduce.ImprovementPct }, justBelow(25), inf},
		// No cycles would mean the in-network compute is no longer
		// priced in virtual time.
		{"stream_allreduce.handler_cycles", func(r Report) float64 { return float64(r.StreamAllreduce.HandlerCycles) }, 0, inf},
		{"stream_allreduce.suspect_fallback", func(r Report) float64 { return one(r.StreamAllreduce.SuspectFallback) }, 0, inf},
	}},
	{id: "E14", run: func(r *Report) { r.BarrierScaling = barrierScaling() }, gates: []gate{
		{"barrier_scaling.host_us", func(r Report) float64 { return r.BarrierScaling.HostUs }, 0, inf},
		{"len(barrier_scaling.nic)", func(r Report) float64 { return float64(len(r.BarrierScaling.NIC)) }, 0, inf},
		{"barrier_scaling.improvement_pct", func(r Report) float64 { return r.BarrierScaling.ImprovementPct }, justBelow(25), inf},
		// O(ranks) growth from 16 to 256 ranks would be 16×.
		{"barrier_scaling.scale_ratio", func(r Report) float64 { return r.BarrierScaling.ScaleRatio }, 0, justBelow(16)},
		// The span-tree proof must pin the rank-0 coordinator (a rank is
		// an integer, so (-1, 0] admits 0 alone), and the combining pass
		// must relieve that rank's bus.
		{"barrier_scaling.host_path.gating_rank", func(r Report) float64 { return float64(r.BarrierScaling.HostPath.GatingRank) }, -1, 0},
		{"barrier_scaling.host_path.bus_busy_frac - nic_path.bus_busy_frac", func(r Report) float64 {
			return r.BarrierScaling.HostPath.BusBusyFrac - r.BarrierScaling.NICPath.BusBusyFrac
		}, 0, inf},
	}},
	{id: "E15", run: func(r *Report) { r.PartitionTolerance = partitionTolerance() }, gates: []gate{
		// The fence needs a stable suspect arc and lands within the
		// confirmation window plus scan slack; the heal reconverges
		// within a few detector periods; the wrap path costs hop delays
		// and no protocol work.
		{"partition_tolerance.fence_us - suspect_window_us", func(r Report) float64 { return r.PartitionTolerance.FenceUs - r.PartitionTolerance.SuspectWindowUs }, 0, inf},
		{"partition_tolerance.fence_us", func(r Report) float64 { return r.PartitionTolerance.FenceUs }, -inf, 3500},
		{"partition_tolerance.heal_resync_us", func(r Report) float64 { return r.PartitionTolerance.HealResyncUs }, 0, 2000},
		{"partition_tolerance.wrap_penalty_us", func(r Report) float64 { return r.PartitionTolerance.WrapPenaltyUs }, 0, 5},
	}},
}

// Check enforces every experiment's gates; cmd/figures -json exits
// nonzero when it fails, so `make bench` catches a regression even
// before the golden-file diff. The error joins one line per failing
// row, naming the experiment, the metric, its value and the bounds.
func (r Report) Check() error { return check(r, experiments) }

func check(r Report, es []experiment) error {
	var errs []error
	for _, e := range es {
		for _, g := range e.gates {
			if v := g.value(r); !(g.lo < v && v <= g.hi) {
				errs = append(errs, fmt.Errorf("%s gate %s = %g, outside %s", e.id, g.metric, v, g.bounds()))
			}
		}
	}
	return errors.Join(errs...)
}

// bounds renders the row's interval, writing a justBelow(x) end as the
// x it stands for: "[60, +Inf]", not "(59.99999999999999, +Inf]".
func (g gate) bounds() string {
	lo, hi := fmt.Sprintf("(%g", g.lo), fmt.Sprintf("%g]", g.hi)
	if x := math.Nextafter(g.lo, inf); len(fmt.Sprint(x)) < len(fmt.Sprint(g.lo)) {
		lo = fmt.Sprintf("[%g", x)
	}
	if x := math.Nextafter(g.hi, inf); len(fmt.Sprint(x)) < len(fmt.Sprint(g.hi)) {
		hi = fmt.Sprintf("%g)", x)
	}
	return lo + ", " + hi
}

func round3(v float64) float64 {
	return math.Round(v*1000) / 1000
}

func roundSeries(ss []bench.Series) []Series {
	var out []Series
	for _, s := range ss {
		r := Series{Label: s.Label, X: s.X}
		for _, y := range s.Y {
			r.Y = append(r.Y, round3(y))
		}
		out = append(out, r)
	}
	return out
}

// instrumented runs one SCRAMNet ping-pong with a metrics registry
// installed, the BBP configured by mutate (nil = defaults), returning
// the one-way latency, the per-node snapshot, and the run's virtual
// duration in nanoseconds.
func instrumented(n int, mutate func(*core.Config)) (us float64, snap metrics.Snapshot, elapsedNs int64) {
	k := sim.NewKernel()
	defer k.Close()
	m := metrics.New()
	opts := cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, Metrics: m}
	if mutate != nil {
		cfg := core.DefaultConfig()
		mutate(&cfg)
		opts.BBP = &cfg
	}
	c, err := cluster.New(k, opts)
	if err != nil {
		panic(err)
	}
	us = bench.PingPong(k, c.Endpoints[0], c.Endpoints[1], n)
	return us, m.Snapshot(), int64(k.Now())
}

// pioOnly forces the receive path onto PIO word reads; dmaAlways forces
// every non-empty receive through the DMA engine.
func pioOnly(cfg *core.Config)   { cfg.Thresholds.RecvDMA = 1 << 30 }
func dmaAlways(cfg *core.Config) { cfg.Thresholds.RecvDMA = 1 }

// pollAggregation measures the E9 figure at the gate's panel point:
// the bench.Incast of PollAggregationNodes−1 senders into a RecvAny
// sink at node 0, once per poll mode, counting the sink's poll traffic
// as full bus-round-trip read transactions.
func pollAggregation() PollAggregation {
	const n = 0
	pollReads := func(mode core.BurstMode) int64 {
		m := metrics.New()
		cfg := core.DefaultConfig()
		cfg.BurstPoll = mode
		bench.Incast(cluster.Options{Nodes: PollAggregationNodes, Net: cluster.SCRAMNet, BBP: &cfg, Metrics: m}, n)
		snap := m.Snapshot()
		pollW, _ := snap.Counter("bbp.poll_words", 0)
		burstW, _ := snap.Counter("bbp.burst_poll_words", 0)
		bursts, _ := snap.Counter("bbp.burst_polls", 0)
		return (pollW - burstW) + bursts
	}
	perWord := pollReads(core.BurstOff)
	burst := pollReads(core.BurstAuto)
	red := 0.0
	if perWord > 0 {
		red = 100 * (1 - float64(burst)/float64(perWord))
	}
	return PollAggregation{
		Nodes:            PollAggregationNodes,
		Bytes:            n,
		PerWordPollReads: perWord,
		BurstPollReads:   burst,
		ReductionPct:     round3(red),
	}
}

// adaptiveConverged runs an instrumented ping-pong with threshold
// adaptation enabled and returns the converged
// bbp.recv_dma_threshold_bytes gauge on the pong side.
func adaptiveConverged() int64 {
	_, snap, _ := instrumented(4, func(cfg *core.Config) {
		cfg.Thresholds.Adaptive = true
	})
	g, _ := snap.Gauge("bbp.recv_dma_threshold_bytes", 1)
	return g.Value
}

// mpiDeadPeerLatency kills one node mid-Barrier and returns the worst
// delay, in µs after the bypass, until a surviving rank's Barrier
// returns DeadPeerError.
func mpiDeadPeerLatency(lcfg liveness.Config) float64 {
	const nodes, victim = 4, 2
	kill := sim.Time(0).Add(1 * sim.Millisecond)
	k := sim.NewKernel()
	defer k.Close()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	script := &fault.Script{Seed: 101, Actions: []fault.Action{
		{At: kill, Kind: fault.NodeFail, Node: victim},
	}}
	c, err := cluster.New(k, cluster.Options{
		Nodes: nodes, Net: cluster.SCRAMNet, BBP: &bbp, PIOOnlyBBP: true, Faults: script, Liveness: &lcfg,
	})
	if err != nil {
		panic(err)
	}
	w := mpi.NewWorld(c.Endpoints, mpi.DefaultConfig())
	var worst sim.Time
	mcast := mpi.WithAlgorithm(mpi.Mcast)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		if err := cm.Barrier(p, mcast); err != nil {
			panic(err) // the pre-death barrier must succeed
		}
		if cm.Rank() == victim {
			return // the machine dies with its process
		}
		if err := cm.Barrier(p, mcast); err == nil {
			panic("barrier with a dead participant completed")
		}
		if p.Now() > worst {
			worst = p.Now()
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return round3(float64(worst.Sub(kill)) / float64(sim.Microsecond))
}

// hybridRerouteLatency bypasses a node's ring card (its Myrinet link
// stays up) under a steady stream of small ring-preferred sends, and
// returns the delay, in µs after the bypass, until the router's first
// proactive reroute completes on the high substrate.
func hybridRerouteLatency(lcfg liveness.Config) float64 {
	const nodes, dst = 3, 2
	kill := sim.Time(0).Add(1 * sim.Millisecond)
	k := sim.NewKernel()
	defer k.Close()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	// Nothing consumes at dst (the probe stream only exists to trip the
	// router), so no ACKs ever return: give the sender enough billboard
	// slots that it never stalls on allocation while probing.
	bbp.Buffers = 32
	script := &fault.Script{Seed: 102, Actions: []fault.Action{
		{At: kill, Kind: fault.NodeFail, Node: dst},
	}}
	low, err := cluster.New(k, cluster.Options{
		Nodes: nodes, Net: cluster.SCRAMNet, BBP: &bbp, Faults: script, Liveness: &lcfg,
	})
	if err != nil {
		panic(err)
	}
	san, err := xport.NewSwitch(k, myrinet.DefaultConfig(nodes))
	if err != nil {
		panic(err)
	}
	router, err := hybrid.New(low.Endpoints[0],
		myrinet.OpenAPI(san, 0, myrinet.DefaultAPIConfig()), hybrid.DefaultConfig())
	if err != nil {
		panic(err)
	}
	var reroute sim.Time
	k.Spawn("tx", func(p *sim.Proc) {
		msg := make([]byte, 16) // far below the crossover: prefers the ring
		for {
			if err := router.Send(p, dst, msg); err != nil {
				panic(err)
			}
			if router.Stats().ProactiveFailovers > 0 {
				reroute = p.Now()
				return
			}
			p.Delay(50 * sim.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return round3(float64(reroute.Sub(kill)) / float64(sim.Microsecond))
}

// failoverLatency assembles the E10 row.
func failoverLatency() FailoverLatency {
	lcfg := liveness.DefaultConfig()
	return FailoverLatency{
		Nodes:           4,
		SuspectWindowUs: round3(float64(lcfg.SuspectAfter) / float64(sim.Microsecond)),
		ConfirmWindowUs: round3(float64(lcfg.ConfirmAfter) / float64(sim.Microsecond)),
		MPIErrorUs:      mpiDeadPeerLatency(lcfg),
		HybridRerouteUs: hybridRerouteLatency(lcfg),
	}
}

// partitionScript severs segments 1 (1→2) and 3 (3→4) of the 5-node
// ring at cut, splitting it into a majority arc {4,0,1} and a minority
// arc {2,3}, and splices both at heal.
func partitionScript(cut, heal sim.Time) *fault.Script {
	return &fault.Script{Seed: 103, Actions: []fault.Action{
		{At: cut, Kind: fault.LinkCut, Node: 1},
		{At: cut, Kind: fault.LinkCut, Node: 3},
		{At: heal, Kind: fault.LinkSplice, Node: 1},
		{At: heal, Kind: fault.LinkSplice, Node: 3},
	}}
}

// partitionCluster builds the E15 cluster: the paper's PIO-only channel
// device with retry and the failure detector on, under script.
func partitionCluster(k *sim.Kernel, nodes int, script *fault.Script, lcfg *liveness.Config) *cluster.Cluster {
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	c, err := cluster.New(k, cluster.Options{
		Nodes: nodes, Net: cluster.SCRAMNet, BBP: &bbp, PIOOnlyBBP: true, Faults: script, Liveness: lcfg,
	})
	if err != nil {
		panic(err)
	}
	return c
}

// partitionFenceLatency double-cuts the ring under a Barrier entered
// just after the cut lands and returns the worst delay, in µs after the
// cut, until a minority rank's Barrier returns PartitionError.
func partitionFenceLatency(lcfg liveness.Config) float64 {
	const nodes = 5
	cut := sim.Time(0).Add(2 * sim.Millisecond)
	heal := sim.Time(0).Add(60 * sim.Millisecond) // after the errors land
	k := sim.NewKernel()
	defer k.Close()
	c := partitionCluster(k, nodes, partitionScript(cut, heal), &lcfg)
	w := mpi.NewWorld(c.Endpoints, mpi.DefaultConfig())
	var worst sim.Time
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		p.Delay(cut.Sub(sim.Time(0)) + 100*sim.Microsecond)
		err := cm.Barrier(p)
		var pe *mpi.PartitionError
		if !errors.As(err, &pe) {
			panic(fmt.Sprintf("E15 rank %d: straddling barrier returned %v, want PartitionError", cm.Rank(), err))
		}
		if pe.Minority && p.Now() > worst {
			worst = p.Now()
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return round3(float64(worst.Sub(cut)) / float64(sim.Microsecond))
}

// partitionHealLatency lets the same double cut be declared on every
// node, splices both segments, and returns the delay, in µs after the
// splice, until every node reports no partition and an all-alive view —
// the minority's incarnation-fenced rejoin and resync included.
func partitionHealLatency(lcfg liveness.Config) float64 {
	const nodes = 5
	cut := sim.Time(0).Add(2 * sim.Millisecond)
	heal := sim.Time(0).Add(8 * sim.Millisecond)
	k := sim.NewKernel()
	defer k.Close()
	c := partitionCluster(k, nodes, partitionScript(cut, heal), &lcfg)
	converged := func() bool {
		for i := 0; i < nodes; i++ {
			e := c.Endpoints[i].(*core.Endpoint)
			if _, ok := e.Partition(); ok {
				return false
			}
			v := e.Liveness()
			for n := 0; n < nodes; n++ {
				if n != i && v.State(n) != liveness.Alive {
					return false
				}
			}
		}
		return true
	}
	var done sim.Time
	healed := false
	deadline := heal.Add(20 * sim.Millisecond)
	var poll func()
	poll = func() {
		if converged() {
			done, healed = k.Now(), true
			return
		}
		if k.Now() < deadline {
			k.At(k.Now().Add(lcfg.Period), poll)
		}
	}
	k.At(heal, poll)
	if err := k.Run(); err != nil {
		panic(err)
	}
	if !healed {
		panic("E15: membership never reconverged after the splice")
	}
	for i := 0; i < nodes; i++ {
		if st := c.Endpoints[i].(*core.Endpoint).LivenessStats(); st.Partitions != 1 || st.PartitionHeals != 1 {
			panic(fmt.Sprintf("E15 node %d: partition lifecycle did not run (stats %+v)", i, st))
		}
	}
	return round3(float64(done.Sub(heal)) / float64(sim.Microsecond))
}

// wrapPenalty returns the propagation cost, in µs, of the dual ring's
// wrap path: the time for one replicated word write from node 0 to
// finish circulating a clean 4-node ring vs the same write with segment
// 1 (1→2, on the packet's path) severed. The delta is pure wire time —
// the extra secondary-ring hops the wrap heal inserts.
func wrapPenalty() float64 {
	run := func(cutSeg int) float64 {
		k := sim.NewKernel()
		defer k.Close()
		n, err := scramnet.New(k, scramnet.DefaultConfig(4))
		if err != nil {
			panic(err)
		}
		if cutSeg >= 0 {
			n.CutLink(cutSeg)
		}
		k.Spawn("writer", func(p *sim.Proc) { n.NIC(0).WriteWord(p, 0, 7) })
		if err := k.Run(); err != nil {
			panic(err)
		}
		if n.NIC(2).Peek(0, 4)[0] != 7 {
			panic("E15: wrap-penalty write not delivered across the cut")
		}
		return float64(k.Now()) / float64(sim.Microsecond)
	}
	clean := run(-1)
	cut := run(1)
	return round3(cut - clean)
}

// partitionTolerance assembles the E15 row.
func partitionTolerance() PartitionTolerance {
	lcfg := liveness.DefaultConfig()
	return PartitionTolerance{
		Nodes:           5,
		SuspectWindowUs: round3(float64(lcfg.SuspectAfter) / float64(sim.Microsecond)),
		ConfirmWindowUs: round3(float64(lcfg.ConfirmAfter) / float64(sim.Microsecond)),
		FenceUs:         partitionFenceLatency(lcfg),
		HealResyncUs:    partitionHealLatency(lcfg),
		WrapPenaltyUs:   wrapPenalty(),
	}
}

// rndvOneWay runs one n-byte MPI send 0→1 on the paper's PIO-only
// SCRAMNet channel device under cfg and returns the receiver's
// completion time in µs: the one-way latency including the whole
// rendezvous handshake.
func rndvOneWay(n int, cfg mpi.Config) float64 {
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, PIOOnlyBBP: true})
	if err != nil {
		panic(err)
	}
	w := mpi.NewWorld(c.Endpoints, cfg)
	var done sim.Time
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		switch cm.Rank() {
		case 0:
			if err := cm.Send(p, 1, 0, make([]byte, n)); err != nil {
				panic(err)
			}
		case 1:
			if _, err := cm.Recv(p, 0, 0, make([]byte, n)); err != nil {
				panic(err)
			}
			done = p.Now()
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	if s := w.Engine(0).Stats(); s.RndvSent != 1 {
		panic(fmt.Sprintf("E11 run was not a rendezvous: %+v", s))
	}
	if s := w.Engine(0).Stats(); cfg.RndvZeroCopy != (s.RndvZeroCopy == 1) {
		panic(fmt.Sprintf("E11 run took the wrong rendezvous path: %+v", s))
	}
	return float64(done) / float64(sim.Microsecond)
}

// rndvPipeline measures the E11 row at the gate's panel point.
func rndvPipeline() RndvPipeline {
	base := mpi.DefaultConfig()
	seq := rndvOneWay(RndvPipelineBytes, base)
	cfg := base
	cfg.RndvZeroCopy = true
	cfg.RndvPipelineDepth = RndvPipelineDepth
	pipe := rndvOneWay(RndvPipelineBytes, cfg)
	imp := 0.0
	if seq > 0 {
		imp = 100 * (1 - pipe/seq)
	}
	return RndvPipeline{
		Bytes:          RndvPipelineBytes,
		PipelineDepth:  RndvPipelineDepth,
		SequentialUs:   round3(seq),
		PipelinedUs:    round3(pipe),
		ImprovementPct: round3(imp),
	}
}

// streamRun executes one 16-rank sum allreduce over a patterned
// StreamAllreduceBytes vector and returns the worst-rank completion
// latency (µs past start), the cluster-wide spin.handler_cycles total,
// and whether any rank degraded to the tree. fast lets the Auto policy
// take the in-network path vs pinning the rank-side tree with
// WithAlgorithm; script/live optionally fault the run, with start
// delaying the collective past the scripted suspicion window.
func streamRun(fast bool, script *fault.Script, live *liveness.Config, start sim.Duration) (us float64, cycles int64, fellBack bool) {
	k := sim.NewKernel()
	defer k.Close()
	m := metrics.New()
	bbp := core.DefaultConfig()
	bbp.Stream.Enabled = true
	c, err := cluster.New(k, cluster.Options{
		Nodes: StreamAllreduceNodes, Net: cluster.SCRAMNet,
		BBP: &bbp, Metrics: m, Liveness: live, Faults: script,
	})
	if err != nil {
		panic(err)
	}
	w := mpi.NewWorld(c.Endpoints, mpi.DefaultConfig())
	var worst sim.Time
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		if start > 0 {
			p.Delay(start)
		}
		me := cm.Rank()
		send := make([]byte, StreamAllreduceBytes)
		for i := 0; i+4 <= len(send); i += 4 {
			lane := uint32(me+1) * uint32(i/4+1)
			send[i], send[i+1], send[i+2], send[i+3] = byte(lane), byte(lane>>8), byte(lane>>16), byte(lane>>24)
		}
		recv := make([]byte, StreamAllreduceBytes)
		if fast {
			err = cm.Allreduce(p, mpi.SumU32, send, recv)
		} else {
			err = cm.Allreduce(p, mpi.SumU32, send, recv, mpi.WithAlgorithm(mpi.Tree))
		}
		if err != nil {
			panic(err)
		}
		for i := 0; i+4 <= len(recv); i += 4 {
			var want uint32
			for r := 0; r < StreamAllreduceNodes; r++ {
				want += uint32(r+1) * uint32(i/4+1)
			}
			got := uint32(recv[i]) | uint32(recv[i+1])<<8 | uint32(recv[i+2])<<16 | uint32(recv[i+3])<<24
			if got != want {
				panic(fmt.Sprintf("E12 rank %d lane %d: got %d want %d", me, i/4, got, want))
			}
		}
		if p.Now() > worst {
			worst = p.Now()
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	cyc, _ := m.Snapshot().Rollup().Counter("spin.handler_cycles", metrics.NodeGlobal)
	for i := 0; i < StreamAllreduceNodes; i++ {
		fellBack = fellBack || w.Engine(i).Stats().StreamFallbacks > 0
	}
	return round3(float64(worst.Sub(sim.Time(0).Add(start))) / float64(sim.Microsecond)), cyc, fellBack
}

// streamAllreduce measures the E12 row and its degradation scenario.
func streamAllreduce() StreamAllreduce {
	treeUs, _, _ := streamRun(false, nil, nil, 0)
	fastUs, cycles, fell := streamRun(true, nil, nil, 0)
	if fell {
		panic("E12 fast-path run fell back with all members alive")
	}
	if cycles <= 0 {
		panic("E12 fast-path run charged no handler cycles")
	}
	// Degradation: rank 11's card is bypassed at 1 ms and repaired at
	// 1.7 ms; the collective starts at 1.72 ms, inside the suspicion
	// window (suspected from 1.5 ms until its next heartbeat circulates
	// after the repair), so the fast path must decline and the tree —
	// with every member alive again — must complete correctly.
	live := liveness.DefaultConfig()
	script := &fault.Script{Seed: 112, Actions: []fault.Action{
		{At: sim.Time(0).Add(1 * sim.Millisecond), Kind: fault.NodeFail, Node: 11},
		{At: sim.Time(0).Add(1700 * sim.Microsecond), Kind: fault.NodeRepair, Node: 11},
	}}
	_, _, degraded := streamRun(true, script, &live, 1720*sim.Microsecond)
	imp := 0.0
	if treeUs > 0 {
		imp = 100 * (1 - fastUs/treeUs)
	}
	return StreamAllreduce{
		Nodes:           StreamAllreduceNodes,
		Bytes:           StreamAllreduceBytes,
		TreeUs:          treeUs,
		HandlerUs:       fastUs,
		ImprovementPct:  round3(imp),
		HandlerCycles:   cycles,
		SuspectFallback: degraded,
	}
}

// e14Barrier runs E14's barrier on a nodes-rank SCRAMNet cluster,
// instrumented by m and traced by rec when they are non-nil: the
// NIC-combined round on the stream-enabled substrate (nic), or the
// paper's multicast-coordinator barrier on the PIO-only one. It runs
// one warm-up and exactly one measured barrier: barrierPath normalizes
// pci.busy_ns over the whole run, so the run stays two barriers long.
func e14Barrier(nodes int, nic bool, m *metrics.Registry, rec *trace.Recorder) bench.BarrierRun {
	impl := bench.BarrierNative
	if nic {
		impl = bench.BarrierNIC
	}
	return bench.MPIBarrier(cluster.Options{Nodes: nodes, Net: cluster.SCRAMNet, Metrics: m, Trace: rec}, impl, 1)
}

// barrierPath runs the traced+instrumented 16-node barrier and reduces
// it to the E14 critical-path summary. The BBP "stream-allreduce" span
// covers the whole window on every rank, so it is excluded and the
// attribution lands on the work spans (BBP post/drain, ring inject,
// spin handler).
func barrierPath(nic bool) BarrierPath {
	m := metrics.New()
	rec := trace.New()
	run := e14Barrier(BarrierHostNodes, nic, m, rec)
	t0, t1 := run.Start, run.End
	var work []trace.SpanRec
	for _, s := range rec.Spans() {
		if s.Name != "stream-allreduce" {
			work = append(work, s)
		}
	}
	shares := timeline.CriticalPath(work, t0, t1)
	if len(shares) == 0 {
		panic("E14 critical path: traced barrier produced no work spans")
	}
	window := t1.Sub(t0).Microseconds()
	snap := m.Snapshot()
	busy, _ := snap.Counter("pci.busy_ns", shares[0].Node)
	frac := 0.0
	// pci.busy_ns accumulates over the whole run (warmup + measured
	// barrier, both the same collective), so normalize by total virtual
	// time rather than the measured window.
	if t1 > 0 {
		frac = float64(busy) / float64(t1.Sub(0))
	}
	return BarrierPath{
		GatingRank:  shares[0].Node,
		PathUs:      round3(shares[0].Us),
		PathFrac:    round3(shares[0].Us / window),
		BusBusyFrac: round3(frac),
	}
}

// barrierScaling measures the E14 section.
func barrierScaling() BarrierScaling {
	hostUs := round3(e14Barrier(BarrierHostNodes, false, nil, nil).Us)
	var nic []BarrierPoint
	byNodes := map[int]float64{}
	for _, n := range BarrierNICNodes {
		us := round3(e14Barrier(n, true, nil, nil).Us)
		nic = append(nic, BarrierPoint{Nodes: n, Us: us})
		byNodes[n] = us
	}
	imp := 0.0
	if hostUs > 0 {
		imp = 100 * (1 - byNodes[BarrierHostNodes]/hostUs)
	}
	ratio := 0.0
	if byNodes[BarrierHostNodes] > 0 {
		ratio = byNodes[256] / byNodes[BarrierHostNodes]
	}
	return BarrierScaling{
		HostNodes:      BarrierHostNodes,
		HostUs:         hostUs,
		NIC:            nic,
		ImprovementPct: round3(imp),
		ScaleRatio:     round3(ratio),
		HostPath:       barrierPath(false),
		NICPath:        barrierPath(true),
	}
}

// busPoint measures one size of the bus-utilization sweep.
func busPoint(n int) BusPoint {
	pioUs, snap, elapsed := instrumented(n, pioOnly)
	dmaUs, _, _ := instrumented(n, dmaAlways)
	// Node 1 is the pong side: it consumes rank 0's messages.
	reads, _ := snap.Counter("pci.pio_read_words", 1)
	polls, _ := snap.Counter("bbp.polls", 1)
	busy, _ := snap.Counter("pci.busy_ns", 1)
	frac := 0.0
	if elapsed > 0 {
		frac = float64(busy) / float64(elapsed)
	}
	return BusPoint{
		Bytes:        n,
		PIOUs:        round3(pioUs),
		DMAUs:        round3(dmaUs),
		PIOReadWords: reads,
		Polls:        polls,
		BusBusyFrac:  round3(frac),
	}
}

// recvDMACrossover scans [lo,hi] for the first size at which the DMA
// receive path is strictly cheaper than PIO reads.
func recvDMACrossover(lo, hi, step int) int {
	if step <= 0 {
		return 0
	}
	pio := func(n int) float64 { us, _, _ := instrumented(n, pioOnly); return us }
	dma := func(n int) float64 { us, _, _ := instrumented(n, dmaAlways); return us }
	return bench.Crossover(pio, dma, lo, hi, step)
}

// Run executes the suite and assembles the report.
func Run(opts Options) Report {
	r := Report{
		Schema: Schema,
		Paper:  "Low-Latency Message Passing on Workstation Clusters using SCRAMNet",
	}
	r.Figures = append(r.Figures,
		Figure{Name: "fig1_small", Title: "SCRAMNet one-way latency, API vs MPI (small messages)", Series: roundSeries(bench.Fig1(opts.SmallSizes))},
		Figure{Name: "fig1", Title: "SCRAMNet one-way latency, API vs MPI", Series: roundSeries(bench.Fig1(opts.FullSizes))},
		Figure{Name: "fig2", Title: "One-way latency across networks, API layer", Series: roundSeries(bench.Fig2(opts.FullSizes))},
		Figure{Name: "fig3", Title: "One-way latency across networks, MPI layer", Series: roundSeries(bench.Fig3(opts.FullSizes))},
		Figure{Name: "fig4", Title: "SCRAMNet point-to-point vs 4-node broadcast, API layer", Series: roundSeries(bench.Fig4(opts.FullSizes))},
	)
	if opts.BarrierAndBcast {
		r.Figures = append(r.Figures,
			Figure{Name: "fig5", Title: "4-node MPI_Bcast, SCRAMNet vs Fast Ethernet", Series: roundSeries(bench.Fig5(opts.FullSizes))})
		for _, row := range bench.Fig6() {
			r.Barrier = append(r.Barrier, BarrierRow{Config: row.Config, Nodes: row.Nodes, Us: round3(row.Microus)})
		}
	}
	r.Throughput = Throughput{
		FixedMBs:    round3(bench.RingThroughput(false)),
		VariableMBs: round3(bench.RingThroughput(true)),
	}
	for _, n := range opts.BusSizes {
		r.BusSweep = append(r.BusSweep, busPoint(n))
	}
	r.RecvDMACrossoverBytes = recvDMACrossover(opts.CrossoverLo, opts.CrossoverHi, opts.CrossoverStep)
	for _, e := range experiments {
		e.run(&r)
	}
	_, snap, _ := instrumented(4, nil)
	r.Rollup = snap.Rollup()
	return r
}

// Marshal renders the report as the canonical BENCH_figures.json bytes
// (indented, trailing newline). Byte-identical across runs.
func Marshal(r Report) []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // no marshal-resistant types in Report
	}
	return append(b, '\n')
}
