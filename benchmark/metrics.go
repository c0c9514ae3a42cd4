package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; BENCHMARK.json carries the same table.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the untraced run's metrics. The virtual-time ones repeat
// exactly for a seed; their bounds cover the spread across seeds, which
// is widest for the open loop's tail. The host-time ones are medians
// over a run's rounds; their bounds cover the spread between runs on a
// shared host, which is widest for throughput and set-up time.
var endToEnd = []metricSpec{
	{"op_p50_us", "us", "lower", 0.05},
	{"op_p99_us", "us", "lower", 0.15},
	{"goodput_mb_s", "MB/s", "higher", 0.05},
	{"host_ops_per_s", "1/s", "higher", 0.20},
	{"host_alloc_kb_per_op", "KiB/op", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// simKinds are the kernel event kinds reported per layer.
var simKinds = []string{"proc", "ring", "event", "fabric", "observer"}

// perLayer are the traced run's metrics, normalized per op.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"sim.events_per_op", "1/op", "lower", 0},
	}
	for _, k := range simKinds {
		m = append(m,
			metricSpec{"sim." + k + ".events_per_op", "1/op", "lower", 0},
			metricSpec{"sim." + k + ".ns_per_event", "ns", "lower", 0})
	}
	return append(m, []metricSpec{
		{"sim.proc.host_share", "ratio", "lower", 0},
		{"go.mallocs_per_op", "1/op", "lower", 0},
		{"go.gc_cycles", "count", "lower", 0},
		{"liveness.beats_per_op", "1/op", "lower", 0},
		{"liveness.suspects", "count", "lower", 0},
		{"scramnet.packets_per_op", "1/op", "lower", 0},
		{"scramnet.hops_per_op", "1/op", "lower", 0},
		{"scramnet.bytes_per_op", "B/op", "lower", 0},
		{"scramnet.payload_efficiency", "ratio", "higher", 0},
		{"scramnet.packets_combined_per_op", "1/op", "higher", 0},
		{"pci.busy_us_per_op", "us/op", "lower", 0},
		{"pci.pio_write_words_per_op", "1/op", "lower", 0},
		{"pci.pio_read_words_per_op", "1/op", "lower", 0},
		{"pci.pio_read_bursts_per_op", "1/op", "lower", 0},
		{"pci.dma_bytes_per_op", "B/op", "lower", 0},
		{"pci.max_util", "ratio", "lower", 0},
		{"xport.send_us_per_op", "us/op", "lower", 0},
		{"xport.recv_us_per_op", "us/op", "lower", 0},
		{"xport.calls_per_op", "1/op", "lower", 0},
		{"core.polls_per_op", "1/op", "lower", 0},
		{"core.poll_words_per_op", "1/op", "lower", 0},
		{"core.gc_passes_per_op", "1/op", "lower", 0},
		{"core.alloc_retries_per_op", "1/op", "lower", 0},
		{"core.retransmits_per_op", "1/op", "lower", 0},
		{"core.poll_hit_ratio", "ratio", "higher", 0},
		{"mpi.call_us_per_op", "us/op", "lower", 0},
		{"mpi.self_us_per_op", "us/op", "lower", 0},
		{"mpi.eager_per_op", "1/op", "lower", 0},
		{"mpi.rndv_per_op", "1/op", "lower", 0},
		{"mpi.chunks_per_op", "1/op", "lower", 0},
		{"mpi.unexpected_per_op", "1/op", "lower", 0},
		{"mpi.stream_allreduces_per_op", "1/op", "higher", 0},
		{"mpi.nic_barriers_per_op", "1/op", "higher", 0},
		{"hybrid.low_sends_per_op", "1/op", "lower", 0},
		{"hybrid.high_sends_per_op", "1/op", "lower", 0},
		{"spin.handlers_run_per_op", "1/op", "lower", 0},
		{"spin.handler_cycles_per_op", "1/op", "lower", 0},
		{"gen.lag_p99_us", "us", "lower", 0},
	}...)
}()

// hostSample is the host cost of one round's simulation.
type hostSample struct {
	wall    time.Duration
	alloc   uint64 // heap bytes allocated
	mallocs uint64
	gcs     uint32
	speed   float64 // median refRate sample during the round
}

// opsPerSec is the round's host throughput at the reference host speed
// refNominal: ops per host second, scaled by how much slower or faster
// the reference loop ran during the round. On a shared host the load of
// other tenants spreads raw throughput by 14–42% over runs minutes
// apart; it moves the reference loop alike (README.md). The loop is the
// benchmark's own code, so a change to the simulator moves only the
// throughput.
func (h hostSample) opsPerSec(ops int) float64 {
	return float64(ops) / h.wall.Seconds() * refNominal / h.speed
}

const (
	// refNominal is the reference loop's rate on the development host at
	// rest, in iterations per second.
	refNominal = 2e6
	// refIters is one reference sample, 25–35 ms of host time.
	refIters = 50_000
	// paceEvery is the host time between reference samples in a round.
	paceEvery = 250 * time.Millisecond
)

var refMsg, refBuf = [128]byte{1}, [1 << 20]byte{}

// refRate is the host's current speed: iterations per second of a fixed
// loop of what the simulator spends most of its host time on, a handoff
// between two goroutines over unbuffered channels, here with a 128-byte
// copy. It allocates only its channels, so it leaves the round's
// allocation counts alone.
func refRate() float64 {
	in, out := make(chan int), make(chan int)
	go func() {
		for i := range in {
			copy(refBuf[i*len(refMsg)%len(refBuf):], refMsg[:])
			out <- i
		}
		close(out)
	}()
	t0 := time.Now()
	for i := 0; i < refIters; i++ {
		in <- i
		<-out
	}
	d := time.Since(t0)
	close(in)
	<-out
	return refIters / d.Seconds()
}

// pacer samples the reference loop during a round, from inside the
// simulated processes: while a process runs the kernel waits for it, so
// virtual time stands still and the simulation is unchanged. The
// samples' host time is left out of the round's.
type pacer struct {
	last   time.Time
	paused time.Duration
	rates  []float64
}

// pace takes a sample if paceEvery has passed since the last one; the
// first call of a round always does.
func (pc *pacer) pace() {
	if time.Since(pc.last) < paceEvery {
		return
	}
	t0 := time.Now()
	pc.rates = append(pc.rates, refRate())
	pc.last = time.Now()
	pc.paused += pc.last.Sub(t0)
}

// measure runs fn and returns its host cost.
func measure(fn func()) hostSample {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return hostSample{
		wall:    wall,
		alloc:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     after.NumGC - before.NumGC,
	}
}

// virtualMetrics are the end-to-end metrics on the virtual clock.
func virtualMetrics(r *round) map[string]float64 {
	lat := sorted(r.lat)
	return map[string]float64{
		"op_p50_us":    percentile(lat, 0.50),
		"op_p99_us":    percentile(lat, 0.99),
		"goodput_mb_s": float64(r.payload) / max(r.last.Sub(r.first).Microseconds(), 1e-3),
	}
}

// layerMetrics are the per-layer metrics of one traced round.
func layerMetrics(tb *testbed, r *round, h hostSample) map[string]float64 {
	ops := float64(max(r.done, 1))
	snap := tb.reg.Snapshot()
	roll := snap.Rollup()
	cnt := func(name string) float64 {
		v, _ := roll.Counter(name, metrics.NodeGlobal)
		return float64(v)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	kinds := map[string]sim.KindStat{}
	var events, wall int64
	for _, s := range tb.prof.Stats() {
		kinds[s.Kind] = s
		events += s.Events
		wall += s.WallNs
	}
	m["sim.events_per_op"] = float64(events) / ops
	for _, k := range simKinds {
		m["sim."+k+".events_per_op"] = float64(kinds[k].Events) / ops
		m["sim."+k+".ns_per_event"] = ratio(float64(kinds[k].WallNs), float64(kinds[k].Events))
	}
	m["sim.proc.host_share"] = ratio(float64(kinds["proc"].WallNs), float64(wall))
	m["go.mallocs_per_op"] = float64(h.mallocs) / ops
	m["go.gc_cycles"] = float64(h.gcs)
	m["liveness.beats_per_op"] = cnt("liveness.beats") / ops
	m["liveness.suspects"] = cnt("liveness.suspects")

	m["scramnet.packets_per_op"] = cnt("ring.packets_injected") / ops
	m["scramnet.hops_per_op"] = cnt("ring.hops") / ops
	m["scramnet.bytes_per_op"] = cnt("ring.bytes_injected") / ops
	m["scramnet.payload_efficiency"] = ratio(float64(r.payload), cnt("ring.bytes_injected"))
	m["scramnet.packets_combined_per_op"] = cnt("ring.packets_combined") / ops

	m["pci.busy_us_per_op"] = cnt("pci.busy_ns") / 1e3 / ops
	m["pci.pio_write_words_per_op"] = cnt("pci.pio_write_words") / ops
	m["pci.pio_read_words_per_op"] = cnt("pci.pio_read_words") / ops
	m["pci.pio_read_bursts_per_op"] = cnt("pci.pio_read_bursts") / ops
	m["pci.dma_bytes_per_op"] = cnt("pci.dma_bytes") / ops
	var maxBusy int64
	for _, c := range snap.Counters {
		if c.Name == "pci.busy_ns" && c.Value > maxBusy {
			maxBusy = c.Value
		}
	}
	m["pci.max_util"] = ratio(float64(maxBusy), float64(tb.k.Now()))

	tr := tb.tr
	m["xport.send_us_per_op"] = us(tr.xportNs[xSend]) / ops
	m["xport.recv_us_per_op"] = us(tr.xportNs[xRecv]) / ops
	m["xport.calls_per_op"] = float64(tr.xportCalls) / ops

	m["core.polls_per_op"] = cnt("bbp.polls") / ops
	m["core.poll_words_per_op"] = cnt("bbp.poll_words") / ops
	m["core.gc_passes_per_op"] = cnt("bbp.gc_passes") / ops
	m["core.alloc_retries_per_op"] = cnt("bbp.alloc_retries") / ops
	m["core.retransmits_per_op"] = cnt("bbp.retransmits") / ops
	m["core.poll_hit_ratio"] = ratio(cnt("bbp.recvs"), cnt("bbp.polls"))

	m["mpi.call_us_per_op"] = us(tr.mpiNs) / ops
	m["mpi.self_us_per_op"] = us(tr.mpiSelfNs) / ops
	m["mpi.eager_per_op"] = cnt("mpi.eager_sent") / ops
	m["mpi.rndv_per_op"] = cnt("mpi.rndv_sent") / ops
	m["mpi.chunks_per_op"] = cnt("mpi.chunks_sent") / ops
	m["mpi.unexpected_per_op"] = cnt("mpi.unexpected_msgs") / ops
	m["mpi.stream_allreduces_per_op"] = cnt("mpi.stream_allreduces") / ops
	m["mpi.nic_barriers_per_op"] = cnt("mpi.nic_barriers") / ops

	m["hybrid.low_sends_per_op"] = cnt("hybrid.low_sends") / ops
	m["hybrid.high_sends_per_op"] = cnt("hybrid.high_sends") / ops
	m["spin.handlers_run_per_op"] = cnt("spin.handlers_run") / ops
	m["spin.handler_cycles_per_op"] = cnt("spin.handler_cycles") / ops
	m["gen.lag_p99_us"] = percentile(sorted(r.lag), 0.99)
	return m
}

// counters lists every protocol counter the endpoints and MPI engines
// keep, for the determinism digest. They exist with or without tracing.
func counters(tb *testbed) []int64 {
	out := []int64{int64(tb.k.Now()), tb.k.Executed()}
	add := func(st any) {
		v := reflect.ValueOf(st)
		for i := 0; i < v.NumField(); i++ {
			out = append(out, v.Field(i).Int())
		}
	}
	for _, ep := range tb.c.Endpoints {
		switch e := ep.(type) {
		case *core.Endpoint:
			add(e.Stats())
			add(e.LivenessStats())
		case *hybrid.Endpoint:
			add(e.Stats())
		}
	}
	if tb.world != nil {
		for i := 0; i < tb.world.Size(); i++ {
			add(tb.world.Engine(i).Stats())
		}
	}
	return out
}

// anomalies lists protocol events that must not happen on these
// fault-free workloads: retry exhaustion, dead or partitioned peers,
// fencing, NIC-path fallbacks, collective re-plans and hybrid
// failovers. A suspicion that a later beat refutes is not one: it is
// reported as liveness.suspects. The
// traced run adds the registry-only ones: handler traps and lost ring
// packets.
func anomalies(tb *testbed) []string {
	var out []string
	note := func(what string, n int64) {
		if n != 0 {
			out = append(out, fmt.Sprintf("%s=%d", what, n))
		}
	}
	for i, ep := range tb.c.Endpoints {
		switch e := ep.(type) {
		case *core.Endpoint:
			st, ls := e.Stats(), e.LivenessStats()
			note(fmt.Sprintf("rank%d.retry_failures", i), st.RetryFailures)
			note(fmt.Sprintf("rank%d.dead_peer_reclaims", i), st.DeadPeerReclaims)
			note(fmt.Sprintf("rank%d.fenced_sends", i), st.FencedSends)
			note(fmt.Sprintf("rank%d.stream_fallbacks", i), st.StreamFallbacks)
			note(fmt.Sprintf("rank%d.liveness_confirms", i), ls.Confirms)
			note(fmt.Sprintf("rank%d.partitions", i), ls.Partitions)
		case *hybrid.Endpoint:
			st := e.Stats()
			note(fmt.Sprintf("rank%d.hybrid_failovers", i), st.Failovers+st.ProactiveFailovers)
		}
	}
	if tb.world != nil {
		for i := 0; i < tb.world.Size(); i++ {
			st := tb.world.Engine(i).Stats()
			note(fmt.Sprintf("rank%d.mpi_stream_fallbacks", i), st.StreamFallbacks)
			note(fmt.Sprintf("rank%d.coll_replans", i), st.CollReplans)
			note(fmt.Sprintf("rank%d.partition_errors", i), st.PartitionErrors)
		}
	}
	if tb.reg != nil {
		roll := tb.reg.Snapshot().Rollup()
		for _, name := range []string{"spin.traps_to_host", "ring.packets_lost"} {
			v, _ := roll.Counter(name, metrics.NodeGlobal)
			note(name, v)
		}
	}
	return out
}
