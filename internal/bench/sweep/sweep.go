// Package sweep is the OSU-style continuous-performance matrix: a
// latency / bandwidth / message-rate grid across substrates and rank
// counts, emitted as the schema-versioned, byte-stable BENCH_sweep.json
// and summarized into one trajectory record per run
// (BENCH_trajectory.jsonl) so regressions show as *trends* across runs,
// not just single-run drift against a golden file.
//
// The three benchmark shapes mirror the OSU micro-benchmark suite:
//
//   - latency: ping-pong between rank 0 and the farthest rank, so the
//     rank axis exercises real ring hop counts;
//   - bandwidth: a window of messages streamed 0 → last, timed first
//     post to last drain;
//   - message rate: back-to-back small sends, in messages per second.
//
// Byte stability follows the report-package construction: the sim is
// deterministic, no wall-clock values enter the document, floats are
// rounded to three decimals, and serialization is struct-field-ordered
// json.MarshalIndent. The kernel self-profiler (Options.Profiler)
// measures host time but publishes through its own channel, never into
// the document.
package sweep

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Schema is the sweep document format version. Bump on any field
// change, as with report.Schema.
//
// Schema 2 adds the collective axis to every cell: barrier_us (the
// point-to-point tree barrier, portable across substrates) and, on the
// ring, nic_barrier_us (the NIC-combined barrier), so barrier latency
// rides the same trajectory trend gate as the point-to-point metrics.
const Schema = 2

// Options selects the matrix axes. The zero value is not runnable; use
// DefaultOptions or ReducedOptions.
type Options struct {
	// Substrates and Ranks are the grid axes. Every substrate runs at
	// every rank count.
	Substrates []cluster.Network
	Ranks      []int
	// LatencySizes are the ping-pong payload sizes; BandwidthSizes the
	// streamed payload sizes.
	LatencySizes   []int
	BandwidthSizes []int
	// BandwidthWindow is how many messages each bandwidth point streams.
	BandwidthWindow int
	// RateBytes/RateCount parameterize the message-rate point:
	// RateCount back-to-back RateBytes-sized sends.
	RateBytes, RateCount int
	// Profiler, when non-nil, is installed on every kernel the sweep
	// builds, accumulating a real-time cost attribution for the whole
	// matrix (rendered by cmd/sweep -profile; never part of the JSON).
	Profiler *sim.Profiler
}

// DefaultOptions is the full matrix, as committed in BENCH_sweep.json:
// the ring, the hybrid subsystem, and two pure fabrics, at the paper's
// testbed size up to the 16-rank scaling point.
func DefaultOptions() Options {
	return Options{
		Substrates:      []cluster.Network{cluster.SCRAMNet, cluster.Hybrid, cluster.FastEthernet, cluster.MyrinetAPI},
		Ranks:           []int{2, 4, 8, 16},
		LatencySizes:    []int{0, 64, 1024},
		BandwidthSizes:  []int{1024, 16384},
		BandwidthWindow: 16,
		RateBytes:       4,
		RateCount:       64,
	}
}

// ReducedOptions is a small subset for schema and stability tests.
func ReducedOptions() Options {
	return Options{
		Substrates:      []cluster.Network{cluster.SCRAMNet, cluster.FastEthernet},
		Ranks:           []int{2, 4},
		LatencySizes:    []int{0, 64},
		BandwidthSizes:  []int{1024},
		BandwidthWindow: 4,
		RateBytes:       4,
		RateCount:       16,
	}
}

// SizePoint is one (payload size, value) measurement.
type SizePoint struct {
	Bytes int     `json:"bytes"`
	Value float64 `json:"value"`
}

// Cell is one (substrate, ranks) grid cell.
type Cell struct {
	Substrate string `json:"substrate"`
	Ranks     int    `json:"ranks"`
	// LatencyUs is one-way ping-pong latency (µs) per payload size,
	// rank 0 ↔ the farthest rank.
	LatencyUs []SizePoint `json:"latency_us"`
	// BandwidthMBs is streaming throughput (MB/s) per payload size.
	BandwidthMBs []SizePoint `json:"bandwidth_mb_s"`
	// RateMsgS is the small-message rate in messages per second.
	RateBytes int     `json:"rate_bytes"`
	RateMsgS  float64 `json:"rate_msg_s"`
	// BarrierUs is the full-communicator tree-barrier latency (µs per
	// barrier) — the one collective every substrate supports.
	BarrierUs float64 `json:"barrier_us"`
	// NICBarrierUs is the NIC-combined barrier latency, present only on
	// the ring (the combining stream needs the SCRAMNet substrate).
	NICBarrierUs float64 `json:"nic_barrier_us,omitempty"`
}

// Report is the document written to BENCH_sweep.json.
type Report struct {
	Schema int    `json:"schema"`
	Paper  string `json:"paper"`
	Cells  []Cell `json:"cells"`
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// build constructs one testbed for a grid cell.
func build(k *sim.Kernel, net cluster.Network, ranks int, prof *sim.Profiler) *cluster.Cluster {
	c, err := cluster.New(k, cluster.Options{Nodes: ranks, Net: net, Profiler: prof})
	if err != nil {
		panic(fmt.Sprintf("sweep: build %s/%d: %v", net, ranks, err))
	}
	return c
}

// Latency measures one-way ping-pong latency (µs) between rank 0 and
// rank ranks-1 — the farthest pair, so larger rank counts traverse more
// ring hops — for an n-byte payload.
func Latency(net cluster.Network, ranks, n int, prof *sim.Profiler) float64 {
	k := sim.NewKernel()
	defer k.Close()
	c := build(k, net, ranks, prof)
	return bench.PingPong(k, c.Endpoints[0], c.Endpoints[ranks-1], n)
}

// Bandwidth measures streaming throughput (MB/s): rank 0 posts window
// n-byte messages to rank ranks-1 as fast as the substrate admits them;
// the clock runs from the first post to the last drain.
func Bandwidth(net cluster.Network, ranks, n, window int, prof *sim.Profiler) float64 {
	k := sim.NewKernel()
	defer k.Close()
	c := build(k, net, ranks, prof)
	elapsed, err := bench.StreamTime(k, c.Endpoints[0], c.Endpoints[ranks-1], n, window)
	if err != nil {
		panic(fmt.Sprintf("sweep: bandwidth %s/%d/%dB: %v", net, ranks, n, err))
	}
	if elapsed <= 0 {
		panic(fmt.Sprintf("sweep: bandwidth %s/%d/%dB: degenerate elapsed %d", net, ranks, n, elapsed))
	}
	return float64(window*n) / (float64(elapsed) / 1e9) / 1e6
}

// Run executes the matrix and assembles the report. Cells appear in
// axis order (substrates outer, ranks inner), so the document layout is
// stable for a given Options.
func Run(opts Options) Report {
	r := Report{
		Schema: Schema,
		Paper:  "Low-Latency Message Passing on Workstation Clusters using SCRAMNet",
	}
	for _, net := range opts.Substrates {
		for _, ranks := range opts.Ranks {
			cell := Cell{Substrate: string(net), Ranks: ranks, RateBytes: opts.RateBytes}
			for _, n := range opts.LatencySizes {
				cell.LatencyUs = append(cell.LatencyUs, SizePoint{
					Bytes: n, Value: round3(Latency(net, ranks, n, opts.Profiler)),
				})
			}
			for _, n := range opts.BandwidthSizes {
				cell.BandwidthMBs = append(cell.BandwidthMBs, SizePoint{
					Bytes: n, Value: round3(Bandwidth(net, ranks, n, opts.BandwidthWindow, opts.Profiler)),
				})
			}
			cell.RateMsgS = round3(bench.MessageRate(cluster.Options{Nodes: ranks, Net: net, Profiler: opts.Profiler}, opts.RateBytes, opts.RateCount))
			bare := cluster.Options{Nodes: ranks, Net: net}
			cell.BarrierUs = round3(bench.MPIBarrier(bare, bench.BarrierP2P, bench.Iters).Us)
			if net == cluster.SCRAMNet {
				cell.NICBarrierUs = round3(bench.MPIBarrier(bare, bench.BarrierNIC, bench.Iters).Us)
			}
			r.Cells = append(r.Cells, cell)
		}
	}
	return r
}

// Marshal renders the report as the canonical BENCH_sweep.json bytes
// (indented, trailing newline). Byte-identical across runs.
func Marshal(r Report) []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
