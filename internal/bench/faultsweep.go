package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/xport/oracle"
)

// The fault-sweep experiment measures what the retry extension costs:
// one-way BBP latency as the ring's transient loss rate rises from the
// paper's fault-free baseline. Every point is a full oracle-checked run
// — a point only counts if every message arrived exactly once and in
// order — so the curve shows graceful degradation, not silent loss.

// FaultPoint is one measurement of the sweep.
type FaultPoint struct {
	// Rate is the packet-drop probability the ring sustained for the
	// whole run.
	Rate float64
	// MeanLatency is the average send-to-delivery latency in µs.
	MeanLatency float64
	// MaxLatency is the worst single delivery in µs (recovery tail).
	MaxLatency float64
	// Sent and Delivered count application messages; the oracle has
	// already proven Delivered == Sent with exactly-once semantics.
	Sent, Delivered int
	// Retransmits and ChecksumDrops expose the recovery work done.
	Retransmits   int64
	ChecksumDrops int64
}

// LossRun is the E6 workload: node 0 streams Messages timed
// Bytes-byte sends, Gap apart, to node 1 of a 4-node SCRAMNet ring with
// the BBP retry extension recovering the ring's drops. FaultSweep runs
// it bare at each rate; timeline.RunSweep runs it once with tracing and
// the snapshot stream on.
type LossRun struct {
	// Messages is the number of messages the sender streams.
	Messages int
	// Bytes is the payload size.
	Bytes int
	// Gap is the inter-send spacing; a nonzero gap keeps the sender's
	// 16 buffers from saturating so latency reflects recovery, not
	// queueing.
	Gap sim.Duration
	// Seed feeds the fault script so a run replays bit-identically.
	Seed uint64
	// Retry tunes the BBP retry extension.
	Retry core.RetryConfig
}

// FaultSweepConfig parameterizes a sweep: the loss run, measured once
// per rate.
type FaultSweepConfig struct {
	LossRun
	// Rates are the drop probabilities to measure, typically starting
	// at 0 for the calibrated baseline.
	Rates []float64
}

// DefaultFaultSweepConfig returns the tuning used by the EXPERIMENTS.md
// fault-sweep figure: 30 × 32 B messages at each of five loss rates.
func DefaultFaultSweepConfig() FaultSweepConfig {
	return FaultSweepConfig{
		LossRun: LossRun{
			Messages: 30,
			Bytes:    32,
			Gap:      25 * sim.Microsecond,
			Seed:     1999,
			Retry:    core.DefaultRetryConfig(),
		},
		Rates: []float64{0, 0.05, 0.10, 0.15, 0.20},
	}
}

// FaultSweep runs one oracle-checked latency measurement per loss rate
// and returns the points in rate order. It panics if any run violates
// exactly-once in-order delivery or fails outright — a sweep point with
// lost messages would be a protocol bug, not a measurement.
func FaultSweep(cfg FaultSweepConfig) []FaultPoint {
	out := make([]FaultPoint, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		pt, _, err := cfg.LossRun.Run(rate, cluster.Options{})
		if err != nil {
			panic(err)
		}
		out = append(out, pt)
	}
	return out
}

// Run measures the loss run with the ring holding the given drop rate
// for the whole run. opts carries the caller's instrumentation
// (Metrics, Trace, SnapshotEvery, Profiler); Run sets
// Nodes, Net, BBP and Faults itself. It returns the point and the
// built cluster, whose snapshot stream (Cluster.Stream) holds the run's
// captures. A failed run, or one that violates exactly-once in-order
// delivery, returns an error.
func (l LossRun) Run(rate float64, opts cluster.Options) (FaultPoint, *cluster.Cluster, error) {
	k := sim.NewKernel()
	defer k.Close()

	var script *fault.Script
	if rate > 0 {
		script = &fault.Script{Seed: l.Seed, Actions: []fault.Action{
			{At: 0, Kind: fault.LossStart, Rate: rate},
		}}
	}
	bbp := core.DefaultConfig()
	bbp.Retry = l.Retry
	opts.Nodes, opts.Net, opts.BBP, opts.Faults = 4, cluster.SCRAMNet, &bbp, script
	c, err := cluster.New(k, opts)
	if err != nil {
		return FaultPoint{}, nil, err
	}
	o := oracle.New()
	tx, rx := o.Wrap(c.Endpoints[0]), o.Wrap(c.Endpoints[1])

	sendAt := make([]sim.Time, l.Messages)
	recvAt := make([]sim.Time, 0, l.Messages)
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < l.Messages; i++ {
			msg := make([]byte, l.Bytes)
			if l.Bytes > 0 {
				msg[0] = byte(i + 1)
			}
			sendAt[i] = p.Now()
			if err := tx.Send(p, 1, msg); err != nil {
				panic(err)
			}
			p.Delay(l.Gap)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, l.Bytes+1)
		for i := 0; i < l.Messages; i++ {
			if _, err := rx.Recv(p, 0, buf); err != nil {
				panic(err)
			}
			recvAt = append(recvAt, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		return FaultPoint{}, nil, fmt.Errorf("loss run rate=%.2f: %w", rate, err)
	}
	if st, err := o.Check(true); err != nil {
		return FaultPoint{}, nil, fmt.Errorf("loss run rate=%.2f violated delivery contract: %w (%v)", rate, err, st)
	}

	pt := FaultPoint{Rate: rate, Sent: l.Messages, Delivered: len(recvAt)}
	// The oracle proved in-order exactly-once delivery, so recvAt[i]
	// pairs with sendAt[i].
	for i, at := range recvAt {
		lat := at.Sub(sendAt[i]).Microseconds()
		pt.MeanLatency += lat
		if lat > pt.MaxLatency {
			pt.MaxLatency = lat
		}
	}
	pt.MeanLatency /= float64(l.Messages)
	stats := c.Endpoints[0].(*core.Endpoint).Stats()
	pt.Retransmits = stats.Retransmits
	pt.ChecksumDrops = stats.ChecksumDrops
	return pt, c, nil
}

// RenderFaultSweep writes the sweep as a fixed-width table.
func RenderFaultSweep(w io.Writer, pts []FaultPoint) {
	title := "Fault sweep: BBP one-way latency vs ring loss rate (retry enabled)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%8s  %12s  %12s  %10s  %12s  %8s\n",
		"loss", "mean", "worst", "delivered", "retransmits", "ckdrops")
	for _, p := range pts {
		fmt.Fprintf(w, "%7.0f%%  %10.1fµs  %10.1fµs  %6d/%-3d  %12d  %8d\n",
			p.Rate*100, p.MeanLatency, p.MaxLatency, p.Delivered, p.Sent,
			p.Retransmits, p.ChecksumDrops)
	}
	fmt.Fprintln(w)
}
