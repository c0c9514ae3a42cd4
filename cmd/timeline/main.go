// Command timeline joins the causal span trace with the periodic
// metrics snapshot stream for a fully observed run of the simulated
// testbed.
//
// It replays one point of the EXPERIMENTS.md E6 fault sweep — 4-node
// SCRAMNet ring, retry-enabled BBP, a scripted loss window — with
// tracing and snapshot streaming on, prints the per-message latency
// breakdown table rebuilt from spans alone, and flags the snapshot
// intervals where retransmissions and PCI bus occupancy spiked
// together. With -chrome it also exports the span stream as Chrome
// trace_event JSON for chrome://tracing / Perfetto. The command exits
// nonzero when a lossy run produces no co-spike interval: on this
// workload retry storms must be visible on the bus, so an empty
// correlation table means the observability pipeline broke.
//
// The one-message anatomy decomposition lives in cmd/anatomy.
//
// Usage:
//
//	timeline [-rate 0.15] [-seed 1999] [-every 100] [-cap N] [-msg s:q] [-chrome out.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

func main() {
	rate := flag.Float64("rate", 0.15, "ring packet-drop probability")
	seed := flag.Uint64("seed", 1999, "fault-script seed")
	every := flag.Int64("every", 100, "snapshot period in simulated µs")
	cap := flag.Int("cap", 0, "trace ring-buffer capacity (0 = unbounded)")
	msg := flag.String("msg", "", "focus on one message id, as sender:seq")
	chrome := flag.String("chrome", "", "write Chrome trace_event JSON here")
	flag.Parse()
	sweep(*rate, *seed, *every, *cap, *msg, *chrome)
}

// sweep replays one E6 fault-sweep point with full observability.
func sweep(rate float64, seed uint64, everyUS int64, cap int, msgSel, chromeOut string) {
	cfg := timeline.DefaultSweepConfig()
	cfg.Rate = rate
	cfg.Seed = seed
	cfg.TraceCap = cap
	if everyUS > 0 {
		cfg.SnapshotEvery = sim.Duration(everyUS) * sim.Microsecond
	}
	res, err := timeline.RunSweep(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fault-sweep point: rate=%.2f seed=%d — %d/%d messages delivered, %d snapshot points, %d trace events\n\n",
		rate, seed, res.Point.Delivered, res.Point.Sent, len(res.Points), len(res.Rec.Events()))

	bds := res.Breakdowns
	if msgSel != "" {
		var s int
		var q uint32
		if _, err := fmt.Sscanf(msgSel, "%d:%d", &s, &q); err != nil {
			log.Fatalf("timeline: bad -msg %q, want sender:seq", msgSel)
		}
		want := trace.MsgID(s, q)
		var kept []timeline.Breakdown
		for _, b := range bds {
			if b.Msg == want {
				kept = append(kept, b)
			}
		}
		if len(kept) == 0 {
			log.Fatalf("timeline: message %s not in the trace", msgSel)
		}
		bds = kept
	}
	fmt.Println("per-message latency breakdown (rebuilt from spans alone)")
	timeline.RenderBreakdowns(os.Stdout, bds)
	if d := res.Rec.Drops(); d > 0 {
		fmt.Printf("(capped recorder evicted %d events; breakdowns of early messages may be partial)\n", d)
	}

	fmt.Println("\nco-spike intervals: Δbbp.retransmits > 0 and Δpci.busy_ns above the median window")
	if len(res.Intervals) == 0 {
		fmt.Println("(none)")
	} else {
		timeline.RenderIntervals(os.Stdout, res.Intervals)
	}

	if chromeOut != "" {
		f, err := os.Create(chromeOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := timeline.WriteChromeTrace(f, res.Rec); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing)\n", chromeOut)
	}

	if rate > 0 && len(res.Intervals) == 0 {
		fmt.Println("\nFAILED: a lossy run must show at least one interval where retry")
		fmt.Println("traffic and bus occupancy spike together; none was found.")
		os.Exit(1)
	}
	if rate > 0 {
		total := int64(0)
		for _, iv := range res.Intervals {
			total += iv.DRetrans
		}
		fmt.Printf("\ncorrelation OK: %d interval(s) capture %d retransmit(s) alongside above-median bus growth\n",
			len(res.Intervals), total)
	}
}
