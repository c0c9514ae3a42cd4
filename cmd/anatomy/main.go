// Command anatomy traces one BillBoard Protocol message end to end and
// prints its timeline — the decomposition behind the paper's 7.8 µs
// 4-byte one-way latency: post, descriptor and flag writes, ring
// replication, polling detection, data read, acknowledgement.
//
// It renders timeline.RunAnatomy: the per-segment trace spans next to
// the counter × bus cost model, and every disagreement between the
// trace, the metrics registry, the hardware/protocol Stats() counters
// and the cost model. Any disagreement exits nonzero. The trace, the
// counters and the cost model must tell one story.
//
// Usage:
//
//	anatomy [-size 4] [-nodes 4] [-mcast] [-recvany] [-tracecap 4096] [-profile]
//
// -profile installs the kernel self-profiler for the run and renders
// its per-event-kind real-time attribution. Profiling reads only the
// host clock: the decomposition cross-check still passing, plus the
// profiler's event total matching the kernel's own executed-event
// counter, proves it charged zero virtual time.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/sim"
	"repro/internal/timeline"
)

func main() {
	size := flag.Int("size", 4, "message payload bytes")
	nodes := flag.Int("nodes", 4, "ring size")
	mcast := flag.Bool("mcast", false, "broadcast to all nodes instead of unicast")
	recvany := flag.Bool("recvany", false, "receivers use RecvAny (exercises the burst-read poll sweep)")
	tcap := flag.Int("tracecap", 4096, "trace ring-buffer capacity (0 = unbounded)")
	profile := flag.Bool("profile", false, "attach the kernel self-profiler and render the per-kind cost table")
	flag.Parse()

	cfg := timeline.AnatomyConfig{Size: *size, Nodes: *nodes, Mcast: *mcast, RecvAny: *recvany, TraceCap: *tcap}
	if *profile {
		cfg.Profiler = sim.NewProfiler()
	}
	res, err := timeline.RunAnatomy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rec := res.Rec

	kind := "unicast"
	if *mcast {
		kind = fmt.Sprintf("%d-way broadcast", len(res.Receivers))
	}
	fmt.Printf("anatomy of a %d-byte BBP %s on a %d-node ring\n\n", *size, kind, *nodes)
	rec.Render(os.Stdout)
	fmt.Printf("\none-way latency (send call to last consume): %s\n", res.OneWay)
	fmt.Printf("ring packets injected: %d   applies: %d\n",
		rec.Count("inject"), rec.Count("apply"))
	if span, ok := rec.Span("post", "consume"); ok {
		fmt.Printf("post→consume span: %s\n", span)
	}
	if d := rec.Drops(); d > 0 {
		fmt.Printf("\ntrace ring buffer evicted %d event(s)\n", d)
	}

	mod := res.Model
	tx := res.Receivers[0] // the sender-side segments are shared by every receiver
	fmt.Println("\nper-layer decomposition — trace spans vs counters × cost model")
	fmt.Printf("  %-34s %12s  %12s  %s\n", "segment", "trace", "model", "derivation")
	fmt.Printf("  %-34s %12s  %12s  SendSetup\n", "software setup (call→post)", seg(tx.Post.Sub(res.Sent), tx.Posted), mod.Setup)
	fmt.Printf("  %-34s %12s  %12s  %s\n", "sender publish (post→flag-set)", seg(tx.Publish(), tx.Posted && tx.Flagged), mod.Publish, mod.PublishDerivation)
	for _, b := range res.Receivers {
		fmt.Printf("  rx%-2d %-29s %12s  %12s  wire + poll align (floor %s)\n", b.Receiver, "transit+detect (flag-set→detect)", seg(b.Transit(), b.Flagged && b.Detected), "—", mod.DetectFloor)
		fmt.Printf("  rx%-2d %-29s %12s  %12s  %s\n", b.Receiver, "drain (detect→consume)", seg(b.Drain(), b.Detected && b.Delivered), mod.Drain, mod.DrainDerivation)
	}
	fmt.Printf("  %-34s %12s\n", "one-way (call→last consume)", res.OneWay)

	if len(res.Mismatches) > 0 {
		fmt.Println()
		for _, m := range res.Mismatches {
			fmt.Println("MISMATCH:", m)
		}
		fmt.Println("\ncross-check FAILED: trace, metrics and cost model disagree")
		os.Exit(1)
	}
	fmt.Println("\ncross-check OK: trace spans, metrics counters, Stats() and the")
	fmt.Println("bus cost model all agree on the decomposition above.")

	if p := cfg.Profiler; p != nil {
		fmt.Printf("\nkernel self-profile (%d events, identical to the kernel's executed count)\n",
			p.TotalEvents())
		p.Render(os.Stdout)
	}
}

// seg renders a trace segment, or "—" when the trace lost one of its
// bounds.
func seg(d sim.Duration, ok bool) string {
	if !ok {
		return "—"
	}
	return d.String()
}
