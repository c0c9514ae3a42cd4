// Command anatomy traces one BillBoard Protocol message end to end and
// prints its timeline — the decomposition behind the paper's 7.8 µs
// 4-byte one-way latency: post, descriptor and flag writes, ring
// replication, polling detection, data read, acknowledgement.
//
// It then rebuilds the same decomposition a second way: per-layer costs
// derived from the metrics counters multiplied by the configured bus
// costs. The two breakdowns, the hardware/protocol Stats() counters and
// the metrics registry are all cross-checked against each other; any
// disagreement exits nonzero. The trace, the counters and the cost
// model must tell one story.
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

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pci"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	size := flag.Int("size", 4, "message payload bytes")
	nodes := flag.Int("nodes", 4, "ring size")
	mcast := flag.Bool("mcast", false, "broadcast to all nodes instead of unicast")
	recvany := flag.Bool("recvany", false, "receivers use RecvAny (exercises the burst-read poll sweep)")
	tcap := flag.Int("tracecap", 4096, "trace ring-buffer capacity (0 = unbounded)")
	profile := flag.Bool("profile", false, "attach the kernel self-profiler and render the per-kind cost table")
	flag.Parse()

	k := sim.NewKernel()
	var profiler *sim.Profiler
	if *profile {
		profiler = sim.NewProfiler()
		k.SetProfiler(profiler)
	}
	ring, err := scramnet.New(k, scramnet.DefaultConfig(*nodes))
	if err != nil {
		log.Fatal(err)
	}
	ring.SetSingleWriterCheck(true)
	rec := trace.New()
	if *tcap > 0 {
		rec = trace.NewCapped(*tcap)
	}
	m := metrics.New()
	bcfg := core.DefaultConfig()
	sys, err := core.New(ring, bcfg, core.WithTracer(rec), core.WithMetrics(m))
	if err != nil {
		log.Fatal(err)
	}
	ring.SetTracer(rec)
	ring.SetMetrics(m)

	eps := make([]*core.Endpoint, *nodes)
	for i := range eps {
		if eps[i], err = sys.Attach(i); err != nil {
			log.Fatal(err)
		}
	}

	recvs := []int{1}
	if *mcast {
		recvs = nil
		for i := 1; i < *nodes; i++ {
			recvs = append(recvs, i)
		}
	}
	var sent sim.Time
	var lastDone sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		p.Delay(10 * sim.Microsecond) // receivers already polling
		sent = p.Now()
		if *mcast {
			if err := eps[0].Mcast(p, recvs, make([]byte, *size)); err != nil {
				log.Fatal(err)
			}
		} else {
			if err := eps[0].Send(p, 1, make([]byte, *size)); err != nil {
				log.Fatal(err)
			}
		}
	})
	for _, r := range recvs {
		r := r
		k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
			buf := make([]byte, *size+1)
			if *recvany {
				if _, _, err := eps[r].RecvAny(p, buf); err != nil {
					log.Fatal(err)
				}
			} else if _, err := eps[r].Recv(p, 0, buf); err != nil {
				log.Fatal(err)
			}
			if p.Now() > lastDone {
				lastDone = p.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}

	kind := "unicast"
	if *mcast {
		kind = fmt.Sprintf("%d-way broadcast", len(recvs))
	}
	fmt.Printf("anatomy of a %d-byte BBP %s on a %d-node ring\n\n", *size, kind, *nodes)
	rec.Render(os.Stdout)
	fmt.Printf("\none-way latency (send call to last consume): %s\n", lastDone.Sub(sent))
	fmt.Printf("ring packets injected: %d   applies: %d\n",
		rec.Count("inject"), rec.Count("apply"))
	if span, ok := rec.Span("post", "consume"); ok {
		fmt.Printf("post→consume span: %s\n", span)
	}

	// The capped recorder bounds memory; evictions are tolerable unless
	// they may have eaten events of the message under the microscope.
	if d := rec.Drops(); d > 0 {
		fmt.Printf("\ntrace ring buffer evicted %d event(s)\n", d)
		if rec.MayHaveDroppedMsg(trace.MsgID(0, 1)) {
			fmt.Println("evictions may cover the traced message — rerun with a larger -tracecap")
			os.Exit(1)
		}
	}

	if !crossCheck(rec, m, ring, eps, bcfg, sent, lastDone, *size, recvs) {
		fmt.Println("\ncross-check FAILED: trace, metrics and cost model disagree")
		os.Exit(1)
	}
	fmt.Println("\ncross-check OK: trace spans, metrics counters, Stats() and the")
	fmt.Println("bus cost model all agree on the decomposition above.")

	if profiler != nil {
		// Counter identity: every event the kernel executed was profiled,
		// and the cross-check above already proved the virtual timeline is
		// the unprofiled one — together, profiling cost zero virtual time.
		if profiler.TotalEvents() != k.Executed() {
			fmt.Printf("\nprofiler counted %d events but the kernel executed %d\n",
				profiler.TotalEvents(), k.Executed())
			os.Exit(1)
		}
		fmt.Printf("\nkernel self-profile (%d events, identical to the kernel's executed count)\n",
			profiler.TotalEvents())
		profiler.Render(os.Stdout)
	}
}

// eventTime returns the time of the first (last=false) or last
// (last=true) trace event with the given name on the given node.
func eventTime(rec *trace.Recorder, node int, name string, last bool) (sim.Time, bool) {
	var t sim.Time
	found := false
	for _, e := range rec.Events() {
		if e.Node != node || e.Name != name {
			continue
		}
		if !found || last {
			t = e.T
		}
		found = true
	}
	return t, found
}

// crossCheck derives the per-layer decomposition from the metrics
// counters times the configured bus costs, prints it next to the trace
// spans, and verifies that the trace, the metrics registry, the
// hardware/protocol Stats() counters and the cost model agree.
func crossCheck(rec *trace.Recorder, m *metrics.Registry, ring *scramnet.Network,
	eps []*core.Endpoint, bcfg core.Config, sent, lastDone sim.Time, size int, recvs []int) bool {
	snap := m.Snapshot()
	up := snap.Rollup()
	buscfg := ring.NIC(0).Bus().Config()
	ok := true
	fail := func(format string, args ...any) {
		fmt.Printf("MISMATCH: "+format+"\n", args...)
		ok = false
	}
	counter := func(name string, node int) int64 {
		v, _ := snap.Counter(name, node)
		return v
	}
	global := func(name string) int64 {
		v, _ := up.Counter(name, metrics.NodeGlobal)
		return v
	}

	// 1. Every trace event class must tally with its metrics counter.
	for _, pc := range []struct{ event, metric string }{
		{"inject", "ring.packets_injected"},
		{"apply", "ring.packets_applied"},
		{"post", "bbp.sends"},
		{"detect", "bbp.recvs"},
		{"consume", "bbp.recvs"},
		{"handler", "spin.handlers_run"},
		{"partition-fence", "liveness.partitions_detected"},
		{"partition-heal", "liveness.partition_heals"},
	} {
		if got, want := int64(rec.Count(pc.event)), global(pc.metric); got != want {
			fail("trace %q count %d != rollup %s %d", pc.event, got, pc.metric, want)
		}
	}
	if got, want := int64(rec.Count("flag-set")), global("bbp.sends")+global("bbp.mcast_sends"); got != want {
		fail("trace flag-set count %d != flag words written %d", got, want)
	}

	// 2. The metrics rollup must tally with the layers' own Stats().
	var nicSent, nicApplied int64
	for i := range eps {
		st := ring.NIC(i).Stats()
		nicSent += st.PacketsSent
		nicApplied += st.PacketsApplied
	}
	if nicSent != global("ring.packets_injected") {
		fail("NIC Stats say %d packets sent, metrics say %d", nicSent, global("ring.packets_injected"))
	}
	if nicApplied != global("ring.packets_applied") {
		fail("NIC Stats say %d packets applied, metrics say %d", nicApplied, global("ring.packets_applied"))
	}
	var hRun, hCycles, hTraps int64
	for i := range eps {
		hs := ring.NIC(i).HandlerStats()
		hRun += hs.HandlersRun
		hCycles += hs.HandlerCycles
		hTraps += hs.TrapsToHost
	}
	if hRun != global("spin.handlers_run") || hCycles != global("spin.handler_cycles") || hTraps != global("spin.traps_to_host") {
		fail("engine HandlerStats (run=%d cycles=%d traps=%d) disagree with spin.* metrics (%d/%d/%d)",
			hRun, hCycles, hTraps, global("spin.handlers_run"), global("spin.handler_cycles"), global("spin.traps_to_host"))
	}
	var epSent, epRecv, epPolls, epPollW, epBursts, epBurstW int64
	for _, e := range eps {
		st := e.Stats()
		epSent += st.Sent
		epRecv += st.Received
		epPolls += st.Polls
		epPollW += st.PollWords
		epBursts += st.BurstPolls
		epBurstW += st.BurstPollWords
	}
	if epSent != global("bbp.sends") || epRecv != global("bbp.recvs") || epPolls != global("bbp.polls") {
		fail("endpoint Stats (sent=%d recv=%d polls=%d) disagree with metrics (%d/%d/%d)",
			epSent, epRecv, epPolls, global("bbp.sends"), global("bbp.recvs"), global("bbp.polls"))
	}
	if epPollW != global("bbp.poll_words") || epBursts != global("bbp.burst_polls") || epBurstW != global("bbp.burst_poll_words") {
		fail("endpoint Stats (pollWords=%d bursts=%d burstWords=%d) disagree with metrics (%d/%d/%d)",
			epPollW, epBursts, epBurstW, global("bbp.poll_words"), global("bbp.burst_polls"), global("bbp.burst_poll_words"))
	}
	// Every burst transaction the buses saw must be a BBP poll burst —
	// nothing else issues wide reads.
	if global("pci.pio_read_bursts") != epBursts || global("pci.pio_read_burst_words") != epBurstW {
		fail("pci burst counters (%d bursts / %d words) disagree with BBP poll bursts (%d / %d)",
			global("pci.pio_read_bursts"), global("pci.pio_read_burst_words"), epBursts, epBurstW)
	}

	// 3. Per node, bus occupancy must equal the word and byte counters
	// times the configured transaction costs — the §7 accounting.
	for i := range eps {
		wr := counter("pci.pio_write_words", i)
		rd := counter("pci.pio_read_words", i)
		bursts := counter("pci.pio_read_bursts", i)
		burstW := counter("pci.pio_read_burst_words", i)
		dma := counter("pci.dma_bytes", i)
		busy := counter("pci.busy_ns", i)
		// Each burst pays one full read round trip for its first word and
		// one data phase per additional word (pci.Bus.BurstReadCost).
		want := wr*int64(buscfg.PIOWriteWord) + rd*int64(buscfg.PIOReadWord) +
			bursts*int64(buscfg.PIOReadWord) + (burstW-bursts)*int64(buscfg.PIOReadBurstWord) +
			dma*int64(buscfg.DMAPerByte)
		if busy != want {
			fail("node %d: pci.busy_ns = %d, but %d wr + %d rd words + %d bursts (%d words) + %d DMA bytes cost %d ns",
				i, busy, wr, rd, bursts, burstW, dma, want)
		}
	}

	// The descriptor transfer is 3 words in the base protocol (offset,
	// length, sequence); the retry extension adds a checksum word.
	descW := int64(3)
	if bcfg.Retry.Enabled {
		descW = 4
	}
	dmaSend := size > 0 && size >= bcfg.Thresholds.SendDMA
	dmaRecv := size > 0 && size >= bcfg.Thresholds.RecvDMA
	dataW := int64(0)
	if size > 0 && !dmaSend {
		dataW = int64(pci.WordsFor(size))
	}

	// 4. The sender's word budget: payload + descriptor + one flag word
	// per receiver, nothing else.
	wantWr := dataW + descW + int64(len(recvs))
	if wr0 := counter("pci.pio_write_words", 0); wr0 != wantWr {
		fail("sender wrote %d PIO words; cost model predicts %d (data %d + desc %d + flags %d)",
			wr0, wantWr, dataW, descW, len(recvs))
	}
	if dmaSend && counter("pci.dma_bytes", 0) != int64(size) {
		fail("sender DMA bytes = %d, want the %d-byte payload", counter("pci.dma_bytes", 0), size)
	}

	// 5. Each receiver's word budget: the poll words not covered by
	// bursts (those are counted on the burst side), the descriptor, and
	// the payload (unless drained by DMA).
	dataRdW := int64(0)
	if size > 0 && !dmaRecv {
		dataRdW = int64(pci.WordsFor(size))
	}
	for _, r := range recvs {
		rd := counter("pci.pio_read_words", r)
		pollW := counter("bbp.poll_words", r)
		burstPollW := counter("bbp.burst_poll_words", r)
		want := (pollW - burstPollW) + descW + dataRdW
		if rd != want {
			fail("receiver %d read %d single PIO words; cost model predicts %d (poll words %d−%d + desc %d + data %d)",
				r, rd, want, pollW, burstPollW, descW, dataRdW)
		}
		if bursts, polls := counter("pci.pio_read_bursts", r), counter("bbp.burst_polls", r); bursts != polls {
			fail("receiver %d: pci saw %d read bursts but BBP issued %d burst polls", r, bursts, polls)
		}
		if dmaRecv && counter("pci.dma_bytes", r) != int64(size) {
			fail("receiver %d DMA bytes = %d, want %d", r, counter("pci.dma_bytes", r), size)
		}
	}

	// 6. The decomposition itself: trace spans vs counters × cost model.
	tPost, okPost := eventTime(rec, 0, "post", false)
	tFlag, okFlag := eventTime(rec, 0, "flag-set", true)
	if !okPost || !okFlag {
		fail("trace is missing post/flag-set events")
		return ok
	}
	setup := bcfg.Costs.SendSetup
	publish := sim.Duration(descW+int64(len(recvs))) * buscfg.PIOWriteWord
	publishModel := fmt.Sprintf("%d wr × %s", descW+int64(len(recvs)), buscfg.PIOWriteWord)
	if dmaSend {
		publish += buscfg.DMASetup + sim.Duration(size)*buscfg.DMAPerByte + buscfg.DMACompletionCheck
		publishModel = fmt.Sprintf("DMA %d B + %s", size, publishModel)
	} else if dataW > 0 {
		publish += sim.Duration(dataW) * buscfg.PIOWriteWord
		publishModel = fmt.Sprintf("%d wr × %s", dataW+descW+int64(len(recvs)), buscfg.PIOWriteWord)
	}
	drain := buscfg.PIOWriteWord // ACK toggle write
	drainModel := fmt.Sprintf("1 wr × %s", buscfg.PIOWriteWord)
	if dmaRecv {
		drain += buscfg.DMASetup + sim.Duration(size)*buscfg.DMAPerByte + buscfg.DMACompletionCheck
		drainModel = "DMA " + fmt.Sprint(size) + " B + " + drainModel
	} else if dataRdW > 0 {
		drain += sim.Duration(dataRdW) * buscfg.PIOReadWord
		drainModel = fmt.Sprintf("%d rd × %s + %s", dataRdW, buscfg.PIOReadWord, drainModel)
	}
	// Deterministic floor of the flag-set→detect segment: the descriptor
	// read and bookkeeping always happen after the flag is seen. Wire
	// transit and poll-phase alignment sit on top and vary.
	detectFloor := sim.Duration(descW)*buscfg.PIOReadWord + bcfg.Costs.RecvBookkeeping

	if got := tPost.Sub(sent); got != setup {
		fail("send-call→post span %s != SendSetup %s", got, setup)
	}
	// A publish larger than the TX FIFO stalls behind the ring drain;
	// the span then exceeds the pure bus cost.
	fifoSafe := size+int(descW+int64(len(recvs)))*4 <= ring.NIC(0).NetworkConfig().TxFIFOBytes
	pubSpan := tFlag.Sub(tPost)
	if fifoSafe && pubSpan != publish {
		fail("sender publish span %s != cost-model %s (%s)", pubSpan, publish, publishModel)
	}
	if !fifoSafe && pubSpan < publish {
		fail("sender publish span %s below its bus cost floor %s", pubSpan, publish)
	}

	fmt.Println("\nper-layer decomposition — trace spans vs counters × cost model")
	fmt.Printf("  %-34s %12s  %12s  %s\n", "segment", "trace", "model", "derivation")
	fmt.Printf("  %-34s %12s  %12s  SendSetup\n", "software setup (call→post)", tPost.Sub(sent), setup)
	fmt.Printf("  %-34s %12s  %12s  %s\n", "sender publish (post→flag-set)", pubSpan, publish, publishModel)
	var tLast sim.Time
	for _, r := range recvs {
		tDetect, okD := eventTime(rec, r, "detect", false)
		tConsume, okC := eventTime(rec, r, "consume", true)
		if !okD || !okC {
			fail("receiver %d is missing detect/consume events", r)
			continue
		}
		transit := tDetect.Sub(tFlag)
		if transit < detectFloor {
			fail("receiver %d detected in %s, below the %s descriptor+bookkeeping floor", r, transit, detectFloor)
		}
		drainSpan := tConsume.Sub(tDetect)
		if drainSpan != drain {
			fail("receiver %d drain span %s != cost-model %s (%s)", r, drainSpan, drain, drainModel)
		}
		fmt.Printf("  rx%-2d %-29s %12s  %12s  wire + poll align (floor %s)\n", r, "transit+detect (flag-set→detect)", transit, "—", detectFloor)
		fmt.Printf("  rx%-2d %-29s %12s  %12s  %s\n", r, "drain (detect→consume)", drainSpan, drain, drainModel)
		if tConsume > tLast {
			tLast = tConsume
		}
	}
	fmt.Printf("  %-34s %12s\n", "one-way (call→last consume)", lastDone.Sub(sent))
	// The segments must telescope back to the measured latency — a guard
	// on this table's own arithmetic.
	if tLast != lastDone {
		fail("last consume at %s but the run measured %s", tLast, lastDone)
	}
	return ok
}
