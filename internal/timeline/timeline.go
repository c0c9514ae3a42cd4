// Package timeline joins the two observability streams the testbed can
// produce — the causal span trace (internal/trace) and the periodic
// virtual-time metrics snapshot stream (internal/metrics.Stream) — into
// three artifacts:
//
//   - per-message latency breakdowns rebuilt from spans alone
//     (Breakdowns), reproducing the paper's §5 anatomy decomposition
//     without consulting the cost model;
//   - a retry-storm / bus-saturation correlator (CoSpikes) that flags
//     snapshot intervals where the cluster's retransmission counter and
//     its aggregate PCI bus occupancy spike together — the signature of
//     the retry extension fighting a lossy ring;
//   - Chrome trace_event JSON export (WriteChromeTrace) so any run can
//     be inspected in chrome://tracing or Perfetto.
//
// The package also hosts two canned scenarios: RunAnatomy, the one
// decomposition of a traced BBP message (spans, metrics counters,
// Stats() and the bus cost model cross-checked), which cmd/anatomy
// renders; and RunSweep, the EXPERIMENTS.md E6 loss run of
// bench.FaultSweep with tracing and snapshot streaming switched on,
// which cmd/timeline runs.
package timeline

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pci"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Breakdown is one message's life reconstructed purely from its trace
// events: the span boundaries carry everything needed, no cost model or
// counter is consulted. Times are zero-valued until the matching flag
// reports the boundary was observed (a capped recorder may have evicted
// the early events of an old message).
type Breakdown struct {
	Msg    uint64
	Sender int
	Seq    uint32
	// Receiver is the node of the first consume (or first detect when
	// the message never finished draining); -1 when neither was seen.
	Receiver int

	Post    sim.Time // "post" Begin on the sender
	FlagSet sim.Time // last "flag-set" on the sender
	Detect  sim.Time // first "detect" on the receiver
	Consume sim.Time // last "consume" End on the receiver

	Posted, Flagged, Detected, Delivered bool

	// Retransmits counts "retransmit" spans opened for this message;
	// AckSeen reports whether the receiver's "ack" instant was traced.
	Retransmits int
	AckSeen     bool
}

// Publish is the sender-side post→flag-set segment (0 if unbounded).
func (b Breakdown) Publish() sim.Duration {
	if !b.Posted || !b.Flagged {
		return 0
	}
	return b.FlagSet.Sub(b.Post)
}

// Transit is the flag-set→detect segment: wire replication plus the
// receiver's poll-phase alignment and descriptor read.
func (b Breakdown) Transit() sim.Duration {
	if !b.Flagged || !b.Detected {
		return 0
	}
	return b.Detect.Sub(b.FlagSet)
}

// Drain is the detect→consume segment: payload read plus ACK.
func (b Breakdown) Drain() sim.Duration {
	if !b.Detected || !b.Delivered {
		return 0
	}
	return b.Consume.Sub(b.Detect)
}

// Total is the post→consume one-way latency.
func (b Breakdown) Total() sim.Duration {
	if !b.Posted || !b.Delivered {
		return 0
	}
	return b.Consume.Sub(b.Post)
}

// Breakdowns rebuilds one Breakdown per message id present in evs,
// ordered by id (sender rank, then send sequence). Events without
// message attribution are ignored.
func Breakdowns(evs []trace.Event) []Breakdown {
	by := map[uint64]*Breakdown{}
	get := func(msg uint64) *Breakdown {
		b, ok := by[msg]
		if !ok {
			b = &Breakdown{Msg: msg, Sender: trace.MsgSender(msg), Seq: trace.MsgSeq(msg), Receiver: -1}
			by[msg] = b
		}
		return b
	}
	for _, e := range evs {
		if e.Msg == 0 {
			continue
		}
		b := get(e.Msg)
		switch e.Name {
		case "post":
			if e.Kind == trace.Begin && !b.Posted {
				b.Post, b.Posted = e.T, true
			}
		case "flag-set":
			b.FlagSet, b.Flagged = e.T, true // keep the last
		case "detect":
			if !b.Detected {
				b.Detect, b.Detected = e.T, true
				b.Receiver = e.Node
			}
		case "consume":
			if e.Kind == trace.End {
				b.Consume, b.Delivered = e.T, true
				b.Receiver = e.Node
			}
		case "retransmit":
			if e.Kind == trace.Begin {
				b.Retransmits++
			}
		case "ack":
			b.AckSeen = true
		}
	}
	out := make([]Breakdown, 0, len(by))
	for _, b := range by {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Msg < out[j].Msg })
	return out
}

// RenderBreakdowns writes the per-message decomposition table. Messages
// whose early events were evicted by a capped recorder show "—" for the
// unbounded segments.
func RenderBreakdowns(w io.Writer, bds []Breakdown) {
	fmt.Fprintf(w, "%-10s %4s %4s  %12s %14s %12s %12s %6s\n",
		"msg", "src", "dst", "publish", "transit+detect", "drain", "total", "rexmit")
	seg := func(d sim.Duration, ok bool) string {
		if !ok {
			return "—"
		}
		return d.String()
	}
	for _, b := range bds {
		dst := "—"
		if b.Receiver >= 0 {
			dst = fmt.Sprintf("%d", b.Receiver)
		}
		fmt.Fprintf(w, "%-10s %4d %4s  %12s %14s %12s %12s %6d\n",
			fmt.Sprintf("%d:%d", b.Sender, b.Seq), b.Sender, dst,
			seg(b.Publish(), b.Posted && b.Flagged),
			seg(b.Transit(), b.Flagged && b.Detected),
			seg(b.Drain(), b.Detected && b.Delivered),
			seg(b.Total(), b.Posted && b.Delivered),
			b.Retransmits)
	}
}

// Interval is one snapshot-stream window the correlator flagged: the
// cluster retransmitted during it AND aggregate bus occupancy grew
// faster than the run's median rate — retry traffic and bus saturation
// spiking together.
type Interval struct {
	From, To sim.Time
	// DRetrans is the growth of the cluster-rollup bbp.retransmits
	// counter across the window; DBusyNS the growth of pci.busy_ns.
	DRetrans int64
	DBusyNS  int64
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s] Δretransmits=%d Δbusy=%s",
		iv.From.Sub(sim.Time(0)), iv.To.Sub(sim.Time(0)), iv.DRetrans, sim.Duration(iv.DBusyNS))
}

// CoSpikes scans consecutive snapshot-stream points for windows where
// the retry machinery and the I/O buses were simultaneously busy:
// Δbbp.retransmits > 0 and Δpci.busy_ns above the median per-window
// growth. The median baseline makes the test self-calibrating — steady
// polling traffic sets the floor, and only windows where the bus worked
// measurably harder than usual while retries fired are flagged.
func CoSpikes(points []metrics.StreamPoint) []Interval {
	if len(points) < 2 {
		return nil
	}
	type win struct {
		from, to        sim.Time
		dRetrans, dBusy int64
	}
	rollup := func(p metrics.StreamPoint, name string) int64 {
		v, _ := p.Snap.Rollup().Counter(name, metrics.NodeGlobal)
		return v
	}
	wins := make([]win, 0, len(points)-1)
	busies := make([]int64, 0, len(points)-1)
	for i := 1; i < len(points); i++ {
		w := win{
			from:     sim.Time(points[i-1].T),
			to:       sim.Time(points[i].T),
			dRetrans: rollup(points[i], "bbp.retransmits") - rollup(points[i-1], "bbp.retransmits"),
			dBusy:    rollup(points[i], "pci.busy_ns") - rollup(points[i-1], "pci.busy_ns"),
		}
		wins = append(wins, w)
		busies = append(busies, w.dBusy)
	}
	sort.Slice(busies, func(i, j int) bool { return busies[i] < busies[j] })
	median := busies[len(busies)/2]
	if len(busies)%2 == 0 {
		median = (busies[len(busies)/2-1] + busies[len(busies)/2]) / 2
	}
	var out []Interval
	for _, w := range wins {
		if w.dRetrans > 0 && w.dBusy > median {
			out = append(out, Interval{From: w.from, To: w.to, DRetrans: w.dRetrans, DBusyNS: w.dBusy})
		}
	}
	return out
}

// RenderIntervals writes the correlation table.
func RenderIntervals(w io.Writer, ivs []Interval) {
	fmt.Fprintf(w, "%-14s %-14s %12s %14s\n", "from", "to", "Δretransmits", "Δpci.busy")
	for _, iv := range ivs {
		fmt.Fprintf(w, "%-14s %-14s %12d %14s\n",
			iv.From.Sub(sim.Time(0)), iv.To.Sub(sim.Time(0)), iv.DRetrans, sim.Duration(iv.DBusyNS))
	}
}

// chromeEvent is one trace_event JSON object. encoding/json preserves
// field order and sorts Args keys, so the export is byte-stable.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds, Chrome's unit
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  string         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the recorder's contents in Chrome
// trace_event format: spans become "X" complete events (pid = node,
// tid = category), instants become "i" events. Load the output in
// chrome://tracing or Perfetto to scrub through a run visually.
func WriteChromeTrace(w io.Writer, rec *trace.Recorder) error {
	var evs []chromeEvent
	us := func(t sim.Time) float64 { return t.Sub(sim.Time(0)).Microseconds() }
	spanned := map[trace.SpanID]bool{}
	for _, s := range rec.Spans() {
		spanned[s.ID] = true
		dur := 0.0
		name := s.Name
		if s.Ended {
			dur = s.End.Sub(s.Start).Microseconds()
		} else {
			name += " (unterminated)"
		}
		args := map[string]any{"span": uint64(s.ID), "detail": s.Detail}
		if s.Parent != 0 {
			args["parent"] = uint64(s.Parent)
		}
		if s.Msg != 0 {
			args["msg"] = fmt.Sprintf("%d:%d", trace.MsgSender(s.Msg), trace.MsgSeq(s.Msg))
		}
		evs = append(evs, chromeEvent{
			Name: name, Ph: "X", Ts: us(s.Start), Dur: dur,
			Pid: s.Node, Tid: string(s.Cat), Args: args,
		})
	}
	for _, e := range rec.Events() {
		if e.Kind != trace.Instant {
			continue
		}
		args := map[string]any{"detail": e.Detail.String()}
		if e.Parent != 0 {
			args["parent"] = uint64(e.Parent)
		}
		if e.Msg != 0 {
			args["msg"] = fmt.Sprintf("%d:%d", trace.MsgSender(e.Msg), trace.MsgSeq(e.Msg))
		}
		evs = append(evs, chromeEvent{
			Name: e.Name, Ph: "i", Ts: us(e.T),
			Pid: e.Node, Tid: string(e.Cat), S: "t", Args: args,
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: evs}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// AnatomyConfig selects the one message RunAnatomy traces. Its fields
// are cmd/anatomy's flags.
type AnatomyConfig struct {
	Size  int // payload bytes
	Nodes int // ring size
	// Mcast broadcasts from node 0 to every other node; otherwise node
	// 0 sends to node 1.
	Mcast bool
	// RecvAny makes the receivers use RecvAny, which exercises the
	// burst-read poll sweep.
	RecvAny  bool
	TraceCap int           // trace ring-buffer capacity (0 = unbounded)
	Profiler *sim.Profiler // attached to the kernel when non-nil
}

// AnatomyModel is the cost model of the traced message: each segment
// priced from the protocol's word counts and the configured bus and
// software costs, with the derivation spelled out for rendering.
type AnatomyModel struct {
	Setup   sim.Duration // call→post: SendSetup
	Publish sim.Duration // post→flag-set: payload, descriptor and flag writes
	Drain   sim.Duration // detect→consume: payload read and ACK toggle
	// DetectFloor is the deterministic lower bound of flag-set→detect:
	// the descriptor read and bookkeeping always follow the flag. Wire
	// transit and poll-phase alignment sit on top and vary.
	DetectFloor sim.Duration
	// PublishDerivation and DrainDerivation spell the two bus terms out,
	// e.g. "5 wr × 150ns".
	PublishDerivation, DrainDerivation string
}

// AnatomyResult is RunAnatomy's output: the traced run decomposed from
// its spans, the cost model of the same segments, and every
// disagreement between them.
type AnatomyResult struct {
	Rec *trace.Recorder
	// Sent is when the sender called Send or Mcast; OneWay runs from
	// there to the last receiver's consume.
	Sent   sim.Time
	OneWay sim.Duration
	// Receivers holds one span breakdown per receiver in node order,
	// each rebuilt from the sender's events and that receiver's own.
	Receivers []Breakdown
	Model     AnatomyModel
	// Mismatches lists every disagreement between the trace, the
	// metrics registry, the layers' Stats() and the cost model; empty
	// means they all tell one story.
	Mismatches []string
}

// anatomyDescWords is the base protocol's descriptor transfer: offset,
// length and sequence (the retry extension, off here, adds a checksum).
const anatomyDescWords = 3

// RunAnatomy traces one BBP message from node 0 — the scenario behind
// the paper's 7.8 µs 4-byte one-way latency — and decomposes it twice:
// from the trace spans, and from the metrics counters times the
// configured bus costs. It cross-checks the trace, the metrics rollup,
// the hardware and protocol Stats() and the cost model against each
// other and lists every disagreement in Mismatches.
func RunAnatomy(cfg AnatomyConfig) (*AnatomyResult, error) {
	k := sim.NewKernel()
	defer k.Close()
	if cfg.Profiler != nil {
		k.SetProfiler(cfg.Profiler)
	}
	ringCfg := scramnet.DefaultConfig(cfg.Nodes)
	ringCfg.SingleWriterCheck = true
	ring, err := scramnet.New(k, ringCfg)
	if err != nil {
		return nil, err
	}
	rec := trace.New()
	if cfg.TraceCap > 0 {
		rec = trace.NewCapped(cfg.TraceCap)
	}
	m := metrics.New()
	bcfg := core.DefaultConfig()
	sys, err := core.New(ring, bcfg, core.WithTracer(rec), core.WithMetrics(m))
	if err != nil {
		return nil, err
	}
	ring.SetTracer(rec)
	ring.SetMetrics(m)
	eps := make([]*core.Endpoint, cfg.Nodes)
	for i := range eps {
		if eps[i], err = sys.Attach(i); err != nil {
			return nil, err
		}
	}

	recvs := []int{1}
	if cfg.Mcast {
		recvs = nil
		for i := 1; i < cfg.Nodes; i++ {
			recvs = append(recvs, i)
		}
	}
	var sent, done sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		p.Delay(10 * sim.Microsecond) // receivers already polling
		sent = p.Now()
		var err error
		if cfg.Mcast {
			err = eps[0].Mcast(p, recvs, make([]byte, cfg.Size))
		} else {
			err = eps[0].Send(p, 1, make([]byte, cfg.Size))
		}
		if err != nil {
			panic(err)
		}
	})
	for _, r := range recvs {
		k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
			buf := make([]byte, cfg.Size+1)
			var err error
			if cfg.RecvAny {
				_, _, err = eps[r].RecvAny(p, buf)
			} else {
				_, err = eps[r].Recv(p, 0, buf)
			}
			if err != nil {
				panic(err)
			}
			if p.Now() > done {
				done = p.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		return nil, err
	}

	res := &AnatomyResult{Rec: rec, Sent: sent, OneWay: done.Sub(sent)}
	mismatch := func(format string, args ...any) {
		res.Mismatches = append(res.Mismatches, fmt.Sprintf(format, args...))
	}
	// The capped recorder bounds memory; evictions are tolerable unless
	// they may have eaten events of the message under the microscope.
	msg := trace.MsgID(0, 1) // node 0's first send
	if rec.MayHaveDroppedMsg(msg) {
		mismatch("the trace ring buffer evicted %d event(s) that may cover the traced message; raise the trace capacity", rec.Drops())
	}
	evs := rec.Events()
	for _, r := range recvs {
		res.Receivers = append(res.Receivers, receiverBreakdown(evs, msg, r))
	}

	snap := m.Snapshot()
	up := snap.Rollup()
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
			mismatch("trace %q count %d != rollup %s %d", pc.event, got, pc.metric, want)
		}
	}
	if got, want := int64(rec.Count("flag-set")), global("bbp.sends")+global("bbp.mcast_sends"); got != want {
		mismatch("trace flag-set count %d != flag words written %d", got, want)
	}

	// 2. The metrics rollup must tally with the layers' own Stats().
	var nicSent, nicApplied, hRun, hCycles, hTraps int64
	var epSent, epRecv, epPolls, epPollW, epBursts, epBurstW int64
	for i, e := range eps {
		st := ring.NIC(i).Stats()
		nicSent += st.PacketsSent
		nicApplied += st.PacketsApplied
		hs := ring.NIC(i).HandlerStats()
		hRun += hs.HandlersRun
		hCycles += hs.HandlerCycles
		hTraps += hs.TrapsToHost
		es := e.Stats()
		epSent += es.Sent
		epRecv += es.Received
		epPolls += es.Polls
		epPollW += es.PollWords
		epBursts += es.BurstPolls
		epBurstW += es.BurstPollWords
	}
	if nicSent != global("ring.packets_injected") {
		mismatch("NIC Stats say %d packets sent, metrics say %d", nicSent, global("ring.packets_injected"))
	}
	if nicApplied != global("ring.packets_applied") {
		mismatch("NIC Stats say %d packets applied, metrics say %d", nicApplied, global("ring.packets_applied"))
	}
	if hRun != global("spin.handlers_run") || hCycles != global("spin.handler_cycles") || hTraps != global("spin.traps_to_host") {
		mismatch("engine HandlerStats (run=%d cycles=%d traps=%d) disagree with spin.* metrics (%d/%d/%d)",
			hRun, hCycles, hTraps, global("spin.handlers_run"), global("spin.handler_cycles"), global("spin.traps_to_host"))
	}
	if epSent != global("bbp.sends") || epRecv != global("bbp.recvs") || epPolls != global("bbp.polls") {
		mismatch("endpoint Stats (sent=%d recv=%d polls=%d) disagree with metrics (%d/%d/%d)",
			epSent, epRecv, epPolls, global("bbp.sends"), global("bbp.recvs"), global("bbp.polls"))
	}
	if epPollW != global("bbp.poll_words") || epBursts != global("bbp.burst_polls") || epBurstW != global("bbp.burst_poll_words") {
		mismatch("endpoint Stats (pollWords=%d bursts=%d burstWords=%d) disagree with metrics (%d/%d/%d)",
			epPollW, epBursts, epBurstW, global("bbp.poll_words"), global("bbp.burst_polls"), global("bbp.burst_poll_words"))
	}
	// Every burst transaction the buses saw must be a BBP poll burst —
	// nothing else issues wide reads.
	if global("pci.pio_read_bursts") != epBursts || global("pci.pio_read_burst_words") != epBurstW {
		mismatch("pci burst counters (%d bursts / %d words) disagree with BBP poll bursts (%d / %d)",
			global("pci.pio_read_bursts"), global("pci.pio_read_burst_words"), epBursts, epBurstW)
	}

	// 3. Per node, bus occupancy must equal the word and byte counters
	// times the configured transaction costs — the §7 accounting. Each
	// burst pays one full read round trip for its first word and one
	// data phase per additional word (pci.Bus.BurstReadCost).
	bus := ring.NIC(0).Bus().Config()
	for i := range eps {
		wr := counter("pci.pio_write_words", i)
		rd := counter("pci.pio_read_words", i)
		bursts := counter("pci.pio_read_bursts", i)
		burstW := counter("pci.pio_read_burst_words", i)
		dma := counter("pci.dma_bytes", i)
		want := wr*int64(bus.PIOWriteWord) + rd*int64(bus.PIOReadWord) +
			bursts*int64(bus.PIOReadWord) + (burstW-bursts)*int64(bus.PIOReadBurstWord) +
			dma*int64(bus.DMAPerByte)
		if busy := counter("pci.busy_ns", i); busy != want {
			mismatch("node %d: pci.busy_ns = %d, but %d wr + %d rd words + %d bursts (%d words) + %d DMA bytes cost %d ns",
				i, busy, wr, rd, bursts, burstW, dma, want)
		}
	}

	// The cost model: payload words move by PIO below the DMA
	// thresholds and by one DMA transfer at or above them.
	size := cfg.Size
	descW := int64(anatomyDescWords)
	dmaSend := size > 0 && size >= bcfg.Thresholds.SendDMA
	dmaRecv := size > 0 && size >= bcfg.Thresholds.RecvDMA
	var dataW, dataRdW int64
	if size > 0 && !dmaSend {
		dataW = int64(pci.WordsFor(size))
	}
	if size > 0 && !dmaRecv {
		dataRdW = int64(pci.WordsFor(size))
	}
	dmaCost := bus.DMASetup + sim.Duration(size)*bus.DMAPerByte + bus.DMACompletionCheck
	pubW := dataW + descW + int64(len(recvs)) // payload + descriptor + one flag per receiver
	mod := AnatomyModel{
		Setup:             bcfg.Costs.SendSetup,
		Publish:           sim.Duration(pubW) * bus.PIOWriteWord,
		PublishDerivation: fmt.Sprintf("%d wr × %s", pubW, bus.PIOWriteWord),
		Drain:             bus.PIOWriteWord, // ACK toggle write
		DrainDerivation:   fmt.Sprintf("1 wr × %s", bus.PIOWriteWord),
		DetectFloor:       sim.Duration(descW)*bus.PIOReadWord + bcfg.Costs.RecvBookkeeping,
	}
	if dmaSend {
		mod.Publish += dmaCost
		mod.PublishDerivation = fmt.Sprintf("DMA %d B + %s", size, mod.PublishDerivation)
	}
	if dmaRecv {
		mod.Drain += dmaCost
		mod.DrainDerivation = fmt.Sprintf("DMA %d B + %s", size, mod.DrainDerivation)
	} else if dataRdW > 0 {
		mod.Drain += sim.Duration(dataRdW) * bus.PIOReadWord
		mod.DrainDerivation = fmt.Sprintf("%d rd × %s + %s", dataRdW, bus.PIOReadWord, mod.DrainDerivation)
	}
	res.Model = mod

	// 4. The sender's word budget: payload + descriptor + one flag word
	// per receiver, nothing else.
	if wr0 := counter("pci.pio_write_words", 0); wr0 != pubW {
		mismatch("sender wrote %d PIO words; cost model predicts %d (data %d + desc %d + flags %d)",
			wr0, pubW, dataW, descW, len(recvs))
	}
	if dmaSend && counter("pci.dma_bytes", 0) != int64(size) {
		mismatch("sender DMA bytes = %d, want the %d-byte payload", counter("pci.dma_bytes", 0), size)
	}

	// 5. Each receiver's word budget: the poll words not covered by
	// bursts (those are counted on the burst side), the descriptor, and
	// the payload (unless drained by DMA).
	for _, r := range recvs {
		rd := counter("pci.pio_read_words", r)
		pollW := counter("bbp.poll_words", r)
		burstPollW := counter("bbp.burst_poll_words", r)
		if want := (pollW - burstPollW) + descW + dataRdW; rd != want {
			mismatch("receiver %d read %d single PIO words; cost model predicts %d (poll words %d−%d + desc %d + data %d)",
				r, rd, want, pollW, burstPollW, descW, dataRdW)
		}
		if bursts, polls := counter("pci.pio_read_bursts", r), counter("bbp.burst_polls", r); bursts != polls {
			mismatch("receiver %d: pci saw %d read bursts but BBP issued %d burst polls", r, bursts, polls)
		}
		if dmaRecv && counter("pci.dma_bytes", r) != int64(size) {
			mismatch("receiver %d DMA bytes = %d, want %d", r, counter("pci.dma_bytes", r), size)
		}
	}

	// 6. The decomposition itself: trace spans vs the cost model. A
	// publish larger than the TX FIFO stalls behind the ring drain, so
	// its span may then exceed the pure bus cost.
	fifoSafe := size+int(descW+int64(len(recvs)))*4 <= ring.NIC(0).NetworkConfig().TxFIFOBytes
	var last sim.Time
	complete := true
	for i, b := range res.Receivers {
		if !b.Posted || !b.Flagged || !b.Detected || !b.Delivered {
			mismatch("receiver %d: span stream incomplete: posted=%v flagged=%v detected=%v delivered=%v",
				b.Receiver, b.Posted, b.Flagged, b.Detected, b.Delivered)
			complete = false
			continue
		}
		if i == 0 { // the sender-side segments are shared by every receiver
			if got := b.Post.Sub(sent); got != mod.Setup {
				mismatch("send-call→post span %s != SendSetup %s", got, mod.Setup)
			}
			if fifoSafe && b.Publish() != mod.Publish {
				mismatch("sender publish span %s != cost model %s (%s)", b.Publish(), mod.Publish, mod.PublishDerivation)
			}
			if !fifoSafe && b.Publish() < mod.Publish {
				mismatch("sender publish span %s below its bus cost floor %s", b.Publish(), mod.Publish)
			}
		}
		if b.Transit() < mod.DetectFloor {
			mismatch("receiver %d detected in %s, below the %s descriptor+bookkeeping floor", b.Receiver, b.Transit(), mod.DetectFloor)
		}
		if b.Drain() != mod.Drain {
			mismatch("receiver %d drain span %s != cost model %s (%s)", b.Receiver, b.Drain(), mod.Drain, mod.DrainDerivation)
		}
		// The segments must telescope back to the measured latency — a
		// guard on the decomposition's own arithmetic.
		if total := b.Publish() + b.Transit() + b.Drain(); total != b.Total() {
			mismatch("receiver %d: segments %s do not telescope to post→consume %s", b.Receiver, total, b.Total())
		}
		if b.Total() > res.OneWay {
			mismatch("receiver %d: post→consume %s exceeds the measured one-way %s", b.Receiver, b.Total(), res.OneWay)
		}
		if b.Consume > last {
			last = b.Consume
		}
	}
	if complete && last != done {
		mismatch("last consume at %s but the run measured %s", last.Sub(0), done.Sub(0))
	}

	// 7. Profiling reads only the host clock. The cross-check above
	// proves the virtual timeline is the unprofiled one; this counter
	// identity proves every executed event was profiled.
	if p := cfg.Profiler; p != nil && p.TotalEvents() != k.Executed() {
		mismatch("profiler counted %d events but the kernel executed %d", p.TotalEvents(), k.Executed())
	}
	return res, nil
}

// receiverBreakdown rebuilds msg's breakdown from the sender's events
// and receiver r's alone, so every multicast receiver gets its own
// detect and consume. Receiver is r even when a capped trace lost r's
// events.
func receiverBreakdown(evs []trace.Event, msg uint64, r int) Breakdown {
	var mine []trace.Event
	for _, e := range evs {
		if e.Msg == msg && (e.Node == trace.MsgSender(msg) || e.Node == r) {
			mine = append(mine, e)
		}
	}
	b := Breakdown{Msg: msg, Sender: trace.MsgSender(msg), Seq: trace.MsgSeq(msg)}
	if bds := Breakdowns(mine); len(bds) == 1 {
		b = bds[0]
	}
	b.Receiver = r
	return b
}

// SweepConfig parameterizes RunSweep: the E6 loss run shared with
// bench.FaultSweep at one drop rate, plus the observability settings.
// The zero value is completed by DefaultSweepConfig.
type SweepConfig struct {
	bench.LossRun
	Rate          float64      // ring packet-drop probability (0 = fault-free)
	SnapshotEvery sim.Duration // snapshot-stream period
	TraceCap      int          // 0 = unbounded recorder
}

// DefaultSweepConfig is the E6 fault-sweep loss run with a 100 µs
// snapshot cadence.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		LossRun:       bench.DefaultFaultSweepConfig().LossRun,
		SnapshotEvery: 100 * sim.Microsecond,
	}
}

// SweepResult is one fully observed fault-sweep run.
type SweepResult struct {
	// Point is the run's measurement, equal to what bench.FaultSweep
	// reports at the same rate: observation charges no virtual time.
	Point      bench.FaultPoint
	Rec        *trace.Recorder
	Points     []metrics.StreamPoint
	Breakdowns []Breakdown
	Intervals  []Interval
}

// RunSweep runs the E6 loss run (bench.LossRun) with span tracing and
// snapshot streaming on, and joins the two streams into breakdowns and
// co-spike intervals. The run is oracle-checked: it fails rather than
// report latencies for lost messages.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.Messages == 0 {
		cfg = DefaultSweepConfig()
	}
	rec := trace.New()
	if cfg.TraceCap > 0 {
		rec = trace.NewCapped(cfg.TraceCap)
	}
	pt, c, err := cfg.LossRun.Run(cfg.Rate, cluster.Options{
		Metrics: metrics.New(), Trace: rec,
		SnapshotEvery: cfg.SnapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	points := c.Stream.Points()
	return &SweepResult{
		Point:      pt,
		Rec:        rec,
		Points:     points,
		Breakdowns: Breakdowns(rec.Events()),
		Intervals:  CoSpikes(points),
	}, nil
}
