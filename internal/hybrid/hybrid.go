// Package hybrid implements the communication subsystem the paper's
// conclusion (§7) proposes: SCRAMNet for latency, a high-bandwidth
// network for volume, in the same cluster. "We conclude that SCRAMNet
// has characteristics complementary to those of networks usually used
// in clusters. This makes SCRAMNet a good candidate for use with a high
// bandwidth network within the same cluster."
//
// An Endpoint routes each message by size: at or below Threshold it
// travels over the low-latency transport (the BillBoard Protocol);
// above, over the high-bandwidth one (e.g. the Myrinet API). Because
// the two substrates have wildly different latencies, a small message
// sent after a large one could overtake it; every message therefore
// carries a per-(sender,receiver) sequence number, and the receiver
// releases messages strictly in sequence, holding early arrivals in a
// reorder buffer.
package hybrid

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/liveness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xport"
)

// hdrBytes prefixes every routed message: 4-byte sequence number.
const hdrBytes = 4

// ErrTimeout is returned when a blocking receive exceeds the timeout.
var ErrTimeout = errors.New("hybrid: receive timed out")

// Config parameterizes the router.
type Config struct {
	// Threshold is the largest payload routed over the low-latency
	// transport. The natural setting is the measured latency crossover
	// of the two substrates (≈500 B for BBP vs Myrinet API, Figure 2).
	Threshold int
	// ReorderCost is the software cost of holding/releasing one message
	// in the resequencing buffer.
	ReorderCost sim.Duration
	// RecvTimeout bounds blocking receives (0 = forever).
	RecvTimeout sim.Duration
}

// DefaultConfig returns the Figure-2-crossover threshold.
func DefaultConfig() Config {
	return Config{
		Threshold:   512,
		ReorderCost: 300 * sim.Nanosecond,
		RecvTimeout: 5 * sim.Second,
	}
}

// Endpoint routes messages across two transports; it implements
// xport.Endpoint itself.
type Endpoint struct {
	low, high xport.Endpoint // same rank on both substrates
	// take is the pair as xport.Takers, low first: poll takes each
	// message in a buffer from bufs sized to it.
	take [2]xport.Taker
	cfg  Config

	// live is the low substrate's membership view (liveness.Provider),
	// nil when it runs no failure detector. Consulted on every routing
	// decision so a suspect or dead ring peer is avoided proactively
	// instead of after a send error (see Send).
	live liveness.View

	// partv is the low substrate's declared-partition view
	// (liveness.PartitionView), nil without the partition machinery.
	// Under a declared partition the detector's verdicts about far-arc
	// peers reflect unreachability, not death, so the proactive steer
	// stands down for them (see Send); reactive failover on an actual
	// send error is kept.
	partv liveness.PartitionView

	sendSeq []uint32 // per destination
	nextSeq []uint32 // per source: next sequence to release
	held    []map[uint32][]byte
	rrNext  int // the source RecvAny tries first
	// bufs recycles message buffers, each holding a header and a
	// payload: Send's comes back once the substrate's Send has
	// returned, which has copied it by then (xport.Endpoint), and a
	// taken message once release has copied it out or poll has
	// discarded it.
	bufs xport.Buffers
	// pollers run Sweep, Recv and RecvAny over the probe steps, with
	// heldNext as their ready check.
	pollers *xport.Pollers
	stats   Stats
	im      hybInstruments
	tracer  *trace.Recorder
}

// hybInstruments are the router's instruments with no Stats twin,
// keyed by its rank (nil = disabled no-ops).
type hybInstruments struct {
	lowSends  *metrics.Counter // hybrid.low_sends
	highSends *metrics.Counter // hybrid.high_sends
	heldDepth *metrics.Gauge   // hybrid.reorder_depth
}

// SetMetrics binds the router's Stats to m under its rank and installs
// its other instruments (nil uninstalls those). It does not reach down
// into the substrates — install metrics there separately if wanted.
func (e *Endpoint) SetMetrics(m *metrics.Registry) {
	m.Bind("hybrid.failovers", e.Rank(), &e.stats.Failovers)
	m.Bind("hybrid.proactive_failovers", e.Rank(), &e.stats.ProactiveFailovers)
	m.Bind("hybrid.sub_errors", e.Rank(), &e.stats.SubErrors)
	m.Bind("hybrid.duplicates", e.Rank(), &e.stats.Duplicates)
	e.im = hybInstruments{
		lowSends:  m.Counter("hybrid.low_sends", e.Rank()),
		highSends: m.Counter("hybrid.high_sends", e.Rank()),
		heldDepth: m.Gauge("hybrid.reorder_depth", e.Rank()),
	}
}

// SetTracer installs a span recorder on the router (nil disables). The
// routing decision and any failover become a span on the sending node;
// the substrate's own send spans are not linked to it. Like SetMetrics
// it does not reach down into the substrates.
func (e *Endpoint) SetTracer(r *trace.Recorder) { e.tracer = r }

// Stats counts the router's fault-tolerance interventions; SetMetrics
// binds each field to its hybrid.* counter.
type Stats struct {
	// Failovers counts sends rerouted to the other substrate after the
	// size-preferred one returned an error (e.g. BBP buffer exhaustion
	// while a receiver is bypassed).
	Failovers int64
	// SubErrors counts substrate receive errors and runt messages
	// tolerated during polling instead of taking the router down.
	SubErrors int64
	// Duplicates counts already-released sequence numbers discarded by
	// the resequencer (a substrate's recovery layer retransmitting into
	// a stream the router had already moved past).
	Duplicates int64
	// ProactiveFailovers counts sends steered onto the other substrate
	// before any error, because the liveness view reported the
	// destination suspect or dead on the size-preferred one.
	ProactiveFailovers int64
}

// Stats returns a copy of the fault-tolerance counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// New combines a low-latency and a high-bandwidth endpoint of the same
// rank and world size. Both must implement xport.Taker and
// xport.Prober.
func New(low, high xport.Endpoint, cfg Config) (*Endpoint, error) {
	if low.Rank() != high.Rank() || low.Procs() != high.Procs() {
		return nil, fmt.Errorf("hybrid: endpoints disagree: rank %d/%d procs %d/%d",
			low.Rank(), high.Rank(), low.Procs(), high.Procs())
	}
	if cfg.Threshold < 0 || cfg.Threshold > low.MaxMessage()-hdrBytes {
		return nil, fmt.Errorf("hybrid: threshold %d outside the low-latency transport's range", cfg.Threshold)
	}
	lowT, ok := low.(xport.Taker)
	if !ok {
		return nil, fmt.Errorf("hybrid: low-latency transport %T does not implement xport.Taker", low)
	}
	highT, ok := high.(xport.Taker)
	if !ok {
		return nil, fmt.Errorf("hybrid: high-bandwidth transport %T does not implement xport.Taker", high)
	}
	lowP, ok := low.(xport.Prober)
	if !ok {
		return nil, fmt.Errorf("hybrid: low-latency transport %T does not implement xport.Prober", low)
	}
	highP, ok := high.(xport.Prober)
	if !ok {
		return nil, fmt.Errorf("hybrid: high-bandwidth transport %T does not implement xport.Prober", high)
	}
	n := low.Procs()
	e := &Endpoint{
		low:     low,
		high:    high,
		take:    [2]xport.Taker{lowT, highT},
		cfg:     cfg,
		sendSeq: make([]uint32, n),
		nextSeq: make([]uint32, n),
		held:    make([]map[uint32][]byte, n),
	}
	for i := range e.held {
		e.held[i] = map[uint32][]byte{}
	}
	e.pollers = xport.NewPollers(e.Rank(), n, e.heldNext, lowP, highP)
	if lp, ok := low.(liveness.Provider); ok {
		e.live = lp.Liveness()
	}
	if pv, ok := low.(liveness.PartitionView); ok {
		e.partv = pv
	}
	return e, nil
}

// Partition exposes the low substrate's declared ring partition
// (liveness.PartitionView), so layers above the router (MPI) fence
// partitioned operations instead of misreading them as dead peers.
func (e *Endpoint) Partition() (liveness.PartitionInfo, bool) {
	if e.partv == nil {
		return liveness.PartitionInfo{}, false
	}
	return e.partv.Partition()
}

// partitioned reports whether a declared ring partition makes dst
// unreachable from here (or this side lost quorum entirely).
func (e *Endpoint) partitioned(dst int) bool {
	if e.partv == nil {
		return false
	}
	part, ok := e.partv.Partition()
	return ok && (part.Minority || part.Unreachable(dst))
}

// Liveness exposes the low substrate's membership view, so layers above
// the router (MPI) inherit the ring's failure detector transparently
// (liveness.Provider). Nil when the low substrate runs no detector.
func (e *Endpoint) Liveness() liveness.View { return e.live }

// alive reports whether the liveness view (if any) considers dst
// healthy on the ring; without a view everyone is presumed healthy.
func (e *Endpoint) alive(dst int) bool {
	return e.live == nil || e.live.State(dst) == liveness.Alive
}

// Rank returns the endpoint's process number.
func (e *Endpoint) Rank() int { return e.low.Rank() }

// Procs returns the world size.
func (e *Endpoint) Procs() int { return e.low.Procs() }

// MaxMessage is bounded by the high-bandwidth substrate.
func (e *Endpoint) MaxMessage() int { return e.high.MaxMessage() - hdrBytes }

// NativeMcast reports whether the low-latency substrate replicates in
// hardware (it does, for BBP); multicasts route over it regardless of
// size threshold only when they fit.
func (e *Endpoint) NativeMcast() bool { return e.low.NativeMcast() }

// route picks the substrate for a payload size.
func (e *Endpoint) route(n int) xport.Endpoint {
	if n <= e.cfg.Threshold {
		return e.low
	}
	return e.high
}

// Send routes data to dst by size, tagging it with the stream sequence.
func (e *Endpoint) Send(p *sim.Proc, dst int, data []byte) error {
	if dst == e.Rank() || dst < 0 || dst >= e.Procs() {
		return fmt.Errorf("hybrid: bad destination %d", dst)
	}
	seq := e.sendSeq[dst]
	e.sendSeq[dst]++
	msg := e.bufs.Get(hdrBytes + len(data))
	defer e.bufs.Put(msg)
	binary.LittleEndian.PutUint32(msg, seq)
	copy(msg[hdrBytes:], data)
	sub := e.route(len(data))
	proactive := false
	if sub == e.low && !e.alive(dst) && len(msg) <= e.high.MaxMessage() && !e.partitioned(dst) {
		// The ring's failure detector doubts dst (suspect or dead):
		// steer the send onto the high-bandwidth substrate now rather
		// than discover the problem through a send error or a
		// billboard buffer pinned behind a missing ACK. A refuted
		// suspicion costs one detour; an unheeded one costs a retry
		// storm.
		sub = e.high
		proactive = true
		e.stats.ProactiveFailovers++
	}
	via := "low"
	if sub == e.low {
		e.im.lowSends.Inc()
	} else {
		e.im.highSends.Inc()
		via = "high"
	}
	span := e.tracer.BeginSpan(p.Now(), trace.Hybrid, e.Rank(), "route", 0, 0, "dst=%d len=%d via=%s seq=%d", trace.Int(dst), trace.Int(len(data)), trace.Str(via), trace.Int(seq))
	if proactive {
		e.tracer.Emit(p.Now(), trace.Hybrid, e.Rank(), "proactive-failover", 0, span, "dst=%d state=%s", trace.Int(dst), trace.Str(e.live.State(dst).String()))
	}
	err := sub.Send(p, dst, msg)
	if err == nil {
		e.tracer.EndSpan(p.Now(), trace.Hybrid, e.Rank(), "route-end", span, 0, "via=%s", trace.Str(via))
		return nil
	}
	// Failover: the sequence tag makes the substrates interchangeable —
	// the resequencer releases in stream order no matter which network a
	// message crossed — so a send the preferred substrate refuses can
	// retry on the other, provided it fits.
	alt := e.high
	altName := "high"
	if sub == e.high {
		alt = e.low
		altName = "low"
	}
	if len(msg) > alt.MaxMessage() {
		e.tracer.EndSpan(p.Now(), trace.Hybrid, e.Rank(), "route-end", span, 0, "failed via=%s: %s", trace.Str(via), trace.Err(err))
		return err
	}
	e.tracer.Emit(p.Now(), trace.Hybrid, e.Rank(), "failover", 0, span, "%s->%s: %s", trace.Str(via), trace.Str(altName), trace.Err(err))
	altErr := alt.Send(p, dst, msg)
	if altErr == nil {
		e.stats.Failovers++
		e.tracer.EndSpan(p.Now(), trace.Hybrid, e.Rank(), "route-end", span, 0, "failover via=%s", trace.Str(altName))
		return nil
	}
	e.tracer.EndSpan(p.Now(), trace.Hybrid, e.Rank(), "route-end", span, 0, "failed both: %s", trace.Err(err))
	return err
}

// Mcast replicates one message to several destinations over the
// low-latency substrate when it fits, else loops over Send. The whole
// destination list is validated before any stream sequence advances.
func (e *Endpoint) Mcast(p *sim.Proc, dsts []int, data []byte) error {
	if !xport.ValidMcast(e.Rank(), e.Procs(), dsts) {
		return fmt.Errorf("hybrid: bad multicast destination list %v", dsts)
	}
	allAlive := true
	for _, d := range dsts {
		if !e.alive(d) {
			allAlive = false
			break
		}
	}
	if len(data) <= e.cfg.Threshold && e.low.NativeMcast() && allAlive {
		// One posted buffer, but per-destination sequence numbers must
		// still advance identically; BBP flags already fan out, so tag
		// with each stream's sequence only if they agree — otherwise
		// fall back to unicasts.
		seq := e.sendSeq[dsts[0]]
		agree := true
		for _, d := range dsts {
			if e.sendSeq[d] != seq {
				agree = false
				break
			}
		}
		if agree {
			// The substrate delivers one copy per distinct destination,
			// so a repeated destination advances once: only streams
			// still at seq move.
			for _, d := range dsts {
				if e.sendSeq[d] == seq {
					e.sendSeq[d]++
				}
			}
			msg := e.bufs.Get(hdrBytes + len(data))
			defer e.bufs.Put(msg)
			binary.LittleEndian.PutUint32(msg, seq)
			copy(msg[hdrBytes:], data)
			return e.low.Mcast(p, dsts, msg)
		}
	}
	return xport.LoopMcast(p, dsts, data, e.Send)
}

// poll pulls at most one message from each substrate for src into the
// reorder buffer.
func (e *Endpoint) poll(p *sim.Proc, src int) {
	for _, sub := range e.take {
		msg, ok, err := sub.TryTake(p, src, &e.bufs)
		e.hold(p, src, msg, ok, err)
	}
}

// hold files the outcome of one substrate's take from src. A message
// arrives in a buffer from bufs sized to it, header included, and is
// held as it is; a runt or a duplicate goes straight back.
func (e *Endpoint) hold(p *sim.Proc, src int, msg []byte, ok bool, err error) {
	if err != nil {
		// A faulted substrate must not take the router down; the
		// stream heals via the substrate's own recovery or failover.
		e.stats.SubErrors++
		return
	}
	if !ok {
		return
	}
	if len(msg) < hdrBytes {
		e.stats.SubErrors++
		e.bufs.Put(msg)
		return
	}
	seq := binary.LittleEndian.Uint32(msg)
	if int32(seq-e.nextSeq[src]) < 0 {
		// Already released: a recovery layer below retransmitted
		// into a stream the resequencer has moved past.
		e.stats.Duplicates++
		e.bufs.Put(msg)
		return
	}
	p.Delay(e.cfg.ReorderCost)
	e.held[src][seq] = msg
	e.im.heldDepth.Set(int64(len(e.held[src])))
}

// heldNext reports whether the next in-sequence message from src is in
// the reorder buffer.
func (e *Endpoint) heldNext(src int) bool {
	_, ok := e.held[src][e.nextSeq[src]]
	return ok
}

// TryRecv polls once for the next in-sequence message from src.
func (e *Endpoint) TryRecv(p *sim.Proc, src int, buf []byte) (int, bool, error) {
	if src == e.Rank() || src < 0 || src >= e.Procs() {
		return 0, false, fmt.Errorf("hybrid: bad source %d", src)
	}
	if msg, ok := e.held[src][e.nextSeq[src]]; ok {
		return e.release(src, msg, buf)
	}
	e.poll(p, src)
	if msg, ok := e.held[src][e.nextSeq[src]]; ok {
		return e.release(src, msg, buf)
	}
	return 0, false, nil
}

// release hands the payload of the next in-sequence message from src
// to the caller. A message longer than buf is consumed all the same,
// with an error.
func (e *Endpoint) release(src int, msg []byte, buf []byte) (int, bool, error) {
	delete(e.held[src], e.nextSeq[src])
	e.nextSeq[src]++
	defer e.bufs.Put(msg)
	n := len(msg) - hdrBytes
	if n > len(buf) {
		return 0, false, fmt.Errorf("hybrid: %d-byte message into %d-byte buffer", n, len(buf))
	}
	copy(buf, msg[hdrBytes:])
	return n, true, nil
}

// Sweep is xport.LoopSweep over TryRecv (xport.Sweeper). Its poller
// runs each sender's probe as TryRecv makes it: the reorder buffer, the
// low substrate's probe step, the high one's, and the reorder buffer
// again. The process runs only for a step that sees something, a held
// message or a stop.
func (e *Endpoint) Sweep(p *sim.Proc, from int, buf []byte, stop func() bool) (src, n int, err error) {
	return e.sweep(p, 0, e.Procs(), from, stop, -1, buf)
}

// sweep runs a poller-run receive in the order that Poller.Start's
// arguments give, and returns the sender of the message it released,
// or -1 when the sweep stopped.
func (e *Endpoint) sweep(p *sim.Proc, base, span, from int, stop func() bool, deadline sim.Time, buf []byte) (int, int, error) {
	w := e.pollers.Get()
	defer e.pollers.Put(w)
	w.Start(p, base, span, from, stop, deadline)
	for {
		src, step := w.Wait()
		if src < 0 {
			return -1, 0, nil
		}
		if step < 0 {
			n, _, err := e.release(src, e.held[src][e.nextSeq[src]], buf)
			return src, n, err
		}
		msg, ok, err := w.Step(step).Take(p, src, &e.bufs)
		e.hold(p, src, msg, ok, err)
		w.Next()
	}
}

// Recv blocks for the next in-sequence message from src: a sweep of src
// alone, with the deadline checked after each probe, as a loop over
// TryRecv would check it.
func (e *Endpoint) Recv(p *sim.Proc, src int, buf []byte) (int, error) {
	if src == e.Rank() || src < 0 || src >= e.Procs() {
		return 0, fmt.Errorf("hybrid: bad source %d", src)
	}
	s, n, err := e.sweep(p, src, 1, 0, nil, e.deadline(p), buf)
	if s < 0 {
		return 0, ErrTimeout
	}
	return n, err
}

// RecvAny blocks for the next releasable message from any source: a
// sweep round-robin from rrNext, with the deadline checked after each
// full pass from there.
func (e *Endpoint) RecvAny(p *sim.Proc, buf []byte) (src, n int, err error) {
	if src, n, err = e.sweep(p, e.rrNext, e.Procs(), 0, nil, e.deadline(p), buf); src < 0 {
		return 0, 0, ErrTimeout
	}
	e.rrNext = (src + 1) % e.Procs()
	return src, n, err
}

// deadline is the end of a blocking receive that starts now, or -1.
func (e *Endpoint) deadline(p *sim.Proc) sim.Time {
	if e.cfg.RecvTimeout > 0 {
		return p.Now().Add(e.cfg.RecvTimeout)
	}
	return -1
}

var (
	_ xport.Endpoint = (*Endpoint)(nil)
	_ xport.Sweeper  = (*Endpoint)(nil)
)
