package core

// This file wires heartbeat-based membership (internal/liveness) into
// the BillBoard Protocol. Enabled by Config.Liveness, it adds:
//
//   - a global single-writer heartbeat table ahead of the partitions
//     (layout.hbBeat/hbInc): one (beat, incarnation) word pair per
//     node, each written only by its owner, replicated by the ring like
//     any other write;
//   - a per-endpoint heartbeat daemon (hbLoop) that each Period
//     publishes the local pair, burst-reads the whole table in one wide
//     read (like the MESSAGE flag region), and feeds the samples into a
//     liveness.Detector;
//   - a link-epoch check: when the card reports carrier loss and later
//     recovery, the node bumps its incarnation and resets its detector,
//     so it rejoins as a fresh identity and its partition-era verdicts
//     are discarded (peers fence the old incarnation either way);
//   - dead-peer reclaim: collect() treats a confirmed-dead receiver's
//     ACK obligation as abandoned, so the garbage collector and the
//     retry daemon free buffers within a detector-bound delay instead
//     of burning MaxRetries × Timeout per message — including the
//     multicast case where one dead receiver in a group used to pin
//     the buffer until retry exhaustion.
//
// All daemons are woken by one shared observer-event ticker per System,
// so the subsystem costs one kernel event per period and never keeps a
// finished simulation alive (see sim.KindObserver).

import (
	"repro/internal/liveness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// armHbTicker schedules the next shared heartbeat tick, hbTick. The
// tick is an observer event: when only observers remain in the kernel
// the workload has drained, and the ticker lets the simulation end by
// simply not rearming (the daemons stay blocked on hbWake; they are
// daemons, so that is not a deadlock).
func (s *System) armHbTicker() {
	s.net.Kernel().AfterKind(s.cfg.Liveness.Period, sim.KindObserver, s.hbTick)
}

// heartbeat is the shared tick: it wakes every endpoint's liveness
// daemon and rearms, unless the workload has drained.
func (s *System) heartbeat() {
	if s.net.Kernel().Pending() == 0 {
		return
	}
	s.hbWake.Broadcast()
	s.armHbTicker()
}

// hbState is one endpoint's half of the liveness subsystem: the
// publisher state and the failure detector it feeds.
type hbState struct {
	det  *liveness.Detector
	beat uint32
	inc  uint32
	// sawDown latches a carrier loss until the link recovers, at which
	// point the endpoint bumps inc and resets det (a link epoch).
	sawDown bool
	buf     []uint32 // scratch for the one-burst table read

	incGauge *metrics.Gauge // liveness.incarnation
}

func (e *Endpoint) initLiveness() {
	m := e.sys.metrics
	e.hb = &hbState{
		det: liveness.NewDetector(e.me, e.Procs(), e.sys.cfg.Liveness,
			e.sys.net.Kernel().Now(), e.sys.tracer, m),
		inc:      1, // 0 means "never booted" in zero-initialized memory
		buf:      make([]uint32, 2*e.Procs()),
		incGauge: m.Gauge("liveness.incarnation", e.me),
	}
	m.Bind("bbp.dead_peer_reclaims", e.me, &e.stats.DeadPeerReclaims)
	m.Bind("liveness.fenced_sends", e.me, &e.stats.FencedSends)
	e.hb.incGauge.Set(int64(e.hb.inc))
}

// Liveness exposes the endpoint's membership view (liveness.Provider).
// It returns nil when Config.Liveness is disabled.
func (e *Endpoint) Liveness() liveness.View {
	if e.hb == nil {
		return nil
	}
	return e.hb.det
}

// Partition exposes the endpoint's declared ring partition, if any
// (liveness.PartitionView). Always false when liveness is disabled.
func (e *Endpoint) Partition() (liveness.PartitionInfo, bool) {
	if e.hb == nil {
		return liveness.PartitionInfo{}, false
	}
	return e.hb.det.Partition()
}

// LivenessStats returns detector transition counts (zero when the
// subsystem is disabled).
func (e *Endpoint) LivenessStats() liveness.Stats {
	if e.hb == nil {
		return liveness.Stats{}
	}
	return e.hb.det.Stats()
}

// hbLoop is the heartbeat daemon: publish + scan once per shared tick.
func (e *Endpoint) hbLoop(p *sim.Proc) {
	for {
		e.sys.hbWake.Wait(p)
		e.hbTick(p)
	}
}

func (e *Endpoint) hbTick(p *sim.Proc) {
	lay, hb := e.sys.lay, e.hb
	now := p.Now()

	up := e.nic.LinkUp()
	switch {
	case !up && !hb.sawDown:
		hb.sawDown = true
		e.sys.tracer.Emit(now, trace.Live, e.me, "link-down", 0, 0, "inc=%d", trace.Int(hb.inc))
	case up && hb.sawDown:
		// The link came back after an outage: everything this node
		// observed (and everything peers observed about it) during the
		// partition is stale. Rejoin as a fresh incarnation and restart
		// the local detector's clocks; peers fence the old identity
		// until this new incarnation reaches them.
		hb.sawDown = false
		hb.inc++
		hb.det.Reset(now)
		hb.det.AddSelfRejoin()
		hb.incGauge.Set(int64(hb.inc))
		e.sys.tracer.Emit(now, trace.Live, e.me, "self-rejoin", 0, 0, "inc=%d", trace.Int(hb.inc))
	}

	// Publish, incarnation word first: the ring preserves per-sender
	// write order, so any observer that sees the new beat also sees the
	// incarnation it belongs to. Both words are rewritten every tick —
	// a tick lost to a loss window heals on the next one.
	hb.beat++
	e.nic.WriteWord(p, lay.hbInc(e.me), hb.inc)
	e.nic.WriteWord(p, lay.hbBeat(e.me), hb.beat)
	hb.det.AddBeat()

	if !up {
		// A frozen replica proves nothing about the peers; verdicts
		// formed now would all be false. Hold the detector until the
		// link epoch turns over.
		return
	}
	// Ring status sample: the severed-segment count is the hardware
	// corroboration the partition machinery requires to distinguish an
	// unreachable arc from dead peers, and its return to a healable
	// level is what clears a declared partition.
	hb.det.ObserveRing(now, e.nic.RingCuts())
	// One wide read covers every peer's pair, like a burst poll of the
	// MESSAGE flag region.
	e.nic.ReadWords(p, 0, hb.buf)
	now = p.Now()
	for s := 0; s < e.Procs(); s++ {
		if s == e.me {
			continue
		}
		hb.det.Observe(now, s, hb.buf[2*s], hb.buf[2*s+1])
	}
	hb.det.Tick(now)
	if hb.det.TakeResync() {
		e.partitionResync(p)
	}
}

// partitionResync re-publishes this node's billboard state after it
// returns from the minority side of a partition. The node takes a fresh
// incarnation — peers accept the rejoin through the existing fencing
// path — then every occupied retry slot is scheduled for an immediate
// retransmission with a fresh backoff budget, and the MIN-UNACKED words
// are force-republished. The receiver-side re-ack path reconciles the
// rest: a retransmitted descriptor whose sequence was already consumed
// is re-acknowledged without redelivery, so messages posted before or
// during the fence deliver exactly once across the heal.
func (e *Endpoint) partitionResync(p *sim.Proc) {
	lay, hb := e.sys.lay, e.hb
	hb.inc++
	hb.det.AddSelfRejoin()
	hb.incGauge.Set(int64(hb.inc))
	e.nic.WriteWord(p, lay.hbInc(e.me), hb.inc)
	e.nic.WriteWord(p, lay.hbBeat(e.me), hb.beat)
	slots := 0
	if e.sys.cfg.Retry.Enabled {
		for s := range e.live {
			lb := &e.live[s]
			if lb.used {
				lb.posted = sim.Time(0)
				lb.attempts = 0
				slots++
			}
		}
		e.syncMinUn(p, true)
		e.retryWake.Signal()
	}
	e.sys.tracer.Emit(p.Now(), trace.Live, e.me, "partition-resync", 0, 0, "inc=%d slots=%d", trace.Int(hb.inc), trace.Int(slots))
}

// deadPeer reports whether the detector has confirmed r dead. Safe to
// call with liveness disabled (always false). A confirmed-dead verdict
// about a peer on the far side of a declared partition does not count:
// the peer is unreachable, not dead, so its ACK obligations must
// survive until the ring heals — reclaiming them would turn pre-cut
// messages into ghosts the delivery oracle can see.
func (e *Endpoint) deadPeer(r int) bool {
	if e.hb == nil || e.hb.det.State(r) != liveness.Dead {
		return false
	}
	if part, ok := e.hb.det.Partition(); ok && part.Unreachable(r) {
		return false
	}
	return true
}
