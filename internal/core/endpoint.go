package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xport"
)

// Endpoint is one process's handle on the BillBoard. All methods taking
// a *sim.Proc must be called from that process's simulation coroutine.
type Endpoint struct {
	sys *System
	me  int
	nic *scramnet.NIC

	// Sender state. outToggles[r] shadows the MESSAGE flag word this
	// process writes into r's control partition: one toggle bit per
	// buffer slot in the base protocol, a bare post counter under the
	// retry extension (bumped on every post and retransmission, so a
	// receiver always sees a fresh difference no matter which earlier
	// writes were lost). sendSeq is the global send sequence, strictly
	// increasing across Send and Mcast.
	outToggles []uint32
	sendSeq    uint32
	live       []liveBuf
	freeSlots  []int
	alloc      *allocator
	// minUnOut[r] (retry extension) shadows the MIN-UNACKED word this
	// process writes into r's partition: the smallest sequence addressed
	// to r not yet acknowledged, or sendSeq+1 when none is outstanding.
	// Monotone non-decreasing, so stale replicas can only delay
	// delivery at r, never reorder it.
	minUnOut []uint32

	// Receiver state. lastSeen[s] shadows the last observed value of
	// sender s's MESSAGE flag word; ackOut[s] shadows the ACK word this
	// process writes into s's partition; pending[s] holds detected-but-
	// not-consumed messages from s in sequence order; rrNext implements
	// round-robin fairness for RecvAny.
	lastSeen []uint32
	ackOut   []uint32
	pending  [][]message
	rrNext   int
	// slotSeq[s][b] is the sequence of the last message accepted from
	// sender s's buffer slot b; the retry extension rejects a
	// re-scanned descriptor at or below it as stale. The floor is per
	// slot, not per sender: descriptors can be repaired out of sequence
	// order, so a slot-b retransmission may legitimately carry a lower
	// sequence than a message already accepted from another slot.
	// Soundness rests on slot occupancy: successive occupants of one
	// slot carry strictly increasing sequences, because the sender
	// reuses a slot only after freeing it and sendSeq never decreases.
	slotSeq [][]uint32
	// rescan[s], set when a checksum failure rolls a detection back,
	// forces the next poll of s to rescan descriptors even though the
	// post counter has not advanced.
	rescan []bool
	// minUnIn[s] (retry extension) shadows sender s's MIN-UNACKED word
	// and lastDeliv[s] the sequence this process last consumed from s:
	// a pending message whose sequence is not contiguous with
	// lastDeliv[s] is delivered only once minUnIn[s] reaches it,
	// proving every earlier sequence addressed to us was either
	// consumed by us or given up on by the sender.
	minUnIn   []uint32
	lastDeliv []uint32

	// Poll plan, fixed at Attach (see initPollPlan): how many words one
	// wide read of this receiver's contiguous flag region covers, and
	// whether the bus cost model favors the burst over per-word probes
	// for an all-senders poll (burstAllOK) and for a single-sender poll
	// (burstOneOK).
	burstWords int
	burstAllOK bool
	burstOneOK bool
	// pollers holds the idle pollers (poll.go) that waiting processes
	// take and return; sweepers and passes hold the idle xport.Pollers
	// of Sweep, over TryTake's probe step, and of the blocking receives,
	// over the pass step.
	pollers          []*poller
	sweepers, passes *xport.Pollers

	// adapt is the adaptive receive-DMA threshold estimator (adaptive.go).
	adapt adaptiveState

	// hb is the heartbeat publisher + failure detector pair (liveness.go);
	// nil unless Config.Liveness.Enabled.
	hb *hbState

	// stream is the in-network allreduce state (stream.go); zero unless
	// Config.Stream.Enabled.
	stream streamState

	// intrWake (Config.InterruptDriven only) is broadcast on every
	// MESSAGE-flag interrupt.
	intrWake  *sim.Cond
	retryWake *sim.Cond
	stats     Stats
	im        epInstruments
}

// epInstruments are the endpoint's instruments that have no Stats
// twin: message-size histograms, the adaptive threshold and its
// adaptation count (nil = disabled no-ops).
type epInstruments struct {
	msgSize            *metrics.Histogram // bbp.msg_size_bytes
	recvSize           *metrics.Histogram // bbp.recv_size_bytes
	recvThresholdBytes *metrics.Gauge     // bbp.recv_dma_threshold_bytes
	thresholdAdapts    *metrics.Counter   // bbp.threshold_adaptations
}

// setMetrics binds the endpoint's Stats to m under its rank and
// creates the instruments Stats has no field for.
func (e *Endpoint) setMetrics(m *metrics.Registry) {
	m.Bind("bbp.sends", e.me, &e.stats.Sent)
	m.Bind("bbp.mcast_sends", e.me, &e.stats.McastSent)
	m.Bind("bbp.recvs", e.me, &e.stats.Received)
	m.Bind("bbp.bytes_sent", e.me, &e.stats.BytesSent)
	m.Bind("bbp.bytes_recv", e.me, &e.stats.BytesRecv)
	m.Bind("bbp.polls", e.me, &e.stats.Polls)
	m.Bind("bbp.poll_words", e.me, &e.stats.PollWords)
	m.Bind("bbp.burst_polls", e.me, &e.stats.BurstPolls)
	m.Bind("bbp.burst_poll_words", e.me, &e.stats.BurstPollWords)
	m.Bind("bbp.re_acks", e.me, &e.stats.ReAcks)
	m.Bind("bbp.gc_passes", e.me, &e.stats.GCPasses)
	m.Bind("bbp.alloc_retries", e.me, &e.stats.AllocRetries)
	m.Bind("bbp.retransmits", e.me, &e.stats.Retransmits)
	m.Bind("bbp.retry_failures", e.me, &e.stats.RetryFailures)
	m.Bind("bbp.checksum_drops", e.me, &e.stats.ChecksumDrops)
	m.Bind("bbp.stale_descs", e.me, &e.stats.StaleDescs)
	m.Bind("bbp.stream_rounds", e.me, &e.stats.StreamRounds)
	m.Bind("bbp.stream_fallbacks", e.me, &e.stats.StreamFallbacks)
	e.im = epInstruments{
		msgSize:            m.Histogram("bbp.msg_size_bytes", e.me),
		recvSize:           m.Histogram("bbp.recv_size_bytes", e.me),
		recvThresholdBytes: m.Gauge("bbp.recv_dma_threshold_bytes", e.me),
		thresholdAdapts:    m.Counter("bbp.threshold_adaptations", e.me),
	}
	e.im.recvThresholdBytes.Set(int64(e.recvDMAThreshold()))
}

// liveBuf tracks an occupied buffer slot until every addressed receiver
// acknowledges it.
type liveBuf struct {
	used   bool
	off, n int    // data-partition segment
	dests  uint32 // bitmask of addressed receivers
	acked  uint32 // receivers whose ACK toggle already matched

	// Retry-extension state, maintained only when Config.Retry.Enabled.
	seq      uint32   // sequence number the buffer was posted with
	data     []byte   // payload copy for retransmission; kept while free
	posted   sim.Time // time of the last (re)transmission
	attempts int      // retransmissions so far
	busy     bool     // a retransmission's writes are in flight: don't free

	span trace.SpanID // the message's send span (retransmissions parent to it)
	msg  uint64       // trace.MsgID of the posted message
}

// message is a detected incoming message: descriptor contents plus the
// slot to acknowledge.
type message struct {
	slot   int
	off, n int
	seq    uint32
	// Retry-extension fields: the destination mask and descriptor
	// checksum, and the slot's previous sequence floor so a
	// checksum-failed detection can be rolled back for a fresh
	// descriptor read (see consume).
	dests     uint32
	ck        uint32
	prevFloor uint32
}

// Rank returns this endpoint's process number.
func (e *Endpoint) Rank() int { return e.me }

// MaxMessage returns the largest payload one buffer can carry.
func (e *Endpoint) MaxMessage() int { return e.sys.lay.dataSize }

// NativeMcast reports that BBP multicast is a single-step hardware
// operation (it satisfies xport.Endpoint).
func (e *Endpoint) NativeMcast() bool { return true }

// Procs returns the number of processes in the system.
func (e *Endpoint) Procs() int { return e.sys.lay.nprocs }

// Stats returns a copy of the endpoint's counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Send posts data to process dst (bbp_Send).
func (e *Endpoint) Send(p *sim.Proc, dst int, data []byte) error {
	if dst == e.me || dst < 0 || dst >= e.Procs() {
		return ErrBadRank
	}
	return e.post(p, 1<<uint(dst), data)
}

// Mcast posts one copy of data, visible to every process in dsts
// (bbp_Mcast). Each extra receiver costs one additional flag-word write.
func (e *Endpoint) Mcast(p *sim.Proc, dsts []int, data []byte) error {
	if !xport.ValidMcast(e.me, e.Procs(), dsts) {
		return ErrBadRank
	}
	var mask uint32
	for _, d := range dsts {
		mask |= 1 << uint(d)
	}
	return e.post(p, mask, data)
}

// Bcast posts data to every other process.
func (e *Endpoint) Bcast(p *sim.Proc, data []byte) error {
	mask := uint32(1<<uint(e.Procs())) - 1
	mask &^= 1 << uint(e.me)
	return e.post(p, mask, data)
}

// post is the shared billboard write path: allocate, write data, write
// descriptor, toggle MESSAGE flags.
func (e *Endpoint) post(p *sim.Proc, dests uint32, data []byte) error {
	lay, cfg := e.sys.lay, e.sys.cfg
	if len(data) > lay.dataSize {
		return ErrTooLarge
	}
	if e.hb != nil && e.hb.det.Fenced() {
		// Minority side of a declared ring partition: new posts would
		// publish state the quorum cannot see. Heartbeats and existing
		// retry slots keep running — only new billboard writes fence.
		e.stats.FencedSends++
		return ErrFenced
	}
	p.Delay(cfg.Costs.SendSetup)

	slot, off, err := e.allocate(p, len(data))
	if err != nil {
		return err
	}
	// The retry copy reuses the buffer of the slot's previous payload
	// copy: a slot is freed only when no retransmission is writing it.
	lb := &e.live[slot]
	*lb = liveBuf{used: true, off: off, n: len(data), dests: dests, data: lb.data[:0]}
	e.sendSeq++
	if cfg.Retry.Enabled {
		lb.seq = e.sendSeq
		lb.data = append(lb.data, data...)
		lb.posted = p.Now()
	}
	// "post" opens the message's send span (closed by "send-end" after
	// the last flag write). Every bus write and ring packet until then
	// is attributed to the message via the NIC's trace context.
	msg := trace.MsgID(e.me, e.sendSeq)
	span := e.sys.tracer.BeginSpan(p.Now(), trace.BBP, e.me, "post", msg, 0, "slot=%d off=%d len=%d dests=%#x seq=%d",
		trace.Int(slot), trace.Int(off), trace.Int(len(data)), trace.Int(dests), trace.Int(e.sendSeq))
	lb.span = span
	lb.msg = msg
	pm, pp := e.nic.SetTraceContext(msg, span)
	defer e.nic.SetTraceContext(pm, pp)

	// Message body straight from the user buffer into SCRAMNet memory
	// (the zero-copy path), then the descriptor, then the flags; the
	// ring's per-sender FIFO guarantees receivers see them in order.
	if len(data) > 0 {
		if len(data) >= cfg.Thresholds.SendDMA {
			e.nic.WriteDMA(p, lay.dataOff(e.me, off), data)
		} else {
			e.nic.Write(p, lay.dataOff(e.me, off), data)
		}
	}
	var desc [descSize]byte
	putWord(desc[0:], uint32(off))
	putWord(desc[4:], uint32(len(data)))
	putWord(desc[8:], e.sendSeq)
	dw := descWords
	if cfg.Retry.Enabled {
		putWord(desc[12:], dests)
		putWord(desc[16:], descCheck(off, len(data), e.sendSeq, dests, data))
		dw = descWordsRetry
	}
	e.nic.Write(p, lay.desc(e.me, slot), desc[:dw*4])

	// Publish MIN-UNACKED before the post counters so a receiver that
	// sees the counter (the ring preserves per-sender write order) can
	// already judge this message's delivery eligibility.
	if cfg.Retry.Enabled {
		e.syncMinUn(p, false)
	}

	multicast := false
	for r := 0; r < e.Procs(); r++ {
		if dests&(1<<uint(r)) == 0 {
			continue
		}
		if cfg.Retry.Enabled {
			e.outToggles[r]++ // post counter; the descriptor scan finds the slot
		} else {
			e.outToggles[r] ^= 1 << uint(slot)
		}
		if cfg.InterruptDriven {
			e.nic.WriteWordInterrupt(p, lay.msgFlags(r, e.me), e.outToggles[r])
		} else {
			e.nic.WriteWord(p, lay.msgFlags(r, e.me), e.outToggles[r])
		}
		e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "flag-set", msg, span, "receiver=%d slot=%d", trace.Int(r), trace.Int(slot))
		if multicast {
			e.stats.McastSent++
		}
		multicast = true
	}
	e.sys.tracer.EndSpan(p.Now(), trace.BBP, e.me, "send-end", span, msg, "seq=%d", trace.Int(e.sendSeq))
	e.stats.Sent++
	e.stats.BytesSent += int64(len(data))
	e.im.msgSize.Observe(int64(len(data)))
	if cfg.Retry.Enabled {
		e.retryWake.Signal()
	}
	return nil
}

// popFreeSlot takes a slot from the free list. The base protocol reuses
// slots LIFO (hot in cache); the retry extension reuses them FIFO to
// maximize the distance before a slot's descriptor is overwritten,
// which narrows the stale-descriptor window PROTOCOL.md describes.
func (e *Endpoint) popFreeSlot() int {
	if e.sys.cfg.Retry.Enabled {
		// Shift rather than reslice: the list keeps its capacity, so
		// freeLive's append never reallocates it.
		s := e.freeSlots[0]
		e.freeSlots = e.freeSlots[:copy(e.freeSlots, e.freeSlots[1:])]
		return s
	}
	s := e.freeSlots[len(e.freeSlots)-1]
	e.freeSlots = e.freeSlots[:len(e.freeSlots)-1]
	return s
}

// allocate obtains a free slot and data segment, running garbage
// collection — and then backing off — only when space is exhausted, as
// in the paper (§3 footnote: "If a buffer cannot be allocated garbage
// collection is first done ... and then a buffer is allocated").
func (e *Endpoint) allocate(p *sim.Proc, n int) (slot, off int, err error) {
	cfg := e.sys.cfg
	deadline := e.deadline(p)
	for {
		if len(e.freeSlots) > 0 {
			if o, ok := e.alloc.alloc(n); ok {
				return e.popFreeSlot(), o, nil
			}
		}
		e.collect(p)
		if len(e.freeSlots) > 0 {
			if o, ok := e.alloc.alloc(n); ok {
				return e.popFreeSlot(), o, nil
			}
		}
		if n > e.sys.lay.dataSize {
			return 0, 0, ErrTooLarge
		}
		e.stats.AllocRetries++
		if deadline >= 0 && p.Now().Add(cfg.Costs.AllocRetryDelay) > deadline {
			return 0, 0, ErrTimeout
		}
		p.Delay(cfg.Costs.AllocRetryDelay)
	}
}

// collect is the garbage collector: read the ACK toggle words receivers
// write into our control partition and free every buffer whose addressed
// receivers have all caught up with the MESSAGE toggles.
func (e *Endpoint) collect(p *sim.Proc) {
	lay := e.sys.lay
	p.Delay(e.sys.cfg.Costs.GCPass)
	e.stats.GCPasses++
	e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "gc", 0, 0, "pass=%d", trace.Int(e.stats.GCPasses))
	// One ACK word per peer that any live buffer is still waiting on.
	var need uint32
	for s := range e.live {
		if e.live[s].used {
			need |= e.live[s].dests &^ e.live[s].acked
		}
	}
	if need == 0 {
		return
	}
	retry := e.sys.cfg.Retry.Enabled
	// need is a 32-bit destination mask, so only ranks below 32 are
	// ever read here.
	var acks [32]uint32
	if !retry {
		for r := 0; r < e.Procs(); r++ {
			if need&(1<<uint(r)) != 0 {
				acks[r] = e.nic.ReadWord(p, lay.ackFlags(e.me, r))
			}
		}
	}
	for s := range e.live {
		lb := &e.live[s]
		if !lb.used {
			continue
		}
		for r := 0; r < e.Procs(); r++ {
			bit := uint32(1) << uint(r)
			if lb.dests&bit == 0 || lb.acked&bit != 0 {
				continue
			}
			if e.deadPeer(r) {
				// The failure detector confirmed r dead: its ACK will
				// never come, so stop waiting for it. This reclaims the
				// buffer within the detector's confirmation window —
				// in particular a multicast with one dead receiver in
				// the group no longer pins its slot until retry
				// exhaustion — and the survivors' ACKs still count.
				lb.acked |= bit
				e.stats.DeadPeerReclaims++
				e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "dead-reclaim", lb.msg, lb.span, "receiver=%d slot=%d", trace.Int(r), trace.Int(s))
				continue
			}
			if retry {
				// Per-slot ACK (see ackWrite): r writes the sequence it
				// consumed from this slot. Occupant sequences are
				// strictly increasing per slot, so a stale replica can
				// only under-report — never acknowledge the current
				// occupant on behalf of an older one.
				if !seqLess(e.nic.ReadWord(p, lay.ackSlot(e.me, r, s)), lb.seq) {
					lb.acked |= bit
				}
			} else if acks[r]&(1<<uint(s)) == e.outToggles[r]&(1<<uint(s)) {
				lb.acked |= bit
			}
		}
		if lb.acked == lb.dests && !lb.busy {
			e.freeLive(s, lb)
		}
	}
	if retry {
		e.syncMinUn(p, false)
	}
}

// syncMinUn (retry extension) recomputes every receiver's MIN-UNACKED
// value and writes those that changed — or all of them when force is
// set, which the retry daemon uses each pass to heal writes the ring
// dropped. The value is monotone non-decreasing: new posts carry
// larger sequences than anything outstanding, and acknowledgments and
// reclaims only remove the smallest elements.
func (e *Endpoint) syncMinUn(p *sim.Proc, force bool) {
	lay := e.sys.lay
	for r := 0; r < e.Procs(); r++ {
		if r == e.me {
			continue
		}
		bit := uint32(1) << uint(r)
		v := e.sendSeq + 1
		for s := range e.live {
			lb := &e.live[s]
			if lb.used && lb.dests&bit != 0 && lb.acked&bit == 0 && seqLess(lb.seq, v) {
				v = lb.seq
			}
		}
		if v == e.sendSeq+1 {
			// Nothing outstanding to r: r has nothing of ours pending
			// either (pending implies unacknowledged), so it will not
			// consult the word until our next post updates it.
			continue
		}
		if force || v != e.minUnOut[r] {
			e.minUnOut[r] = v
			e.nic.WriteWord(p, lay.minUn(r, e.me), v)
		}
	}
}

// freeLive returns slot s's data segment and slot to the free pools.
func (e *Endpoint) freeLive(s int, lb *liveBuf) {
	e.alloc.release(lb.off, lb.n)
	e.freeSlots = append(e.freeSlots, s)
	*lb = liveBuf{data: lb.data} // the next post reuses the buffer
}

func putWord(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getWord(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// seqLess compares sequence numbers with wraparound.
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

func (e *Endpoint) String() string {
	return fmt.Sprintf("bbp[%d/%d]", e.me, e.Procs())
}
