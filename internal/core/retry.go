package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements the retry extension's send side: a per-endpoint
// daemon that watches posted buffers and retransmits any not yet
// acknowledged within the (exponentially backed off) timeout. A
// retransmission rewrites the payload and descriptor with the values
// of the original post — idempotent, so a receiver that did observe
// the first transmission cannot deliver the message twice (its slot
// floor already carries the sequence) — and then bumps the MESSAGE
// post counter of every receiver still owing an ACK, which forces
// those receivers to rescan the descriptors no matter which earlier
// writes were lost. ACK words are likewise self-healing: a receiver
// that rescans a descriptor it has already consumed re-writes the
// slot's ACK word (scanSender), repairing a dropped acknowledgment.
// In the worst case the sender reclaims the buffer after MaxRetries
// (the receiver is presumed dead).

// descCheck is the integrity checksum the retry extension stores in
// the last descriptor word: FNV-1a over the descriptor fields —
// including the destination mask, so a torn mask can never route a
// message to the wrong receiver — and the payload, forced nonzero so
// an all-zero (never written) descriptor can never validate.
func descCheck(off, n int, seq, dests uint32, data []byte) uint32 {
	const (
		basis = 2166136261
		prime = 16777619
	)
	h := uint32(basis)
	word := func(v uint32) {
		for i := uint(0); i < 4; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	word(uint32(off))
	word(uint32(n))
	word(seq)
	word(dests)
	for _, b := range data {
		h ^= uint32(b)
		h *= prime
	}
	if h == 0 {
		h = 1
	}
	return h
}

// unackedOutstanding reports whether any posted buffer is still waiting
// on a receiver.
func (e *Endpoint) unackedOutstanding() bool {
	for i := range e.live {
		if e.live[i].used && e.live[i].acked != e.live[i].dests {
			return true
		}
	}
	return false
}

// retryLoop is the retransmission daemon. It sleeps on retryWake while
// nothing is outstanding — crucially, a blocked daemon schedules no
// events, so an idle simulation still quiesces — and otherwise sweeps
// at a quarter of the base timeout.
func (e *Endpoint) retryLoop(p *sim.Proc) {
	rc := e.sys.cfg.Retry
	tick := rc.Timeout / 4
	if tick < sim.Microsecond {
		tick = sim.Microsecond
	}
	for {
		for !e.unackedOutstanding() {
			e.retryWake.Wait(p)
		}
		p.Delay(tick)
		e.retryPass(p)
	}
}

// retryPass refreshes ACK state, reclaims buffers whose retry budget is
// exhausted, and retransmits those past their deadline.
func (e *Endpoint) retryPass(p *sim.Proc) {
	rc := e.sys.cfg.Retry
	e.collect(p)
	now := p.Now()
	for s := range e.live {
		lb := &e.live[s]
		if !lb.used || lb.acked == lb.dests || lb.busy {
			continue
		}
		if now.Sub(lb.posted) < rc.Timeout<<uint(lb.attempts) {
			continue
		}
		if lb.attempts >= rc.MaxRetries {
			// The remaining receivers are presumed dead; reclaim the
			// buffer so the sender is not wedged forever.
			e.stats.RetryFailures++
			e.sys.tracer.Emit(now, trace.BBP, e.me, "retry-fail", lb.msg, lb.span, "slot=%d seq=%d attempts=%d", trace.Int(s), trace.Int(lb.seq), trace.Int(lb.attempts))
			e.freeLive(s, lb)
			continue
		}
		e.retransmit(p, s, lb)
	}
	// Unconditional rewrite — after reclaims, so abandoned gaps are
	// published immediately — heals MIN-UNACKED words whose last update
	// the ring dropped (receivers may be holding deliveries on them).
	e.syncMinUn(p, true)
}

// retransmit rewrites slot s's payload, descriptor and outstanding
// MESSAGE flag words. busy pins the buffer so a concurrent collect (the
// application thread GCs on allocation failure) cannot free and reuse
// the slot mid-rewrite.
func (e *Endpoint) retransmit(p *sim.Proc, s int, lb *liveBuf) {
	lay, cfg := e.sys.lay, e.sys.cfg
	lb.busy = true
	lb.attempts++
	e.stats.Retransmits++
	// Each retransmission is its own span, parented to the original send
	// span, so a timeline shows attempt N hanging off the message root.
	span := e.sys.tracer.BeginSpan(p.Now(), trace.BBP, e.me, "retransmit", lb.msg, lb.span, "slot=%d seq=%d attempt=%d", trace.Int(s), trace.Int(lb.seq), trace.Int(lb.attempts))
	pm, pp := e.nic.SetTraceContext(lb.msg, span)

	if lb.n > 0 {
		if lb.n >= cfg.Thresholds.SendDMA {
			e.nic.WriteDMA(p, lay.dataOff(e.me, lb.off), lb.data)
		} else {
			e.nic.Write(p, lay.dataOff(e.me, lb.off), lb.data)
		}
	}
	var desc [descSize]byte
	putWord(desc[0:], uint32(lb.off))
	putWord(desc[4:], uint32(lb.n))
	putWord(desc[8:], lb.seq)
	putWord(desc[12:], lb.dests)
	putWord(desc[16:], descCheck(lb.off, lb.n, lb.seq, lb.dests, lb.data))
	e.nic.Write(p, lay.desc(e.me, s), desc[:])

	for r := 0; r < e.Procs(); r++ {
		bit := uint32(1) << uint(r)
		if lb.dests&bit == 0 || lb.acked&bit != 0 {
			continue
		}
		// A fresh counter value, never a repeat: the receiver rescans
		// even if every earlier flag write to it was dropped.
		e.outToggles[r]++
		if cfg.InterruptDriven {
			e.nic.WriteWordInterrupt(p, lay.msgFlags(r, e.me), e.outToggles[r])
		} else {
			e.nic.WriteWord(p, lay.msgFlags(r, e.me), e.outToggles[r])
		}
	}
	e.nic.SetTraceContext(pm, pp)
	e.sys.tracer.EndSpan(p.Now(), trace.BBP, e.me, "retransmit-end", span, lb.msg, "slot=%d attempt=%d", trace.Int(s), trace.Int(lb.attempts))
	lb.posted = p.Now()
	lb.busy = false
}
