package core

import (
	"errors"

	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xport"
)

// errChecksum is internal to the retry extension: the payload read back
// for a detected message did not match its descriptor checksum (some of
// its packets were lost in flight). The message is re-queued unacked
// and re-read after the sender's retransmission repairs the buffer.
var errChecksum = errors.New("bbp: payload checksum mismatch (awaiting retransmission)")

// acceptFlags applies one observed sample of sender s's MESSAGE flag
// word (and, under the retry extension, its MIN-UNACKED word) — however
// the words were read. Both the per-word and the burst poll paths feed
// this one function, so detection logic cannot diverge between them.
//
// In the base protocol the flag word is a per-slot toggle mask diffed
// against the shadow copy. Under the retry extension it is a bare post
// counter: any change (a post or a retransmission) triggers a scan of
// all of s's descriptors, and detection rests on per-slot sequence
// floors rather than toggle parity, which is ambiguous once flag writes
// can be lost.
func (e *Endpoint) acceptFlags(w *poller, s int, flags, minUn uint32) {
	p := w.p
	lay, cfg := e.sys.lay, e.sys.cfg
	if cfg.Retry.Enabled {
		// Refresh the delivery gate even when the post counter is
		// unchanged: the sender advances MIN-UNACKED on acknowledgments
		// and reclaims without bumping the counter.
		e.minUnIn[s] = minUn
		if flags == e.lastSeen[s] && !e.rescan[s] {
			return
		}
		// Absorb the counter before scanning: a lost counter write is
		// healed by the sender's next post or retransmission, which
		// always produces a fresh value.
		e.lastSeen[s] = flags
		e.rescan[s] = false
		e.scanSender(w, s)
		return
	}
	diff := flags ^ e.lastSeen[s]
	if diff == 0 {
		return
	}
	for b := 0; b < cfg.Buffers; b++ {
		if diff&(1<<uint(b)) == 0 {
			continue
		}
		var desc [descSize]byte
		e.nic.Read(p, lay.desc(s, b), desc[:descWords*4])
		m := message{
			slot: b,
			off:  int(getWord(desc[0:])),
			n:    int(getWord(desc[4:])),
			seq:  getWord(desc[8:]),
		}
		p.Delay(cfg.Costs.RecvBookkeeping)
		e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "detect", trace.MsgID(s, m.seq), 0, "sender=%d slot=%d len=%d seq=%d", trace.Int(s), trace.Int(b), trace.Int(m.n), trace.Int(m.seq))
		e.insertPending(s, m)
		e.lastSeen[s] ^= 1 << uint(b)
	}
}

// changes reports whether acceptFlags would act on this sample of
// sender s's words, that is, not take its early return.
func (e *Endpoint) changes(s int, flags, minUn uint32) bool {
	if flags != e.lastSeen[s] {
		return true
	}
	return e.sys.cfg.Retry.Enabled && (e.rescan[s] || minUn != e.minUnIn[s])
}

// scanSender (retry extension only) reads all of sender s's descriptors
// and classifies each slot by its sequence against the slot floor:
// newer and well-formed — accept; equal to the floor — a retransmission
// of a message this receiver already consumed, meaning the ACK write
// was lost, so acknowledge it again; older or torn — ignore, the
// sender's retransmission will repair the descriptor and bump the post
// counter, triggering another scan. The descriptors are read into the
// waiting process's poller, not the endpoint: the scan blocks on its
// reads, and another process waiting on this endpoint may scan
// meanwhile.
func (e *Endpoint) scanSender(w *poller, s int) {
	p := w.p
	lay, cfg := e.sys.lay, e.sys.cfg
	if w.descs == nil {
		w.descs = make([]byte, descSize*cfg.Buffers)
	}
	descs := w.descs
	e.nic.Read(p, lay.desc(s, 0), descs)
scan:
	for b := 0; b < cfg.Buffers; b++ {
		d := descs[descSize*b:]
		m := message{
			slot:  b,
			off:   int(getWord(d[0:])),
			n:     int(getWord(d[4:])),
			seq:   getWord(d[8:]),
			dests: getWord(d[12:]),
			ck:    getWord(d[16:]),
		}
		if m.ck == 0 {
			continue // never written
		}
		if m.dests&(1<<uint(e.me)) == 0 {
			// Addressed elsewhere (or the mask is torn — then no ACK
			// reaches the sender and its retransmission repairs the
			// descriptor and re-bumps our post counter). Skipping
			// before any floor bookkeeping keeps this slot's history
			// entirely the business of its real receivers.
			continue
		}
		for _, q := range e.pending[s] {
			if q.seq == m.seq {
				continue scan // already detected, not yet consumed
			}
		}
		floor := e.slotSeq[s][b]
		if !seqLess(floor, m.seq) {
			if m.seq == floor && floor != 0 {
				// Re-acknowledge with our own record of what we
				// consumed, not the (possibly torn) descriptor. Sound
				// even if the slot meanwhile holds a newer message
				// whose descriptor packets were all lost: the ACK names
				// the old sequence, so the sender keeps retransmitting
				// the new occupant until this scan can accept it.
				e.nic.WriteWord(p, lay.ackSlot(s, e.me, b), floor)
				e.stats.ReAcks++
				e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "re-ack", trace.MsgID(s, floor), 0, "sender=%d slot=%d seq=%d", trace.Int(s), trace.Int(b), trace.Int(floor))
			}
			continue
		}
		if m.n < 0 || m.off < 0 || m.off+m.n > lay.dataSize {
			// Torn descriptor — some of its packets were lost in flight.
			e.stats.StaleDescs++
			e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "torn-desc", 0, 0, "sender=%d slot=%d seq=%d", trace.Int(s), trace.Int(b), trace.Int(m.seq))
			continue
		}
		m.prevFloor = floor
		e.slotSeq[s][b] = m.seq
		p.Delay(cfg.Costs.RecvBookkeeping)
		e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "detect", trace.MsgID(s, m.seq), 0, "sender=%d slot=%d len=%d seq=%d", trace.Int(s), trace.Int(b), trace.Int(m.n), trace.Int(m.seq))
		e.insertPending(s, m)
	}
}

// insertPending keeps pending[s] sorted by sequence so consumption is
// in-order even when several flags flip between two polls.
func (e *Endpoint) insertPending(s int, m message) {
	q := e.pending[s]
	i := len(q)
	for i > 0 && seqLess(m.seq, q[i-1].seq) {
		i--
	}
	q = append(q, message{})
	copy(q[i+1:], q[i:])
	q[i] = m
	e.pending[s] = q
}

// consume reads message m's payload from sender s's data partition into
// buf and toggles the ACK flag bit in s's control partition, completing
// the transfer. A message longer than buf is acknowledged all the same
// (the sender reclaims the slot) and reported as ErrTruncated; only the
// retry extension reads it, into scratch, to verify its checksum first.
func (e *Endpoint) consume(p *sim.Proc, s int, m message, buf []byte) (int, error) {
	lay, cfg := e.sys.lay, e.sys.cfg
	truncated := m.n > len(buf)
	if truncated && cfg.Retry.Enabled {
		buf = make([]byte, m.n)
	}
	// The drain span covers payload read + ACK write; its End is the
	// existing "consume" event, so the legacy detect→consume measurement
	// is unchanged. The message id is rebuilt from the descriptor —
	// causal joins to the sender's spans need nothing on the wire.
	msg := trace.MsgID(s, m.seq)
	span := e.sys.tracer.BeginSpan(p.Now(), trace.BBP, e.me, "drain", msg, 0, "sender=%d slot=%d len=%d", trace.Int(s), trace.Int(m.slot), trace.Int(m.n))
	e.im.recvSize.Observe(int64(m.n))
	if m.n > 0 && m.n <= len(buf) {
		src := lay.dataOff(s, m.off)
		t0 := p.Now()
		if m.n >= e.recvDMAThreshold() {
			e.nic.ReadDMA(p, src, buf[:m.n])
			e.observeDMARead(m.n, p.Now().Sub(t0))
		} else {
			e.nic.Read(p, src, buf[:m.n])
			e.observeWordReads(pci.WordsFor(m.n), p.Now().Sub(t0))
		}
	}
	if cfg.Retry.Enabled && descCheck(m.off, m.n, m.seq, m.dests, buf[:m.n]) != m.ck {
		// Part of the descriptor or payload was dropped in flight — and
		// what this message struct holds may itself be a torn snapshot.
		// Roll the detection back (slot floor, plus a forced rescan
		// since the post counter has not moved) so the next poll
		// re-reads the descriptor after the sender's retransmission has
		// rewritten buffer and descriptor. No ACK is written, so the
		// sender keeps retrying.
		e.slotSeq[s][m.slot] = m.prevFloor
		e.rescan[s] = true
		e.stats.ChecksumDrops++
		e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "ck-drop", msg, span, "sender=%d slot=%d seq=%d", trace.Int(s), trace.Int(m.slot), trace.Int(m.seq))
		e.sys.tracer.EndSpan(p.Now(), trace.BBP, e.me, "drain-abort", span, msg, "checksum")
		return 0, errChecksum
	}
	if cfg.Retry.Enabled {
		e.lastDeliv[s] = m.seq
	}
	// ACK toggle: this word in s's control partition is written only by
	// this process, preserving the single-writer discipline.
	pm, pp := e.nic.SetTraceContext(msg, span)
	e.ackWrite(p, s, m)
	e.nic.SetTraceContext(pm, pp)
	e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "ack", msg, span, "sender=%d slot=%d", trace.Int(s), trace.Int(m.slot))
	if truncated {
		e.sys.tracer.EndSpan(p.Now(), trace.BBP, e.me, "drain-abort", span, msg, "truncated")
		return 0, ErrTruncated
	}
	e.sys.tracer.EndSpan(p.Now(), trace.BBP, e.me, "consume", span, msg, "sender=%d slot=%d len=%d", trace.Int(s), trace.Int(m.slot), trace.Int(m.n))
	e.stats.Received++
	e.stats.BytesRecv += int64(m.n)
	return m.n, nil
}

// ackWrite acknowledges m to sender s. The base protocol flips the ACK
// toggle bit for the buffer slot. The retry extension instead writes
// the consumed sequence into the slot's own ACK word. Toggle parity is
// ambiguous once writes can be lost (a stale ACK replica can coincide
// with a reused slot's fresh toggle and falsely acknowledge an
// unconsumed buffer), and a single sequence-valued word per pair is no
// better — acknowledging seq N would falsely cover an undelivered
// earlier message whose writes were all lost, since a sequence gap is
// invisible to the receiver. Per slot, sequences are strictly
// increasing and gap-free in occupancy order, so "consumed seq X from
// slot b" can only ever under-report; a lost ACK write is healed by
// the re-ack path in scanSender.
func (e *Endpoint) ackWrite(p *sim.Proc, s int, m message) {
	if e.sys.cfg.Retry.Enabled {
		e.nic.WriteWord(p, e.sys.lay.ackSlot(s, e.me, m.slot), m.seq)
		return
	}
	e.ackOut[s] ^= 1 << uint(m.slot)
	e.nic.WriteWord(p, e.sys.lay.ackFlags(s, e.me), e.ackOut[s])
}

// popPending removes the lowest-sequence pending message from s,
// shifting the queue down in place so its backing array is reused. Under
// the retry extension a message whose sequence gaps past the last
// delivery is held back while the sender's MIN-UNACKED word is below
// it: an earlier message addressed to us may still be in repair, and
// delivering past it would break per-stream FIFO. A contiguous
// sequence (lastDeliv+1) needs no gate — there is no room for a
// missing earlier message. The word is monotone, so a stale replica
// can only delay delivery; the retry daemon rewrites it every pass, so
// the gate always opens once the gap is consumed by us or abandoned by
// the sender.
func (e *Endpoint) popPending(s int) (message, bool) {
	if !e.deliverable(s) {
		return message{}, false
	}
	q := e.pending[s]
	m := q[0]
	copy(q, q[1:])
	e.pending[s] = q[:len(q)-1]
	return m, true
}

// deliverable reports whether popPending(s) would return a message.
func (e *Endpoint) deliverable(s int) bool {
	q := e.pending[s]
	if len(q) == 0 {
		return false
	}
	return !e.sys.cfg.Retry.Enabled ||
		q[0].seq == e.lastDeliv[s]+1 || !seqLess(e.minUnIn[s], q[0].seq)
}

// Recv blocks until the next in-order message from src arrives, copies
// it into buf, acknowledges it, and returns its length (bbp_Recv). It
// waits in passes of src alone.
func (e *Endpoint) Recv(p *sim.Proc, src int, buf []byte) (int, error) {
	if src == e.me || src < 0 || src >= e.Procs() {
		return 0, ErrBadRank
	}
	deadline := e.deadline(p)
	for {
		// A checksum failure rolls the detection back and polls on:
		// every pass advances virtual time, so the retry daemon's
		// rewrite will land.
		if msg, ok, _, err := e.take(p, src, buf, nil); ok || err != nil {
			return len(msg), err
		}
		e.pass(p, src, e.sys.cfg.InterruptDriven, deadline)
		if deadline >= 0 && p.Now() > deadline {
			return 0, ErrTimeout
		}
		if len(e.pending[src]) == 0 {
			e.sleep(p, deadline)
		}
	}
}

// deadline is the end of a blocking wait that starts now, under
// RecvTimeout, or -1 for none.
func (e *Endpoint) deadline(p *sim.Proc) sim.Time {
	if e.sys.cfg.RecvTimeout > 0 {
		return p.Now().Add(e.sys.cfg.RecvTimeout)
	}
	return -1
}

// sleep parks an interrupt-driven receive until the next MESSAGE-flag
// interrupt or its deadline; any other receive polls on at once.
func (e *Endpoint) sleep(p *sim.Proc, deadline sim.Time) {
	switch {
	case !e.sys.cfg.InterruptDriven:
	case deadline >= 0:
		e.intrWake.WaitTimeout(p, deadline.Sub(p.Now()))
	default:
		e.intrWake.Wait(p)
	}
}

// TryRecv is Recv without blocking: it performs one poll and reports
// ok=false if no message from src is ready.
func (e *Endpoint) TryRecv(p *sim.Proc, src int, buf []byte) (n int, ok bool, err error) {
	msg, ok, err := e.tryRecv(p, src, buf, nil)
	return len(msg), ok, err
}

// TryTake is TryRecv into a buffer from bufs sized to the message
// (xport.Taker).
func (e *Endpoint) TryTake(p *sim.Proc, src int, bufs *xport.Buffers) ([]byte, bool, error) {
	return e.tryRecv(p, src, nil, bufs)
}

// tryRecv is the body of TryRecv and TryTake: the next deliverable
// message from src, polled for once through a poller of its own if
// none is.
func (e *Endpoint) tryRecv(p *sim.Proc, src int, buf []byte, bufs *xport.Buffers) ([]byte, bool, error) {
	if src == e.me || src < 0 || src >= e.Procs() {
		return nil, false, ErrBadRank
	}
	if msg, ok, found, err := e.take(p, src, buf, bufs); found {
		return msg, ok, err
	}
	e.pollFrom(p, src)
	msg, ok, _, err := e.take(p, src, buf, bufs)
	return msg, ok, err
}

// take consumes the next deliverable message from src, if there is one
// (found). The message lands in buf or, when bufs is not nil, in
// bufs.Get of its length, taken between the pop and the payload read;
// that buffer goes back to bufs if the consume fails. A checksum failure
// is not ok and no error: the detection is rolled back, and a later poll
// finds the message again.
func (e *Endpoint) take(p *sim.Proc, src int, buf []byte, bufs *xport.Buffers) (msg []byte, ok, found bool, err error) {
	m, found := e.popPending(src)
	if !found {
		return nil, false, false, nil
	}
	if bufs != nil {
		buf = bufs.Get(m.n)
	}
	n, err := e.consume(p, src, m, buf)
	if err == nil {
		return buf[:n], true, true, nil
	}
	if bufs != nil {
		bufs.Put(buf)
	}
	if err == errChecksum {
		err = nil
	}
	return nil, false, true, err
}

// Sweep is xport.LoopSweep over TryRecv (xport.Sweeper). It runs on an
// xport.Poller over the endpoint's own probe step, so the process runs
// only for a poll that changes what it would do.
func (e *Endpoint) Sweep(p *sim.Proc, from int, buf []byte, stop func() bool) (src, n int, err error) {
	w := e.sweepers.Get()
	defer e.sweepers.Put(w)
	w.Start(p, 0, e.Procs(), from, stop, -1)
	for {
		if src, _ = w.Wait(); src < 0 {
			return -1, 0, nil
		}
		msg, ok, err := w.Step(0).(*probe).take(p, src, buf, nil)
		if ok || err != nil {
			return src, len(msg), err
		}
		w.Next()
	}
}

// RecvAny blocks for the next message from any sender (round-robin fair
// across senders), returning the source and length. It waits in passes
// over every sender.
func (e *Endpoint) RecvAny(p *sim.Proc, buf []byte) (src, n int, err error) {
	deadline := e.deadline(p)
	for {
		for i := 0; i < e.Procs(); i++ {
			s := (e.rrNext + i) % e.Procs()
			if s == e.me {
				continue
			}
			// A checksum failure is rolled back and re-detected by a
			// later poll.
			if msg, ok, _, err := e.take(p, s, buf, nil); ok || err != nil {
				e.rrNext = (s + 1) % e.Procs()
				return s, len(msg), err
			}
		}
		e.pass(p, -1, e.sys.cfg.InterruptDriven, deadline)
		if deadline >= 0 && p.Now() > deadline {
			return 0, 0, ErrTimeout
		}
		if !e.anyPending() {
			e.sleep(p, deadline)
		}
	}
}

// MsgAvail polls every sender once and reports whether any message is
// waiting (bbp_MsgAvail).
func (e *Endpoint) MsgAvail(p *sim.Proc) bool {
	e.pass(p, -1, true, -1)
	return e.anyPending()
}

// MsgAvailFrom polls a single sender and reports whether a message from
// it is waiting.
func (e *Endpoint) MsgAvailFrom(p *sim.Proc, src int) bool {
	if src == e.me || src < 0 || src >= e.Procs() {
		return false
	}
	e.pollFrom(p, src)
	return len(e.pending[src]) > 0
}

func (e *Endpoint) anyPending() bool {
	for _, q := range e.pending {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

var (
	_ xport.Taker   = (*Endpoint)(nil)
	_ xport.Sweeper = (*Endpoint)(nil)
	_ xport.Prober  = (*Endpoint)(nil)
)
