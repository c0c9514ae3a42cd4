package core

import (
	"repro/internal/liveness"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/trace"
)

// This file implements the streaming-allreduce fast path over the
// in-network handler engine (DESIGN.md §13, PROTOCOL.md "In-network
// handler extension"). Rank 0 initiates every round; the reduction is
// computed *on the ring* by the spin.Reducer each endpoint installs at
// its transit point, so one revolution of the vector replaces the
// software tree's log(P) store-and-forward stages.
//
// A round, in ring write order (per-origin FIFO makes each sequence
// arrive everywhere in order):
//
//  1. Every rank writes its vector into its own contribution area,
//     then its arrival word = round. The contribution is staged before
//     the arrival word announces it, so a transit node whose arrival
//     has been seen is guaranteed to combine current-round lanes.
//  2. Rank 0 polls the arrival words from its local replica (one burst
//     read). If the failure detector reports a missing rank Suspect or
//     Dead, rank 0 publishes a fallback verdict instead of starting
//     the reduction — rank 0 alone decides, so every rank degrades to
//     the same software tree on the same round.
//  3. Rank 0 writes the header word (operator + vector length, arming
//     every transit Reducer), the vector seeded with its own
//     contribution, and the combining-counter word — count 1 for its
//     own contribution and the round tag in the high byte
//     (spin.CounterWord). Each transit combines its staged lanes into
//     the circulating packets (Rewrite) and increments the counter only
//     if it combined every byte of the round; the origin's strip-apply
//     lands the fully combined vector and counter back in rank 0's
//     replica. The count accumulates *inside the NIC* at each hop — no
//     per-rank bit assignment, so one word covers the full 256-node
//     ring.
//  4. Rank 0 polls its local counter word for count == Procs *and* the
//     current round's tag. The tag is load-bearing: rank 0's own seed
//     write lands in its bank immediately, but strip-applies arrive
//     arbitrarily late under transit-link queueing — a full counter
//     from an earlier round rank 0 already abandoned could otherwise
//     strip into the bank mid-poll and satisfy a later round whose
//     combines never ran. Full count with the right tag — publish the
//     result (conventional replicated write) and the done word. A short
//     count past the drain horizon means a vector packet was dropped at
//     injection or a node died mid-transit: publish a fallback verdict
//     instead. Either way non-roots learn the round's outcome from the
//     done word alone.
//
// The contribution, arrival, and control words keep the single-writer
// discipline: contrib(i)/arrival(i) are written only by rank i, the
// control block only by rank 0. The vector scratch region intentionally
// diverges across replicas mid-round (each transit's bank holds the
// partial combined up to itself); no rank ever reads another's scratch
// — the result region is the published truth.

// streamState is the per-endpoint streaming-allreduce state.
type streamState struct {
	reducer *spin.Reducer
	round   uint32
	arrBuf  []uint32
}

// initStream installs this endpoint's transit Reducer over the
// contiguous header+counter+vector block of the stream region. Each
// transit that combined the full round increments the counter word's
// low 24 bits (the high byte is the round tag), so the scheme is
// rank-count-agnostic up to the ring's own address limit.
func (e *Endpoint) initStream() {
	lay := e.sys.lay
	e.stream.arrBuf = make([]uint32, e.Procs())
	e.stream.reducer = &spin.Reducer{
		HdrOff:     lay.strHdr(),
		VecOff:     lay.strVec(),
		CtrOff:     lay.strCtr(),
		MaxBytes:   lay.strMax,
		ContribOff: lay.strContrib(e.me),
	}
	e.nic.InstallHandler(lay.strHdr(), 8+lay.strMax, e.stream.reducer)
}

// StreamMax returns the largest vector StreamAllreduce can carry on the
// fast path (0 when Config.Stream is disabled). Part of
// xport.StreamReducer.
func (e *Endpoint) StreamMax() int {
	if !e.sys.cfg.Stream.Enabled {
		return 0
	}
	return e.sys.lay.strMax
}

// StreamAllreduce runs one in-network allreduce round over 32-bit
// lanes. Every process must call it collectively with the same op and
// length. done=false with a nil error means the fast path declined or
// degraded — the caller must run its software fallback (every rank
// reports the same verdict for the same round, so the fallback is
// collective too). done=true means recv holds the reduction of every
// rank's send. Part of xport.StreamReducer.
func (e *Endpoint) StreamAllreduce(p *sim.Proc, op spin.RingOp, send, recv []byte) (bool, error) {
	lay, cfg := e.sys.lay, e.sys.cfg
	n := len(send)
	// For a well-formed collective call (every rank passing the same op
	// and equally sized buffers) these gates are rank-uniform, so either
	// every rank proceeds (and the round counters stay in step) or every
	// rank declines. The recv-length gate is the one a buggy caller can
	// break per-rank; a lone decliner then simply never announces
	// arrival, rank 0's arrival wait expires, and the whole collective
	// degrades to the software tree rather than hanging or splitting.
	if !cfg.Stream.Enabled || !op.Valid() || n == 0 || n%4 != 0 || n > lay.strMax || len(recv) < n {
		return false, nil
	}
	e.stream.round++
	r := e.stream.round
	e.stats.StreamRounds++
	span := e.sys.tracer.BeginSpan(p.Now(), trace.BBP, e.me, "stream-allreduce", 0, 0, "round=%d op=%s len=%d", trace.Int(r), trace.Str(op.String()), trace.Int(n))
	fast, err := e.streamRound(p, op, send, recv[:n], r)
	if !fast {
		e.stats.StreamFallbacks++
	}
	e.sys.tracer.EndSpan(p.Now(), trace.BBP, e.me, "stream-allreduce-end", span, 0, "round=%d fast=%s err=%s", trace.Int(r), trace.Bool(fast), trace.Err(err))
	return fast, err
}

func (e *Endpoint) streamRound(p *sim.Proc, op spin.RingOp, send, recv []byte, r uint32) (bool, error) {
	lay := e.sys.lay
	if e.me != 0 {
		// Stage the contribution, then announce it; per-origin FIFO
		// guarantees every transit node's bank holds the contribution
		// by the time the arrival word is visible there.
		e.nic.Write(p, lay.strContrib(e.me), send)
		e.nic.WriteWord(p, lay.strArrival(e.me), r)
		return e.streamLeaf(p, recv, r)
	}
	// Rank 0 contributes by seeding the circulating vector directly, so
	// it announces arrival without staging.
	e.nic.WriteWord(p, lay.strArrival(0), r)
	return e.streamRoot(p, op, send, recv, r)
}

// streamRoot is rank 0's side of a round: gather arrivals, decide,
// drive the reduction, publish the verdict.
func (e *Endpoint) streamRoot(p *sim.Proc, op spin.RingOp, send, recv []byte, r uint32) (bool, error) {
	lay, cfg := e.sys.lay, e.sys.cfg
	n := len(send)
	w := e.waiter(p, e.deadline(p))
	defer e.release(w)
	arr := e.stream.arrBuf
	w.watchWords(lay.strArrival(0), arr, arrivalSettled)
	if all, dead := e.arrivals(arr, r); !all {
		if dead >= 0 {
			return e.streamAbort(p, r, "rank %d not alive", trace.Int(dead))
		}
		// A rank is unresponsive but not (yet) suspect: the wait timed
		// out. Publish the fallback verdict and decline like the leaves
		// do, so the collective exits symmetrically: every rank runs the
		// same software tree, and the tree is what surfaces a genuinely
		// dead or missing rank as its own error.
		return e.streamAbort(p, r, "arrival wait timed out")
	}

	// Header arms every transit Reducer; the vector is seeded with our
	// own contribution; the counter carries count 1 for that seed plus
	// the round tag. FIFO order guarantees each transit sees them in
	// this order.
	e.nic.WriteWord(p, lay.strHdr(), spin.HdrWord(op, n))
	e.nic.Write(p, lay.strVec(), send)
	e.nic.WriteWord(p, lay.strCtr(), spin.CounterWord(r, 1))

	// One revolution later our own strip-apply lands the combined
	// vector and counter in the local replica. The poll requires this
	// round's tag alongside the full count: a late strip from an
	// abandoned earlier round carries that round's tag and cannot
	// satisfy it (see the file comment). A mismatch past the drain
	// horizon (plus worst-case handler stalls at every transit) means a
	// vector packet was dropped at injection or a node died mid-round.
	want := spin.CounterWord(r, uint32(e.Procs()))
	ncfg := e.nic.NetworkConfig()
	maskBy := e.nic.DrainBound().
		Add(sim.Duration(ncfg.Nodes) * sim.Duration(ncfg.HandlerBudget) * ncfg.HandlerCycleCost)
	w.deadline = maskBy
	if m := w.watchWord(lay.strCtr(), counterSettled); m != want {
		return e.streamAbort(p, r, "counter %#x != %#x past drain bound", trace.Int(m), trace.Int(want))
	}

	// Publish: the combined vector is read from the local replica and
	// replicated conventionally through the result region, then the
	// done word releases every non-root.
	if n >= e.recvDMAThreshold() {
		e.nic.ReadDMA(p, lay.strVec(), recv)
	} else {
		e.nic.Read(p, lay.strVec(), recv)
	}
	if n >= cfg.Thresholds.SendDMA {
		e.nic.WriteDMA(p, lay.strResult(), recv)
	} else {
		e.nic.Write(p, lay.strResult(), recv)
	}
	e.nic.WriteWord(p, lay.strDone(), r<<1)
	return true, nil
}

// streamAbort publishes a fallback verdict for round r: every non-root
// reads it from the done word and degrades to the same software tree.
func (e *Endpoint) streamAbort(p *sim.Proc, r uint32, format string, args ...trace.Arg) (bool, error) {
	e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "stream-fallback", 0, 0, format, args...)
	e.nic.WriteWord(p, e.sys.lay.strDone(), r<<1|1)
	return false, nil
}

// streamLeaf is a non-root's side of a round: wait for rank 0's done
// word, then either read the published result or report the fallback.
func (e *Endpoint) streamLeaf(p *sim.Proc, recv []byte, r uint32) (bool, error) {
	lay := e.sys.lay
	w := e.waiter(p, e.deadline(p))
	defer e.release(w)
	if d := w.watchWord(lay.strDone(), doneSettled); d>>1 == r {
		if d&1 != 0 {
			return false, nil
		}
		if len(recv) >= e.recvDMAThreshold() {
			e.nic.ReadDMA(p, lay.strResult(), recv)
		} else {
			e.nic.Read(p, lay.strResult(), recv)
		}
		return true, nil
	}
	if e.initiatorDead() {
		// The initiator died before publishing a verdict. Degrade; the
		// software tree then surfaces the death as its own error.
		e.sys.tracer.Emit(p.Now(), trace.BBP, e.me, "stream-fallback", 0, 0, "initiator confirmed dead")
		return false, nil
	}
	return false, ErrTimeout
}

// The stream waits poll as kernel events (poll.go): a read, then
// PollOverhead before the next, until one of these settle rules sees
// the outcome. Each rule is the wait's exit test, which the process
// applies again once it resumes.

// arrivals classifies one sample of the arrival words for round r:
// whether every rank has arrived and, if not, the first missing rank
// the failure detector no longer reports alive (-1 for none).
func (e *Endpoint) arrivals(arr []uint32, r uint32) (all bool, dead int) {
	all = true
	v := e.Liveness()
	for i := range arr {
		if arr[i] == r {
			continue
		}
		all = false
		if v != nil && v.State(i) != liveness.Alive {
			return false, i
		}
	}
	return all, -1
}

// arrivalSettled ends rank 0's arrival wait: every rank arrived, a
// missing rank is not alive, or the wait timed out.
func arrivalSettled(w *poller) bool {
	all, dead := w.e.arrivals(w.dst, w.e.stream.round)
	return all || dead >= 0 || w.pastDeadline()
}

// counterSettled ends rank 0's counter wait: the full count with this
// round's tag, or the drain bound passed.
func counterSettled(w *poller) bool {
	e := w.e
	return w.vals[0] == spin.CounterWord(e.stream.round, uint32(e.Procs())) || w.pastDeadline()
}

// doneSettled ends a non-root's wait for the done word: rank 0's
// verdict for this round, rank 0 confirmed dead, or the wait timed out.
func doneSettled(w *poller) bool {
	return w.vals[0]>>1 == w.e.stream.round || w.e.initiatorDead() || w.pastDeadline()
}

// initiatorDead reports whether the failure detector has confirmed rank
// 0, the initiator of every round, dead.
func (e *Endpoint) initiatorDead() bool {
	v := e.Liveness()
	return v != nil && v.State(0) == liveness.Dead
}
