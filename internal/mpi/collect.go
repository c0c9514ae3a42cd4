package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/liveness"
	"repro/internal/sim"
)

// Collective fast-path message ops.
const (
	opBcast          = 1
	opBarrierArrive  = 2
	opBarrierRelease = 3
)

const collHdrBytes = 4

func collHdr(op byte, seq uint16) []byte {
	return []byte{collMagic, op, byte(seq), byte(seq >> 8)}
}

// parseColl is the inverse of collHdr: it reports whether msg is a
// multicast fast-path message (the magic byte and a whole header) and
// splits it into op, sequence and payload. It is the one rule every
// receive path uses to tell these messages from envelopes.
func parseColl(msg []byte) (op byte, seq uint16, payload []byte, ok bool) {
	if len(msg) < collHdrBytes || msg[0] != collMagic {
		return 0, 0, nil, false
	}
	return msg[1], uint16(msg[2]) | uint16(msg[3])<<8, msg[collHdrBytes:], true
}

// recvColl receives the next multicast fast-path message with the given
// op and sequence from src, steering any interleaved point-to-point
// envelopes through the normal engine path. Returns the payload length
// copied into out. The collective spans ranks [0, size): with a
// liveness view, the wait is abandoned with a DeadPeerError as soon as
// any member is confirmed dead (a collective with a dead participant
// can never complete), which bounds a mid-collective node death by the
// detector's confirmation window.
func (e *Engine) recvColl(p *sim.Proc, src, size int, op byte, seq uint16, out []byte) (int, error) {
	// accept consumes msg if it is a fast-path message, returning its
	// payload length; ok is false for an envelope.
	accept := func(msg []byte) (int, bool) {
		gotOp, gotSeq, payload, ok := parseColl(msg)
		if !ok {
			return 0, false
		}
		if gotOp != op || gotSeq != seq {
			panic(fmt.Sprintf("mpi: collective out of step: got op=%d seq=%d want op=%d seq=%d", gotOp, gotSeq, op, seq))
		}
		p.Delay(sim.Duration(len(payload)) * e.cfg.Costs.CopyPerByte)
		copy(out, payload)
		return len(payload), true
	}
	// A rank running ahead may have parked this message in the engine's
	// collective queue during general progress (handleRaw queues only
	// what parseColl accepts).
	if q := e.collQ[src]; len(q) > 0 {
		msg := q[0]
		e.collQ[src] = q[1:]
		n, _ := accept(msg)
		return n, nil
	}
	if e.live == nil {
		// No detector: the transport's own blocking receive (and its
		// RecvTimeout) is the only bound, exactly as before.
		for {
			n, err := e.ep.Recv(p, src, e.scratch)
			if err != nil {
				panic(fmt.Sprintf("mpi: collective recv from %d: %v", src, err))
			}
			if got, ok := accept(e.scratch[:n]); ok {
				return got, nil
			}
			// A point-to-point envelope overtook the collective on this
			// stream: process it and keep waiting.
			e.handleRaw(p, src, append([]byte(nil), e.scratch[:n]...))
		}
	}
	// Liveness-aware wait: poll the stream one probe at a time (the same
	// per-iteration poll costs the blocking receive pays internally) so
	// the membership view is consulted between probes.
	deadline := sim.Time(-1)
	if e.cfg.WaitTimeout > 0 {
		deadline = p.Now().Add(e.cfg.WaitTimeout)
	}
	for {
		if part, ok := e.partition(); ok {
			if part.Minority || unreachableIn(part, size) {
				return 0, e.partitionErr(part)
			}
		}
		if w := e.deadIn(size); w >= 0 {
			return 0, &DeadPeerError{Rank: w}
		}
		n, ok, err := e.ep.TryRecv(p, src, e.scratch)
		if err != nil {
			panic(fmt.Sprintf("mpi: collective recv from %d: %v", src, err))
		}
		if !ok {
			if deadline >= 0 && p.Now() > deadline {
				return 0, ErrTimeout
			}
			continue
		}
		if got, ok := accept(e.scratch[:n]); ok {
			return got, nil
		}
		e.handleRaw(p, src, append([]byte(nil), e.scratch[:n]...))
	}
}

// others returns every rank except `not`.
func (c *Comm) others(not int) []int {
	var out []int
	for r := 0; r < c.Size(); r++ {
		if r != not {
			out = append(out, r)
		}
	}
	return out
}

// bcastMcast is the paper's MPI_Bcast over bbp_Mcast: the root posts
// each chunk once and every receiver reads it from the root's data
// partition — a single-step broadcast. It is not synchronizing: the
// root does not wait for receivers (§4).
func (c *Comm) bcastMcast(p *sim.Proc, root int, buf []byte) error {
	seq := uint16(c.seq)
	c.seq++
	e := c.eng
	chunk := e.cfg.CollChunk
	nchunks := (len(buf) + chunk - 1) / chunk
	if nchunks == 0 {
		nchunks = 1
	}
	if c.rank == root {
		p.Delay(e.cfg.Costs.CollOverhead)
		dsts := c.others(root)
		for i := 0; i < nchunks; i++ {
			lo := i * chunk
			hi := minInt(lo+chunk, len(buf))
			msg := append(collHdr(opBcast, seq), buf[lo:hi]...)
			p.Delay(e.cfg.Costs.PerChunk)
			if err := e.ep.Mcast(p, dsts, msg); err != nil {
				return err
			}
		}
		return nil
	}
	p.Delay(e.cfg.Costs.CollOverhead)
	off := 0
	for i := 0; i < nchunks; i++ {
		n, err := e.recvColl(p, root, c.Size(), opBcast, seq, buf[off:])
		if err != nil {
			return err
		}
		off += n
	}
	if off != len(buf) {
		return fmt.Errorf("%w: broadcast delivered %d of %d bytes", ErrProtocol, off, len(buf))
	}
	return nil
}

// barrierMcast is the paper's MPI_Barrier: rank 0 coordinates, waiting
// for a null message from every other process and then releasing them
// all with one bbp_Mcast (§4).
func (c *Comm) barrierMcast(p *sim.Proc) error {
	seq := uint16(c.seq)
	c.seq++
	e := c.eng
	p.Delay(e.cfg.Costs.CollOverhead)
	if c.rank == 0 {
		for r := 1; r < c.Size(); r++ {
			if _, err := e.recvColl(p, r, c.Size(), opBarrierArrive, seq, nil); err != nil {
				return err
			}
		}
		return e.ep.Mcast(p, c.others(0), collHdr(opBarrierRelease, seq))
	}
	if err := e.ep.Send(p, 0, collHdr(opBarrierArrive, seq)); err != nil {
		return err
	}
	_, err := e.recvColl(p, 0, c.Size(), opBarrierRelease, seq, nil)
	return err
}

// Op combines an incoming contribution into an accumulator, in place.
type Op func(acc, in []byte)

// SumF64 adds float64 vectors.
func SumF64(acc, in []byte) {
	for i := 0; i+8 <= len(acc) && i+8 <= len(in); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(in[i:]))
		binary.LittleEndian.PutUint64(acc[i:], math.Float64bits(a+b))
	}
}

// MaxF64 takes the elementwise maximum of float64 vectors.
func MaxF64(acc, in []byte) {
	for i := 0; i+8 <= len(acc) && i+8 <= len(in); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(in[i:]))
		if b > a {
			binary.LittleEndian.PutUint64(acc[i:], math.Float64bits(b))
		}
	}
}

// Reduce combines sendBuf from every rank with op (assumed commutative
// and associative) into recvBuf at root, via the binomial gather over
// the whole group rotated from root.
func (c *Comm) Reduce(p *sim.Proc, root int, op Op, sendBuf, recvBuf []byte) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	acc := append([]byte(nil), sendBuf...)
	if err := c.gather(p, c.rotated(c.members(liveness.PartitionInfo{}), root), tagReduce, op, acc); err != nil {
		return err
	}
	if c.rank == root {
		copy(recvBuf, acc)
	}
	return nil
}
