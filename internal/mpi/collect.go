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

// recvColl receives the next multicast fast-path message with the given
// op and sequence from srcWorld, steering any interleaved point-to-point
// envelopes through the normal engine path. Returns the payload length
// copied into out. group is the collective's world-rank membership:
// with a liveness view, the wait is abandoned with a DeadPeerError as
// soon as any member is confirmed dead (a collective with a dead
// participant can never complete), which bounds a mid-collective node
// death by the detector's confirmation window.
func (e *Engine) recvColl(p *sim.Proc, srcWorld int, group []int, op byte, seq uint16, out []byte) (int, error) {
	accept := func(msg []byte) int {
		gotOp := msg[1]
		gotSeq := uint16(msg[2]) | uint16(msg[3])<<8
		if gotOp != op || gotSeq != seq {
			panic(fmt.Sprintf("mpi: collective out of step: got op=%d seq=%d want op=%d seq=%d", gotOp, gotSeq, op, seq))
		}
		payload := len(msg) - collHdrBytes
		p.Delay(sim.Duration(payload) * e.cfg.Costs.CopyPerByte)
		copy(out, msg[collHdrBytes:])
		return payload
	}
	// A rank running ahead may have parked this message in the engine's
	// collective queue during general progress.
	if q := e.collQ[srcWorld]; len(q) > 0 {
		msg := q[0]
		e.collQ[srcWorld] = q[1:]
		return accept(msg), nil
	}
	if e.live == nil {
		// No detector: the transport's own blocking receive (and its
		// RecvTimeout) is the only bound, exactly as before.
		for {
			n, err := e.ep.Recv(p, srcWorld, e.scratch)
			if err != nil {
				panic(fmt.Sprintf("mpi: collective recv from %d: %v", srcWorld, err))
			}
			if n >= collHdrBytes && e.scratch[0] == collMagic {
				return accept(e.scratch[:n]), nil
			}
			// A point-to-point envelope overtook the collective on this
			// stream: process it and keep waiting.
			e.handleRaw(p, srcWorld, append([]byte(nil), e.scratch[:n]...))
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
			if part.Minority {
				return 0, e.partitionErr(part)
			}
			for _, w := range group {
				if part.Unreachable(w) {
					return 0, e.partitionErr(part)
				}
			}
		}
		if w := e.deadIn(group); w >= 0 {
			return 0, &DeadPeerError{Rank: w}
		}
		n, ok, err := e.ep.TryRecv(p, srcWorld, e.scratch)
		if err != nil {
			panic(fmt.Sprintf("mpi: collective recv from %d: %v", srcWorld, err))
		}
		if !ok {
			if deadline >= 0 && p.Now() > deadline {
				return 0, ErrTimeout
			}
			continue
		}
		if n >= collHdrBytes && e.scratch[0] == collMagic {
			return accept(e.scratch[:n]), nil
		}
		e.handleRaw(p, srcWorld, append([]byte(nil), e.scratch[:n]...))
	}
}

// othersWorld returns the group's world ranks except comm rank `not`.
func (c *Comm) othersWorld(not int) []int {
	var out []int
	for r, w := range c.group {
		if r != not {
			out = append(out, w)
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
		dsts := c.othersWorld(root)
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
	rootWorld := c.group[root]
	off := 0
	for i := 0; i < nchunks; i++ {
		n, err := e.recvColl(p, rootWorld, c.group, opBcast, seq, buf[off:])
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
			if _, err := e.recvColl(p, c.group[r], c.group, opBarrierArrive, seq, nil); err != nil {
				return err
			}
		}
		return e.ep.Mcast(p, c.othersWorld(0), collHdr(opBarrierRelease, seq))
	}
	if err := e.ep.Send(p, c.group[0], collHdr(opBarrierArrive, seq)); err != nil {
		return err
	}
	_, err := e.recvColl(p, c.group[0], c.group, opBarrierRelease, seq, nil)
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

// SumI64 adds int64 vectors.
func SumI64(acc, in []byte) {
	for i := 0; i+8 <= len(acc) && i+8 <= len(in); i += 8 {
		a := int64(binary.LittleEndian.Uint64(acc[i:]))
		b := int64(binary.LittleEndian.Uint64(in[i:]))
		binary.LittleEndian.PutUint64(acc[i:], uint64(a+b))
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
	if err := c.gather(p, rotated(c.members(liveness.PartitionInfo{}), root), tagReduce, op, acc); err != nil {
		return err
	}
	if c.rank == root {
		copy(recvBuf, acc)
	}
	return nil
}

// Gather concatenates equal-size contributions at root:
// recvAll[r*len(send)] holds rank r's send buffer. recvAll may be nil on
// non-root ranks.
func (c *Comm) Gather(p *sim.Proc, root int, send, recvAll []byte) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	if c.rank != root {
		return c.Send(p, root, tagGather, send)
	}
	n := len(send)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			copy(recvAll[r*n:], send)
			continue
		}
		if _, err := c.Recv(p, r, tagGather, recvAll[r*n:(r+1)*n]); err != nil {
			return err
		}
	}
	return nil
}

// Scatter distributes equal slices of sendAll from root; each rank
// receives its slice into recv. sendAll may be nil on non-root ranks.
func (c *Comm) Scatter(p *sim.Proc, root int, sendAll, recv []byte) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	n := len(recv)
	if c.rank == root {
		for r := 0; r < c.Size(); r++ {
			if r == root {
				copy(recv, sendAll[r*n:(r+1)*n])
				continue
			}
			if err := c.Send(p, r, tagScatter, sendAll[r*n:(r+1)*n]); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := c.Recv(p, root, tagScatter, recv)
	return err
}

// Allgather gathers equal-size contributions everywhere.
func (c *Comm) Allgather(p *sim.Proc, send, recvAll []byte) error {
	return c.allgatherTag(p, tagGatherA, send, recvAll)
}

// allgatherTag implements Allgather with nonblocking sends to every peer
// and per-peer receives, under the given tag (Split uses a private tag).
func (c *Comm) allgatherTag(p *sim.Proc, tag int, send, recvAll []byte) error {
	n := len(send)
	copy(recvAll[c.rank*n:], send)
	var reqs []*Request
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		req, err := c.isend(p, r, tag, send)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		if _, err := c.Recv(p, r, tag, recvAll[r*n:(r+1)*n]); err != nil {
			return err
		}
	}
	return c.Waitall(p, reqs)
}

// Scan computes the inclusive prefix reduction: rank r's recvBuf holds
// send(0) op send(1) op ... op send(r), via a linear pipeline.
func (c *Comm) Scan(p *sim.Proc, op Op, sendBuf, recvBuf []byte) error {
	acc := recvBuf[:len(sendBuf)]
	copy(acc, sendBuf)
	if c.rank > 0 {
		partial := make([]byte, len(sendBuf))
		if _, err := c.Recv(p, c.rank-1, tagScan, partial); err != nil {
			return err
		}
		p.Delay(sim.Duration(len(partial)) * c.eng.cfg.Costs.CopyPerByte)
		// acc = partial op send: combine into a copy of the upstream
		// prefix so non-commutative ops keep rank order.
		tmp := append([]byte(nil), partial...)
		op(tmp, sendBuf)
		copy(acc, tmp)
	}
	if c.rank < c.Size()-1 {
		return c.Send(p, c.rank+1, tagScan, acc)
	}
	return nil
}

// Gatherv gathers variable-size contributions at root: recvs[r] (sized
// by the caller) receives rank r's send buffer. recvs is only read at
// the root.
func (c *Comm) Gatherv(p *sim.Proc, root int, send []byte, recvs [][]byte) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	if c.rank != root {
		return c.Send(p, root, tagGather, send)
	}
	if len(recvs) != c.Size() {
		return fmt.Errorf("%w: Gatherv needs one receive buffer per rank", ErrProtocol)
	}
	for r := 0; r < c.Size(); r++ {
		if r == root {
			copy(recvs[r], send)
			continue
		}
		if _, err := c.Recv(p, r, tagGather, recvs[r]); err != nil {
			return err
		}
	}
	return nil
}

// Scatterv distributes variable-size slices from root: rank r receives
// sends[r] into recv and returns its length. sends is only read at the
// root.
func (c *Comm) Scatterv(p *sim.Proc, root int, sends [][]byte, recv []byte) (int, error) {
	if err := c.checkRank(root); err != nil {
		return 0, err
	}
	if c.rank == root {
		if len(sends) != c.Size() {
			return 0, fmt.Errorf("%w: Scatterv needs one send buffer per rank", ErrProtocol)
		}
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.Send(p, r, tagScatter, sends[r]); err != nil {
				return 0, err
			}
		}
		return copy(recv, sends[root]), nil
	}
	st, err := c.Recv(p, root, tagScatter, recv)
	return st.Len, err
}

// Alltoall performs a pairwise personalized exchange: rank r's slice
// send[d*n:(d+1)*n] lands in rank d's recv[r*n:(r+1)*n].
func (c *Comm) Alltoall(p *sim.Proc, send, recv []byte) error {
	size := c.Size()
	n := len(send) / size
	copy(recv[c.rank*n:(c.rank+1)*n], send[c.rank*n:(c.rank+1)*n])
	for phase := 1; phase < size; phase++ {
		dst := (c.rank + phase) % size
		src := (c.rank - phase + size) % size
		_, err := c.Sendrecv(p, dst, tagAll2All, send[dst*n:(dst+1)*n],
			src, tagAll2All, recv[src*n:(src+1)*n])
		if err != nil {
			return err
		}
	}
	return nil
}
