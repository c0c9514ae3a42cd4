package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xport"
)

// World is one MPI job: an engine per rank over a common transport.
type World struct {
	engines []*Engine
	comms   []*Comm // COMM_WORLD handle per rank
}

// NewWorld builds a world over the given per-rank transport endpoints
// (one per process, same transport family).
func NewWorld(eps []xport.Endpoint, cfg Config) *World {
	w := &World{}
	for _, ep := range eps {
		w.engines = append(w.engines, newEngine(ep, cfg))
	}
	for i, eng := range w.engines {
		group := make([]int, len(eps))
		for j := range group {
			group[j] = j
		}
		c := &Comm{eng: eng, ctx: 1, group: group, rank: i}
		eng.comms[1] = c
		eng.nextCtx = 2
		w.comms = append(w.comms, c)
	}
	return w
}

// Comm returns rank i's COMM_WORLD handle.
func (w *World) Comm(i int) *Comm { return w.comms[i] }

// Size returns the world size.
func (w *World) Size() int { return len(w.comms) }

// Engine returns rank i's ADI engine (for statistics).
func (w *World) Engine(i int) *Engine { return w.engines[i] }

// SetMetrics installs per-rank protocol instruments on every engine
// (nil disables). It does not reach down into the transport — install
// metrics there separately if wanted.
func (w *World) SetMetrics(m *metrics.Registry) {
	for _, eng := range w.engines {
		eng.setMetrics(m)
	}
}

// SetTracer installs a span recorder on every engine (nil disables).
// Like SetMetrics it stops at the ADI layer; install the tracer on the
// transport separately (cluster.New wires both ends).
func (w *World) SetTracer(r *trace.Recorder) {
	for _, eng := range w.engines {
		eng.setTracer(r)
	}
}

// RunSPMD spawns one simulation process per rank, each executing body
// with its COMM_WORLD handle — the moral equivalent of mpirun.
func (w *World) RunSPMD(k *sim.Kernel, body func(p *sim.Proc, c *Comm)) {
	for i := range w.comms {
		c := w.comms[i]
		k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) { body(p, c) })
	}
}

// Comm is a communicator as seen by one rank.
type Comm struct {
	eng   *Engine
	ctx   uint32
	group []int // communicator rank -> world rank
	rank  int   // my communicator rank
	seq   uint32
	// Plan generation state (plan.go): the current plan epoch and the
	// mask it was cut for — suspects at a fencing root, the unreachable
	// arc on every quorum member.
	planEpoch    uint32
	lastPlanMask []byte
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.group[r] }

func (c *Comm) rankOfWorld(world int) int {
	for i, w := range c.group {
		if w == world {
			return i
		}
	}
	return -1
}

func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= len(c.group) {
		return ErrBadRank
	}
	return nil
}

// Isend starts a nonblocking standard-mode send of data to rank dst.
func (c *Comm) Isend(p *sim.Proc, dst, tag int, data []byte) (*Request, error) {
	return c.isend(p, dst, tag, data)
}

func (c *Comm) isend(p *sim.Proc, dst, tag int, data []byte) (*Request, error) {
	if err := c.checkRank(dst); err != nil {
		return nil, err
	}
	if tag < 0 && tag > -100 { // user tags are non-negative; -100.. are internal
		return nil, ErrBadTag
	}
	e := c.eng
	p.Delay(e.cfg.Costs.SendOverhead)
	world := c.group[dst]
	if part, ok := e.partition(); ok && (part.Minority || part.Unreachable(world)) {
		// Fenced: the destination is on the other side of a declared
		// ring partition (or this rank lost quorum). Fail before
		// committing billboard buffers — the peer is unreachable until
		// the fiber is spliced, not dead.
		return nil, e.partitionErr(part)
	}
	if e.peerDead(world) {
		// Fail before committing billboard buffers to a receiver the
		// detector already confirmed dead; a false verdict cannot reach
		// here (the confirmation window is calibrated against it).
		return nil, &DeadPeerError{Rank: world}
	}
	req := &Request{eng: e, isSend: true, ctx: c.ctx, tag: tag, dst: world, comm: c}
	if len(data) <= e.cfg.EagerMax {
		// The eager span covers envelope + chunks; the BBP posts they
		// cause adopt it as their parent via the ambient stack.
		span := e.tracer.BeginSpan(p.Now(), trace.MPI, e.ep.Rank(), "eager", 0, e.tracer.Parent(), "dst=%d tag=%d total=%d", world, tag, len(data))
		e.tracer.PushParent(span)
		env := envelope{kind: kEager, ctx: c.ctx, tag: int32(tag), total: uint32(len(data))}
		e.sendControl(p, world, env)
		e.sendChunks(p, world, data)
		e.tracer.PopParent()
		e.tracer.EndSpan(p.Now(), trace.MPI, e.ep.Rank(), "eager-end", span, 0, "total=%d", len(data))
		e.stats.EagerSent++
		req.done = true
		return req, nil
	}
	// Rendezvous: keep a reference to the payload until CTS arrives. The
	// span stays open across the RTS/CTS round trip and is closed by
	// handleCTS once the data chunks have been pushed.
	id := e.nextReq
	e.nextReq++
	req.id = id
	req.data = data
	e.pendSends[id] = req
	req.span = e.tracer.BeginSpan(p.Now(), trace.MPI, e.ep.Rank(), "rndv", 0, e.tracer.Parent(), "dst=%d tag=%d total=%d", world, tag, len(data))
	env := envelope{kind: kRTS, ctx: c.ctx, tag: int32(tag), total: uint32(len(data)), reqID: id}
	e.tracer.PushParent(req.span)
	e.sendControl(p, world, env)
	e.tracer.PopParent()
	e.stats.RndvSent++
	return req, nil
}

// Irecv posts a nonblocking receive from src (or AnySource) with tag (or
// AnyTag) into buf.
func (c *Comm) Irecv(p *sim.Proc, src, tag int, buf []byte) (*Request, error) {
	if src != AnySource {
		if err := c.checkRank(src); err != nil {
			return nil, err
		}
	}
	e := c.eng
	p.Delay(e.cfg.Costs.RecvOverhead)
	req := &Request{eng: e, ctx: c.ctx, src: src, tag: tag, buf: buf, comm: c}
	p.Delay(e.cfg.Costs.MatchCost)
	if m := e.matchUnexpected(req); m != nil {
		switch m.env.kind {
		case kEager:
			if int(m.env.total) > len(buf) {
				e.complete(req, m.src, m.env, ErrTruncated)
				return req, nil
			}
			// Unpack from the unexpected staging buffer: the extra copy
			// the eager protocol pays when the receive comes late.
			p.Delay(sim.Duration(m.env.total) * e.cfg.Costs.CopyPerByte)
			copy(buf, m.data)
			e.complete(req, m.src, m.env, nil)
		case kRTS:
			e.sendCTS(p, m.src, m.env, req)
		default:
			panic("mpi: unexpected queue holds non-message")
		}
		return req, nil
	}
	e.posted = append(e.posted, req)
	return req, nil
}

// Wait blocks until req completes and returns its status.
func (c *Comm) Wait(p *sim.Proc, req *Request) (Status, error) {
	return c.eng.wait(p, req)
}

// Test progresses once and reports whether req completed.
func (c *Comm) Test(p *sim.Proc, req *Request) (bool, Status, error) {
	if !req.done {
		c.eng.progressOnce(p)
	}
	if req.done {
		return true, req.status, req.err
	}
	return false, Status{}, nil
}

// Waitall blocks until every request completes.
func (c *Comm) Waitall(p *sim.Proc, reqs []*Request) error {
	for _, r := range reqs {
		if _, err := c.eng.wait(p, r); err != nil {
			return err
		}
	}
	return nil
}

// Waitany blocks until some request completes and returns its index.
func (c *Comm) Waitany(p *sim.Proc, reqs []*Request) (int, Status, error) {
	if len(reqs) == 0 {
		return -1, Status{}, ErrProtocol
	}
	deadline := sim.Time(-1)
	if c.eng.cfg.WaitTimeout > 0 {
		deadline = p.Now().Add(c.eng.cfg.WaitTimeout)
	}
	for {
		for i, r := range reqs {
			if r.done {
				return i, r.status, r.err
			}
		}
		c.eng.progressOnce(p)
		if deadline >= 0 && p.Now() > deadline {
			return -1, Status{}, ErrTimeout
		}
	}
}

// Probe blocks until a matching message is available without receiving
// it (MPI_Probe); the returned status gives its source, tag and length.
func (c *Comm) Probe(p *sim.Proc, src, tag int) (Status, error) {
	deadline := sim.Time(-1)
	if c.eng.cfg.WaitTimeout > 0 {
		deadline = p.Now().Add(c.eng.cfg.WaitTimeout)
	}
	for {
		if ok, st := c.Iprobe(p, src, tag); ok {
			return st, nil
		}
		if deadline >= 0 && p.Now() > deadline {
			return Status{}, ErrTimeout
		}
	}
}

// Send is a blocking standard-mode send.
func (c *Comm) Send(p *sim.Proc, dst, tag int, data []byte) error {
	req, err := c.isend(p, dst, tag, data)
	if err != nil {
		return err
	}
	_, err = c.eng.wait(p, req)
	return err
}

// Recv is a blocking receive.
func (c *Comm) Recv(p *sim.Proc, src, tag int, buf []byte) (Status, error) {
	req, err := c.Irecv(p, src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	return c.eng.wait(p, req)
}

// Sendrecv exchanges messages with possibly different partners without
// deadlocking.
func (c *Comm) Sendrecv(p *sim.Proc, dst, sendTag int, data []byte, src, recvTag int, buf []byte) (Status, error) {
	rreq, err := c.Irecv(p, src, recvTag, buf)
	if err != nil {
		return Status{}, err
	}
	sreq, err := c.isend(p, dst, sendTag, data)
	if err != nil {
		return Status{}, err
	}
	if _, err := c.eng.wait(p, sreq); err != nil {
		return Status{}, err
	}
	return c.eng.wait(p, rreq)
}

// Iprobe polls for a matching message without receiving it.
func (c *Comm) Iprobe(p *sim.Proc, src, tag int) (bool, Status) {
	c.eng.progressOnce(p)
	for _, m := range c.eng.unexpect {
		if m.env.ctx != c.ctx {
			continue
		}
		cr := c.rankOfWorld(m.src)
		if src != AnySource && src != cr {
			continue
		}
		if tag != AnyTag && tag != int(m.env.tag) {
			continue
		}
		return true, Status{Source: cr, Tag: int(m.env.tag), Len: int(m.env.total)}
	}
	return false, Status{}
}

// Dup creates a communicator with the same group and a fresh context.
// Like every communicator constructor, all members must call it in the
// same order (MPICH-1's synchronized context-counter scheme).
func (c *Comm) Dup() *Comm {
	ctx := c.eng.nextCtx
	c.eng.nextCtx++
	nc := &Comm{eng: c.eng, ctx: ctx, group: append([]int(nil), c.group...), rank: c.rank}
	c.eng.comms[ctx] = nc
	return nc
}

// Split partitions the communicator by color; ranks within each new
// communicator are ordered by (key, old rank). Every member must call
// Split collectively. A negative color returns nil (MPI_UNDEFINED).
func (c *Comm) Split(p *sim.Proc, color, key int) (*Comm, error) {
	// Allgather (color, key) over point-to-point.
	mine := make([]byte, 8)
	binary.LittleEndian.PutUint32(mine[0:], uint32(int32(color)))
	binary.LittleEndian.PutUint32(mine[4:], uint32(int32(key)))
	all := make([]byte, 8*c.Size())
	if err := c.allgather(p, mine, all); err != nil {
		return nil, err
	}
	ctx := c.eng.nextCtx
	c.eng.nextCtx++
	if color < 0 {
		return nil, nil
	}
	type member struct{ key, oldRank int }
	var members []member
	for r := 0; r < c.Size(); r++ {
		col := int(int32(binary.LittleEndian.Uint32(all[8*r:])))
		k := int(int32(binary.LittleEndian.Uint32(all[8*r+4:])))
		if col == color {
			members = append(members, member{k, r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].oldRank < members[j].oldRank
	})
	nc := &Comm{eng: c.eng, ctx: ctx}
	for i, m := range members {
		nc.group = append(nc.group, c.group[m.oldRank])
		if m.oldRank == c.rank {
			nc.rank = i
		}
	}
	c.eng.comms[ctx] = nc
	return nc, nil
}

// allgather gathers Split's equal-size (color, key) records everywhere:
// nonblocking sends to every peer, then per-peer receives, under
// Split's private tag.
func (c *Comm) allgather(p *sim.Proc, send, recvAll []byte) error {
	n := len(send)
	copy(recvAll[c.rank*n:], send)
	var reqs []*Request
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		req, err := c.isend(p, r, tagSplit, send)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		if _, err := c.Recv(p, r, tagSplit, recvAll[r*n:(r+1)*n]); err != nil {
			return err
		}
	}
	return c.Waitall(p, reqs)
}
