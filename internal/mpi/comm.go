package mpi

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
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
		w.comms = append(w.comms, &Comm{eng: eng, rank: i, size: len(eps)})
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

// RunSPMD spawns one simulation process per rank, each executing body
// with its COMM_WORLD handle — the moral equivalent of mpirun.
func (w *World) RunSPMD(k *sim.Kernel, body func(p *sim.Proc, c *Comm)) {
	for i := range w.comms {
		c := w.comms[i]
		k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) { body(p, c) })
	}
}

// Comm is the world communicator (COMM_WORLD) as seen by one rank. It
// is the only communicator: a rank is the transport rank of its
// endpoint, so no message carries a translation.
type Comm struct {
	eng  *Engine
	rank int // my rank
	size int
	seq  uint32
	// Plan generation state (plan.go): the current plan epoch and the
	// mask it was cut for — suspects at a fencing root, the unreachable
	// arc on every quorum member.
	planEpoch    uint32
	lastPlanMask []byte
	// gatherBuf receives children's contributions in gather (plan.go),
	// and memberBuf and planBuf hold the member list and the plan order
	// a collective cuts in membership; all grow on demand. One Proc
	// drives a Comm, so calls never overlap, and no plan outlives its
	// collective.
	gatherBuf []byte
	memberBuf []int
	planBuf   []int
	// laneOne and laneOut are barrierNIC's all-ones contribution and
	// result lane (select.go), kept here because a local array would
	// escape into the transport's StreamAllreduce.
	laneOne, laneOut [4]byte
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= c.size {
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
	if part, ok := e.partition(); ok && (part.Minority || part.Unreachable(dst)) {
		// Fenced: the destination is on the other side of a declared
		// ring partition (or this rank lost quorum). Fail before
		// committing billboard buffers — the peer is unreachable until
		// the fiber is spliced, not dead.
		return nil, e.partitionErr(part)
	}
	if e.peerDead(dst) {
		// Fail before committing billboard buffers to a receiver the
		// detector already confirmed dead; a false verdict cannot reach
		// here (the confirmation window is calibrated against it).
		return nil, &DeadPeerError{Rank: dst}
	}
	req := e.newRequest(Request{isSend: true, tag: tag, dst: dst, comm: c})
	if len(data) <= e.cfg.EagerMax {
		env := envelope{kind: kEager, tag: int32(tag), total: uint32(len(data))}
		e.sendControl(p, dst, env)
		e.sendChunks(p, dst, data)
		e.stats.EagerSent++
		req.done = true
		return req, nil
	}
	// Rendezvous: keep a reference to the payload until CTS arrives;
	// handleCTS pushes the data chunks and completes the request.
	id := e.nextReq
	e.nextReq++
	req.id = id
	req.data = data
	e.pendSends[id] = req
	env := envelope{kind: kRTS, tag: int32(tag), total: uint32(len(data)), reqID: id}
	e.sendControl(p, dst, env)
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
	req := e.newRequest(Request{src: src, tag: tag, buf: buf, comm: c})
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

// Test makes one progress sweep and reports whether req completed.
func (c *Comm) Test(p *sim.Proc, req *Request) (bool, Status, error) {
	if !req.done {
		c.eng.progress(p, stopAtWrap)
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

// Send is a blocking standard-mode send.
func (c *Comm) Send(p *sim.Proc, dst, tag int, data []byte) error {
	req, err := c.isend(p, dst, tag, data)
	if err != nil {
		return err
	}
	_, err = c.eng.waitFree(p, req)
	return err
}

// Recv is a blocking receive.
func (c *Comm) Recv(p *sim.Proc, src, tag int, buf []byte) (Status, error) {
	req, err := c.Irecv(p, src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	return c.eng.waitFree(p, req)
}

// Sendrecv exchanges messages with possibly different partners without
// deadlocking. Either partner may be ProcNull, as in MPI_Sendrecv: no
// transfer happens in that direction, and a null receive returns
// Status{Source: ProcNull}.
func (c *Comm) Sendrecv(p *sim.Proc, dst, sendTag int, data []byte, src, recvTag int, buf []byte) (Status, error) {
	var rreq *Request
	if src != ProcNull {
		var err error
		if rreq, err = c.Irecv(p, src, recvTag, buf); err != nil {
			return Status{}, err
		}
	}
	if dst != ProcNull {
		sreq, err := c.isend(p, dst, sendTag, data)
		if err != nil {
			return Status{}, err
		}
		if _, err := c.eng.waitFree(p, sreq); err != nil {
			return Status{}, err
		}
	}
	if rreq == nil {
		return Status{Source: ProcNull}, nil
	}
	return c.eng.waitFree(p, rreq)
}
