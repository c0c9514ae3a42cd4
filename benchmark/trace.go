package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/liveness"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/xport"
)

// Span layers, outermost first.
const (
	layerOp    = "op"
	layerMPI   = "mpi"
	layerXport = "xport"
)

// Transport call classes.
const (
	xSend  = iota // Send, Mcast, WriteWindow
	xRecv         // Recv, TryRecv, RecvAny, MsgAvail, ReadWindow
	xOther        // ReserveWindow, StreamAllreduce
)

// span is one recorded interval of virtual time. Spans of one op share
// Op; Parent is the enclosing span on the same process.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Rank   int    `json:"rank"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type frame struct {
	span
	class int
	child sim.Duration // time covered by child spans
}

// tracer records virtual-time spans at the layer boundaries the
// benchmark crosses: op → MPI call → transport call. It only reads the
// virtual clock, so a traced run is the same simulation as an untraced
// one. Totals are always kept; individual spans only up to keep. A nil
// *tracer records nothing.
type tracer struct {
	keep    int
	spans   []span
	dropped int64
	nextID  int64
	stacks  map[*sim.Proc][]frame
	op      map[*sim.Proc]int64

	mpiNs, mpiSelfNs sim.Duration
	xportNs          [3]sim.Duration
	xportCalls       int64
}

func newTracer(keep int) *tracer {
	return &tracer{keep: keep, stacks: map[*sim.Proc][]frame{}, op: map[*sim.Proc]int64{}}
}

// setOp names the op that p's following spans belong to.
func (t *tracer) setOp(p *sim.Proc, op int) {
	if t != nil {
		t.op[p] = int64(op)
	}
}

// begin opens a span on p, nested in p's innermost open span.
func (t *tracer) begin(p *sim.Proc, rank int, layer, name string, class int) {
	if t == nil {
		return
	}
	st := t.stacks[p]
	var parent int64
	if len(st) > 0 {
		parent = st[len(st)-1].ID
	}
	t.nextID++
	t.stacks[p] = append(st, frame{
		span:  span{ID: t.nextID, Parent: parent, Op: t.op[p], Rank: rank, Layer: layer, Name: name, Start: int64(p.Now())},
		class: class,
	})
}

// end closes p's innermost span. Self time is its duration minus the
// part its children cover.
func (t *tracer) end(p *sim.Proc) {
	if t == nil {
		return
	}
	st := t.stacks[p]
	f := st[len(st)-1]
	st = st[:len(st)-1]
	t.stacks[p] = st
	f.End = int64(p.Now())
	d := sim.Duration(f.End - f.Start)
	if len(st) > 0 {
		st[len(st)-1].child += d
	}
	switch f.Layer {
	case layerMPI:
		t.mpiNs += d
		t.mpiSelfNs += d - f.child
	case layerXport:
		t.xportNs[f.class] += d
		t.xportCalls++
	}
	t.record(f.span)
}

// opSpan records a whole op once its end is known; an op may start on
// one process and end on another.
func (t *tracer) opSpan(rank, op int, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	t.nextID++
	t.record(span{ID: t.nextID, Op: int64(op), Rank: rank, Layer: layerOp, Name: name, Start: int64(start), End: int64(end)})
}

func (t *tracer) record(s span) {
	if len(t.spans) < t.keep {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// writeSpans writes the kept spans to path as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d spans beyond the first %d not written\n", t.dropped, t.keep)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// availer is the BillBoard Protocol's bbp_MsgAvail, which the open-loop
// workload polls between posts.
type availer interface {
	MsgAvail(p *sim.Proc) bool
}

// decorate wraps a transport endpoint so every call records a transport
// span. mpi type-asserts xport.Windowed, xport.StreamReducer,
// liveness.Provider and liveness.PartitionView, so the wrapper must have
// exactly the optional interfaces ep has: hiding or faking one would
// change the simulation. Each endpoint shape in the repo has its own
// wrapper type; an unknown shape is an error, never a silent mismatch.
func decorate(ep xport.Endpoint, t *tracer) (xport.Endpoint, error) {
	_, win := ep.(xport.Windowed)
	_, str := ep.(xport.StreamReducer)
	lp, live := ep.(liveness.Provider)
	pv, part := ep.(liveness.PartitionView)
	av, avail := ep.(availer)
	base := &timedEP{ep: ep, t: t}
	switch {
	case !win && !str && !live && !part && !avail:
		return base, nil
	case !win && !str && live && part && !avail:
		return &timedLive{base, lp, pv}, nil
	case win && str && live && part && avail:
		return &timedBBP{timedLive{base, lp, pv}, ep.(xport.Windowed), ep.(xport.StreamReducer), av}, nil
	}
	return nil, fmt.Errorf("no timing decorator for endpoint %T (windowed %v, stream %v, liveness %v, partition %v, msgavail %v)",
		ep, win, str, live, part, avail)
}

// timedEP decorates the base xport.Endpoint.
type timedEP struct {
	ep xport.Endpoint
	t  *tracer
}

func (e *timedEP) Rank() int         { return e.ep.Rank() }
func (e *timedEP) Procs() int        { return e.ep.Procs() }
func (e *timedEP) MaxMessage() int   { return e.ep.MaxMessage() }
func (e *timedEP) NativeMcast() bool { return e.ep.NativeMcast() }

func (e *timedEP) Send(p *sim.Proc, dst int, data []byte) error {
	e.t.begin(p, e.ep.Rank(), layerXport, "send", xSend)
	defer e.t.end(p)
	return e.ep.Send(p, dst, data)
}

func (e *timedEP) Mcast(p *sim.Proc, dsts []int, data []byte) error {
	e.t.begin(p, e.ep.Rank(), layerXport, "mcast", xSend)
	defer e.t.end(p)
	return e.ep.Mcast(p, dsts, data)
}

func (e *timedEP) Recv(p *sim.Proc, src int, buf []byte) (int, error) {
	e.t.begin(p, e.ep.Rank(), layerXport, "recv", xRecv)
	defer e.t.end(p)
	return e.ep.Recv(p, src, buf)
}

func (e *timedEP) TryRecv(p *sim.Proc, src int, buf []byte) (int, bool, error) {
	e.t.begin(p, e.ep.Rank(), layerXport, "tryrecv", xRecv)
	defer e.t.end(p)
	return e.ep.TryRecv(p, src, buf)
}

func (e *timedEP) RecvAny(p *sim.Proc, buf []byte) (int, int, error) {
	e.t.begin(p, e.ep.Rank(), layerXport, "recvany", xRecv)
	defer e.t.end(p)
	return e.ep.RecvAny(p, buf)
}

// timedLive adds the membership views of a transport that runs a
// failure detector (the hybrid router). The views take no virtual time.
type timedLive struct {
	*timedEP
	lp liveness.Provider
	pv liveness.PartitionView
}

func (e *timedLive) Liveness() liveness.View                   { return e.lp.Liveness() }
func (e *timedLive) Partition() (liveness.PartitionInfo, bool) { return e.pv.Partition() }

// timedBBP adds the BillBoard Protocol endpoint's extensions: posted
// windows, the in-network allreduce and bbp_MsgAvail.
type timedBBP struct {
	timedLive
	w  xport.Windowed
	sr xport.StreamReducer
	av availer
}

func (e *timedBBP) ReserveWindow(p *sim.Proc, src, n int) (int, bool) {
	e.t.begin(p, e.ep.Rank(), layerXport, "reserve-window", xOther)
	defer e.t.end(p)
	return e.w.ReserveWindow(p, src, n)
}

func (e *timedBBP) ReleaseWindow(off, n int) { e.w.ReleaseWindow(off, n) }

func (e *timedBBP) WriteWindow(p *sim.Proc, dst, off int, data []byte) sim.Time {
	e.t.begin(p, e.ep.Rank(), layerXport, "write-window", xSend)
	defer e.t.end(p)
	return e.w.WriteWindow(p, dst, off, data)
}

func (e *timedBBP) ReadWindow(p *sim.Proc, off int, buf []byte) {
	e.t.begin(p, e.ep.Rank(), layerXport, "read-window", xRecv)
	defer e.t.end(p)
	e.w.ReadWindow(p, off, buf)
}

func (e *timedBBP) StreamMax() int { return e.sr.StreamMax() }

func (e *timedBBP) StreamAllreduce(p *sim.Proc, op spin.RingOp, send, recv []byte) (bool, error) {
	e.t.begin(p, e.ep.Rank(), layerXport, "stream-allreduce", xOther)
	defer e.t.end(p)
	return e.sr.StreamAllreduce(p, op, send, recv)
}

func (e *timedBBP) MsgAvail(p *sim.Proc) bool {
	e.t.begin(p, e.ep.Rank(), layerXport, "msgavail", xRecv)
	defer e.t.end(p)
	return e.av.MsgAvail(p)
}
