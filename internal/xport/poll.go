package xport

import "repro/internal/sim"

// Prober is the optional poller-run probe extension (the BillBoard
// Protocol and the native Myrinet API implement it). It splits TryTake's
// probe of one sender into steps that a Poller chains as kernel events,
// so that a receive sweep over one substrate or several (the hybrid
// router's) runs its idle probes without running the process.
type Prober interface {
	// Probe returns a new probe step bound to land: each probe it
	// issues calls land once. A Poller binds one step per substrate
	// when it is made and keeps it.
	Probe(land func(seen bool)) Probe
}

// Probe is TryTake's probe of one sender in three parts: issue, land and
// deliverable. TryTake(p, src, bufs) is Issue(p, src), the process
// parked until the land call, then Take(p, src, bufs), at the same
// virtual cost and with the same kernel events; only the coroutine
// switches differ.
type Probe interface {
	// Issue starts a probe of src for process p where TryTake would
	// start one, and returns without blocking. It charges the probe's
	// virtual cost as kernel events, scheduled as the process would
	// schedule them, and calls land from the event in which TryTake's
	// process would look at the sample. seen is set when the sample
	// changed state that the process must act on, or a message from
	// src is deliverable. When TryTake would skip the probe, because a
	// message from src is already deliverable, Issue schedules nothing
	// and calls land(true) at once.
	Issue(p *sim.Proc, src int)
	// Take is the rest of TryTake once the probe has landed: it runs in
	// the process and returns what TryTake returns.
	Take(p *sim.Proc, src int, bufs *Buffers) (msg []byte, ok bool, err error)
}

// Poller runs a process's receive sweep over the probe steps of one or
// more substrates, with the process parked. Each sender's probe is its
// steps in order. The poller checks ready before the sender's first step
// and after its last, as the hybrid router checks its reorder buffer.
//
// A step that lands unseen changes nothing the process would act on:
// the process would only go on to the next step or the next sender,
// calling stop at the wrap. The poller does the same from the land
// callback, so every event is scheduled at the same time, from the same
// callback and in the same order as from the process. It resumes the
// process only when a step lands seen, a sender is ready or stop is
// true; Wait says which, and Next goes on once the process has acted.
type Poller struct {
	p         *sim.Proc
	me, procs int
	steps     []Probe
	ready     func(s int) bool

	// The sweep visits sender (base+i) mod procs for i = 0, 1, ...,
	// skipping me; at i = span it calls stop, when there is one, and
	// checks the deadline, and starts again at i = 0. s below is the
	// sender at i.
	base, span, i int
	stop          func() bool
	deadline      sim.Time

	// s is the sender being probed and step its step in flight; when
	// the sweep settles, step is -1 for a ready sender and s is -1 for
	// a stop.
	s, step int
	// parked is set while the process waits in Park; done records a
	// sweep that settled before the process could park.
	parked, done bool
}

// NewPoller returns a poller for rank me of a procs-process world over
// the steps of probers, in order. ready, when not nil, reports whether
// the layer above already holds a message from s for the process.
func NewPoller(me, procs int, ready func(s int) bool, probers ...Prober) *Poller {
	w := &Poller{me: me, procs: procs, ready: ready}
	land := w.land
	for _, pr := range probers {
		w.steps = append(w.steps, pr.Probe(land))
	}
	return w
}

// Pollers is a free list of pollers over one world, ready check and set
// of steps. An endpoint keeps one, so that each process sweeping it at
// once has a poller of its own and a warmed sweep allocates nothing.
type Pollers struct {
	me, procs int
	ready     func(s int) bool
	probers   []Prober
	free      []*Poller
}

// NewPollers returns an empty list of pollers that NewPoller(me, procs,
// ready, probers...) makes.
func NewPollers(me, procs int, ready func(s int) bool, probers ...Prober) *Pollers {
	return &Pollers{me: me, procs: procs, ready: ready, probers: probers}
}

// Get takes a poller from the list, or makes one.
func (l *Pollers) Get() *Poller {
	if n := len(l.free); n > 0 {
		w := l.free[n-1]
		l.free = l.free[:n-1]
		return w
	}
	return NewPoller(l.me, l.procs, l.ready, l.probers...)
}

// Put hands back a poller whose sweep is over, dropping its hold on its
// process and stop predicate.
func (l *Pollers) Put(w *Poller) {
	w.p, w.stop = nil, nil
	l.free = append(l.free, w)
}

// Step returns the poller's probe step i, for the process's Take.
func (w *Poller) Step(i int) Probe { return w.steps[i] }

// Start aims the poller's sweep for process p and starts it: it visits
// (base+i) mod procs for i = from, from+1, ..., skipping the process's
// own rank, and at i = span ends when stop, if not nil, says so or the
// clock has passed deadline (-1 is never), before it starts again at
// i = 0. stop must change no state, since the poller calls it outside
// the process. LoopSweep's order is base 0 and span procs; a receive
// focused on src is base src and span 1.
func (w *Poller) Start(p *sim.Proc, base, span, from int, stop func() bool, deadline sim.Time) {
	w.p, w.base, w.span, w.i, w.s = p, base, span, from-1, base+from-1
	w.stop, w.deadline = stop, deadline
	w.advance()
}

// Wait parks the process until the sweep settles and returns the sender
// and the step that settled it: step -1 for a ready sender, and s -1
// when the sweep stopped.
func (w *Poller) Wait() (s, step int) {
	if !w.done {
		w.parked = true
		w.p.Park()
	}
	w.done = false
	return w.s, w.step
}

// Next goes on with the sweep after the process has taken what the step
// Wait returned saw: to the sender's next step, or past its last.
func (w *Poller) Next() {
	if w.step++; w.step < len(w.steps) {
		w.steps[w.step].Issue(w.p, w.s)
		return
	}
	if w.ready != nil && w.ready(w.s) {
		w.settle(-1)
		return
	}
	w.advance()
}

// advance moves the sweep to its next sender and starts that sender's
// probe, or settles on a stop or a ready sender.
func (w *Poller) advance() {
	for {
		if w.i++; w.i >= w.span {
			if w.stops() {
				w.s = -1
				w.settle(-1)
				return
			}
			w.i, w.s = 0, w.base
		} else if w.s++; w.s >= w.procs {
			w.s -= w.procs
		}
		if w.s != w.me {
			break
		}
	}
	if w.ready != nil && w.ready(w.s) {
		w.settle(-1)
		return
	}
	w.step = 0
	w.steps[0].Issue(w.p, w.s)
}

// stops is the sweep's verdict at a wrap: stop, or the deadline passed.
func (w *Poller) stops() bool {
	return w.stop != nil && w.stop() || w.deadline >= 0 && w.p.Now() > w.deadline
}

// land is every step's land callback: a seen sample settles the sweep,
// an unseen one moves it on as the process would.
func (w *Poller) land(seen bool) {
	if seen {
		w.settle(w.step)
		return
	}
	w.Next()
}

// settle ends the wait at step (-1: a ready sender or a stop) and hands
// the process back, from the event that settled it.
func (w *Poller) settle(step int) {
	w.step = step
	if w.parked {
		w.parked = false
		w.p.Resume()
		return
	}
	w.done = true
}
