package core

import (
	"repro/internal/sim"
	"repro/internal/xport"
)

// Polling as kernel events.
//
// A poll is three steps: PollOverhead of software, a PIO read that
// stalls the CPU until its data arrives, and a check of what the read
// returned. A poll that sees nothing the process must act on changes no
// protocol state, so the process need not run for it. A poller replays
// a poll outside the process with two callbacks: issue books the read
// on the bus at the time the process would have, and land samples the
// bank when the read returns. Both are KindProc events scheduled at the
// same times and in the same order as the Delay wake-ups of a loop run
// inside the process, so the kernel executes exactly the same events
// and every counter and virtual time stays the same; only coroutine
// switches are gone.
//
// A poller makes one of three things:
//   - pollFrom, a one-shot flag poll of one sender for TryRecv, TryTake
//     and MsgAvailFrom: the process parks and the land resumes it. It
//     is the reference the probe step replays.
//   - A probe step (probe), a flag poll as an xport.Probe: its land
//     hands a verdict to an xport.Poller, which runs the loop. A poll
//     that sees nothing goes on to the next from the land callback,
//     where the process would have gone on, and the process runs only
//     for one that sees something. TryTake's probe is the step of Sweep
//     and of the hybrid router's sweeps; the pass step is that of Recv,
//     RecvAny and MsgAvail (pass).
//   - A watch wait (watchWords, watchWord) of the stream: it rereads
//     its words every PollOverhead until its exit test accepts one.

// poller is one waiting process's poll, or one probe step's. Each
// process that waits takes its own poller from the endpoint (waiter) and
// hands it back when the call returns (release); a probe step keeps one
// for good.
type poller struct {
	e *Endpoint
	k *sim.Kernel
	p *sim.Proc
	// issueFn and landFn are w.issue and w.land, bound once.
	issueFn, landFn func()

	// settled is a watch wait's exit test (watchWords): once a read has
	// landed, whether the process must see it; when it does not, land
	// issues the next read one PollOverhead later.
	settled func(w *poller) bool
	// flagPoll marks a BBP flag poll: it counts Polls and PollWords and
	// feeds the adaptive threshold. Its land resumes the process (the
	// one-shot pollFrom) or, on a probe step's poller, hands its verdict
	// to onLand.
	flagPoll bool
	// src is the sender whose deliverable message a probe step's land
	// also reports seen, or -1 for none; s is the sender a single-word
	// flag poll reads, or -1 for a burst.
	src, s int
	// deadline settles a watch wait whose read lands past it; -1 means
	// none.
	deadline sim.Time

	// The read: one burst of len(dst) words at off, or nwords
	// single-word reads at offs, landed into vals one by one.
	burst  bool
	off    int
	dst    []uint32
	nwords int
	offs   [2]int
	vals   [2]uint32
	landed int
	t0     sim.Time
	// flagBuf receives burst flag polls: the receiver's whole flag
	// region. descs receives a retry scan's descriptors (scanSender),
	// allocated on the first scan.
	flagBuf []uint32
	descs   []byte

	// parked is set while the process waits in Park for this poller;
	// done records a wait that settled before the process could park.
	parked, done bool
	// onLand, set on a probe step's poller, takes each landed flag
	// poll's verdict: the xport.Poller above resumes the process or
	// moves on.
	onLand func(seen bool)
}

// waiter hands process p a poller with the given watch deadline (see
// poller).
func (e *Endpoint) waiter(p *sim.Proc, deadline sim.Time) *poller {
	var w *poller
	if n := len(e.pollers); n > 0 {
		w = e.pollers[n-1]
		e.pollers = e.pollers[:n-1]
	} else {
		w = e.newPoller()
	}
	w.p, w.deadline = p, deadline
	return w
}

// newPoller returns a poller with its callbacks bound.
func (e *Endpoint) newPoller() *poller {
	w := &poller{e: e, k: e.sys.net.Kernel(), flagBuf: make([]uint32, e.burstWords)}
	w.issueFn, w.landFn = w.issue, w.land
	return w
}

// release returns a poller whose wait has settled to the endpoint.
func (e *Endpoint) release(w *poller) {
	w.p = nil
	e.pollers = append(e.pollers, w)
}

// startFlags counts a flag poll of sender s (per-word: one word, under
// retry the flag and the MIN-UNACKED word) or, for s < 0, of the whole
// flag region (burst), and books its issue one PollOverhead later.
func (w *poller) startFlags(s int) {
	e := w.e
	lay := &e.sys.lay
	w.flagPoll, w.s = true, s
	if s < 0 {
		w.burst, w.off, w.dst = true, lay.base(e.me), w.flagBuf
	} else {
		w.burst, w.nwords, w.vals = false, 1, [2]uint32{}
		w.offs[0] = lay.msgFlags(e.me, s)
		if e.sys.cfg.Retry.Enabled {
			w.nwords, w.offs[1] = 2, lay.minUn(e.me, s)
		}
	}
	e.stats.Polls++
	w.after(e.sys.cfg.Costs.PollOverhead, w.issueFn)
}

// watchWords reads len(dst) words at off into dst in one burst, then
// every PollOverhead another, until settled accepts a sample.
func (w *poller) watchWords(off int, dst []uint32, settled func(w *poller) bool) {
	w.flagPoll, w.settled = false, settled
	w.burst, w.off, w.dst = true, off, dst
	w.issue()
	w.wait()
}

// watchWord is watchWords for one single-word read at off; it returns
// the accepted sample.
func (w *poller) watchWord(off int, settled func(w *poller) bool) uint32 {
	w.flagPoll, w.settled = false, settled
	w.burst, w.nwords, w.offs[0] = false, 1, off
	w.issue()
	w.wait()
	return w.vals[0]
}

// after runs fn d from now as a process step, or at once when d is 0,
// as the process's own Delay would.
func (w *poller) after(d sim.Duration, fn func()) {
	if d > 0 {
		w.k.AfterKind(d, sim.KindProc, fn)
		return
	}
	fn()
}

// issue books the poll's (first) read on the bus.
func (w *poller) issue() {
	w.t0 = w.k.Now()
	w.landed = 0
	if w.burst {
		w.after(w.e.nic.IssueRead(w.off, len(w.dst), true), w.landFn)
		return
	}
	w.after(w.e.nic.IssueRead(w.offs[0], 1, false), w.landFn)
}

// land samples the bank for the read that just returned and issues the
// poll's second word read if it has one. A flag poll then resumes the
// process or hands its verdict to onLand; a watch wait settles or
// issues its next read.
func (w *poller) land() {
	e := w.e
	if w.burst {
		e.nic.SampleWords(w.off, w.dst)
	} else {
		w.vals[w.landed] = e.nic.SampleWord(w.offs[w.landed])
		if w.landed++; w.landed < w.nwords {
			w.after(e.nic.IssueRead(w.offs[w.landed], 1, false), w.landFn)
			return
		}
	}
	if w.flagPoll {
		w.count()
		if w.onLand != nil {
			w.onLand(w.changed() || w.src >= 0 && e.deliverable(w.src))
			return
		}
	} else if !w.settled(w) {
		w.after(e.sys.cfg.Costs.PollOverhead, w.issueFn)
		return
	}
	w.resume()
}

// count books a landed flag poll into the endpoint's poll counters. A
// per-word poll's elapsed time, queueing behind DMA included, is also a
// live sample of the per-word read cost for the adaptive threshold.
func (w *poller) count() {
	st := &w.e.stats
	if w.burst {
		n := int64(len(w.dst))
		st.PollWords += n
		st.BurstPolls++
		st.BurstPollWords += n
		return
	}
	st.PollWords += int64(w.nwords)
	w.e.observeWordReads(w.nwords, w.k.Now().Sub(w.t0))
}

// resume hands a settled wait back to its process.
func (w *poller) resume() {
	if w.parked {
		w.parked = false
		w.p.Resume()
		return
	}
	w.done = true
}

// wait parks the process until its poller settles, unless it already
// has.
func (w *poller) wait() {
	if !w.done {
		w.parked = true
		w.p.Park()
	}
	w.done = false
}

// pastDeadline reports whether the wait has run past its deadline.
func (w *poller) pastDeadline() bool {
	return w.deadline >= 0 && w.k.Now() > w.deadline
}

// burstFlags returns sender s's words from a burst flag poll: its
// MESSAGE flag word and, under the retry extension, its MIN-UNACKED
// word.
func (w *poller) burstFlags(s int) (flags, minUn uint32) {
	if w.e.sys.cfg.Retry.Enabled {
		minUn = w.flagBuf[w.e.Procs()+s]
	}
	return w.flagBuf[s], minUn
}

// changed reports whether the flag poll's sample would change receiver
// state: acceptFlags would act on the words of its sender, or of any
// sender for a burst.
func (w *poller) changed() bool {
	e := w.e
	if !w.burst {
		return e.changes(w.s, w.vals[0], w.vals[1])
	}
	for s := range e.pending {
		if flags, minUn := w.burstFlags(s); s != e.me && e.changes(s, flags, minUn) {
			return true
		}
	}
	return false
}

// initPollPlan fixes, at Attach time, how this receiver's polls read
// MESSAGE flags. The receiver's flag words are contiguous —
// msgFlags(me, s) = base(me)+4s for s = 0..nprocs−1, immediately
// followed under the retry extension by the MIN-UNACKED words
// minUn(me, s) = base(me)+4·nprocs+4s — so one aligned burst of nprocs
// (base) or 2·nprocs (retry) words covers every word a full poll sweep
// would otherwise fetch with per-word 650 ns reads. Whether the burst
// actually wins is a pure cost-model question, decided here once from
// the same numbers the bus will charge: against the (nprocs−1) probes
// of an all-senders sweep (burstAllOK), and against the single probe of
// a focused poll (burstOneOK — only worthwhile under retry, where one
// probe is already two word reads).
func (e *Endpoint) initPollPlan() {
	n := e.sys.lay.nprocs
	words, probeWords := n, 1
	if e.sys.cfg.Retry.Enabled {
		words, probeWords = 2*n, 2
	}
	e.burstWords = words
	e.sweepers = xport.NewPollers(e.me, n, nil, e)
	e.passes = xport.NewPollers(e.me, n, nil, passProber{e})
	bus := e.nic.Bus()
	burst := bus.BurstReadCost(words)
	probe := sim.Duration(probeWords) * bus.Config().PIOReadWord
	switch e.sys.cfg.BurstPoll {
	case BurstOff:
		// both false
	case BurstOn:
		e.burstAllOK, e.burstOneOK = true, true
	default: // BurstAuto
		e.burstAllOK = burst < sim.Duration(n-1)*probe
		e.burstOneOK = burst < probe
	}
}

// pollFrom polls sender s once from process p: the one-shot focused
// poll of TryRecv, TryTake and MsgAvailFrom, which the probe step
// replays as kernel events. It upgrades to the burst only where the
// plan says one wide read beats even a single probe.
func (e *Endpoint) pollFrom(p *sim.Proc, s int) {
	w := e.waiter(p, -1)
	if e.burstOneOK {
		s = -1
	}
	w.startFlags(s)
	w.wait()
	e.acceptSample(w)
	e.release(w)
}

// acceptSample runs a landed flag poll's sample through acceptFlags:
// its sender's words or, for a burst (one wide read of the receiver's
// whole contiguous flag region), every sender's, through the same
// acceptance logic as the per-word path.
func (e *Endpoint) acceptSample(w *poller) {
	if !w.burst {
		e.acceptFlags(w, w.s, w.vals[0], w.vals[1])
		return
	}
	for s := range e.pending {
		if s != e.me {
			flags, minUn := w.burstFlags(s)
			e.acceptFlags(w, s, flags, minUn)
		}
	}
}

// probe is a flag poll as an xport.Probe step, on a poller of its own
// whose land hands its verdict to the layer above (onLand) instead of
// resuming the process. It comes in two forms. TryTake's probe
// (Endpoint.Probe) makes pollFrom's poll of one sender, or none when a
// message from it is already deliverable, and sees a sample that
// changes receiver state or a deliverable message from that sender. A
// pass step (passProber, run by pass) always polls and sees only a
// sample that changes receiver state.
type probe struct {
	w *poller
	// pass marks a pass step. src is the sender its pass waits on, in
	// pollFrom's shape, or -1 for a pass over every sender: a burst of
	// the whole flag region when burstAllOK, else one poll per sender.
	pass bool
	src  int
	// stopFn is a pass step's stop, bound once.
	stopFn func() bool
	// sampled is set while a landed poll waits for the process to
	// accept it.
	sampled bool
}

// Probe returns a probe step over TryTake (xport.Prober).
func (e *Endpoint) Probe(land func(seen bool)) xport.Probe {
	return e.newProbe(land, false)
}

// passProber makes the pass steps of the endpoint's pass pollers.
type passProber struct{ e *Endpoint }

// Probe returns a pass step (xport.Prober).
func (pp passProber) Probe(land func(seen bool)) xport.Probe {
	return pp.e.newProbe(land, true)
}

// newProbe returns a probe step, or a pass step, bound to land.
func (e *Endpoint) newProbe(land func(seen bool), pass bool) *probe {
	w := e.newPoller()
	w.onLand, w.src = land, -1
	pr := &probe{w: w, pass: pass}
	if pass {
		pr.stopFn = pr.stop
	}
	return pr
}

// Issue starts the step's poll of src (xport.Probe). TryTake's probe
// makes none when a message from src is deliverable.
func (pr *probe) Issue(p *sim.Proc, src int) {
	w, e := pr.w, pr.w.e
	w.p, pr.sampled = p, true
	burst := e.burstOneOK
	if !pr.pass {
		if w.src = src; e.deliverable(src) {
			pr.sampled = false
			w.onLand(true)
			return
		}
	} else if pr.src < 0 {
		burst = e.burstAllOK
	}
	if burst {
		src = -1
	}
	w.startFlags(src)
}

// accept runs a landed poll's sample through acceptSample, once.
func (pr *probe) accept() {
	if pr.sampled {
		pr.sampled = false
		pr.w.e.acceptSample(pr.w)
	}
}

// Take is the rest of TryTake (xport.Probe).
func (pr *probe) Take(p *sim.Proc, src int, bufs *xport.Buffers) ([]byte, bool, error) {
	return pr.take(p, src, nil, bufs)
}

// take is the rest of TryRecv or TryTake: it accepts the landed sample,
// as pollFrom does, and takes the next deliverable message from src.
func (pr *probe) take(p *sim.Proc, src int, buf []byte, bufs *xport.Buffers) ([]byte, bool, error) {
	pr.accept()
	msg, ok, _, err := pr.w.e.take(p, src, buf, bufs)
	return msg, ok, err
}

// stop is a blocking receive's rule at the wrap of a pass: the pass
// ends once a message it can take is deliverable, possibly detected by
// another process on this endpoint.
func (pr *probe) stop() bool {
	e := pr.w.e
	if pr.src >= 0 {
		return e.deliverable(pr.src)
	}
	for s := range e.pending {
		if e.deliverable(s) {
			return true
		}
	}
	return false
}

// pass runs a blocking receive's flag polls on a pass step, with the
// process parked: polls of src alone or, for src < 0, passes over every
// sender (a burst pass is a sweep of one poll). The process runs only
// to accept a sample that changes receiver state. pass returns at the
// first wrap when once is set (MsgAvail, or an interrupt-driven receive
// that sleeps between passes), else at the wrap where stop says so or
// the deadline has passed.
func (e *Endpoint) pass(p *sim.Proc, src int, once bool, deadline sim.Time) {
	w := e.passes.Get()
	defer e.passes.Put(w)
	pr := w.Step(0).(*probe)
	pr.src = src
	base, span := src, 1
	switch {
	case src >= 0:
	case e.burstAllOK:
		base = (e.me + 1) % e.Procs() // any sender: the burst reads them all
	default:
		base, span = 0, e.Procs()
	}
	stop := pr.stopFn
	if once {
		stop = always
	}
	w.Start(p, base, span, 0, stop, deadline)
	for {
		if s, _ := w.Wait(); s < 0 {
			return
		}
		pr.accept()
		w.Next()
	}
}

// always is the stop of a single pass.
func always() bool { return true }
