package core

import (
	"repro/internal/sim"
	"repro/internal/xport"
)

// Polling as kernel events.
//
// A poll is a loop of three steps: PollOverhead of software, a PIO read
// that stalls the CPU until its data arrives, and a check of what the
// read returned. A poll that sees nothing the process must act on
// changes no protocol state, so the process need not run for it. A
// poller replays the loop outside the process with two callbacks:
// issue books the read on the bus at the time the process would have,
// and land samples the bank when the read returns and, unless the
// sample needs the process, starts the next poll itself. Both are
// KindProc events scheduled at the same times and in the same order as
// the Delay wake-ups of a loop run inside the process, so the kernel
// executes exactly the same events and every counter and virtual time
// stays the same; only the two coroutine switches per poll are gone.
// The process parks while its poller runs, and the land event that
// settles the wait resumes it.
//
// The same poll is TryTake's step in the substrate-neutral probe of
// xport.Prober (probe): issue is the poll pollFrom would make, land
// hands its verdict (a changed sample, or a deliverable message from the
// sender) to an xport.Poller instead of settling, and deliverable is
// the check TryTake makes before it polls. A progress sweep (Sweep, and
// the hybrid router's sweep over this step and the Myrinet API's) runs
// its idle probes on that Poller: a probe that sees nothing moves on to
// the next sender from the land callback, where the process would have
// moved on, and the process runs only for a probe that sees something.

// poller is one waiting process's poll loop. Each process that waits
// takes its own poller from the endpoint (waiter) and hands it back
// when the call returns (release).
type poller struct {
	e *Endpoint
	k *sim.Kernel
	p *sim.Proc
	// issueFn and landFn are w.issue and w.land, bound once.
	issueFn, landFn func()

	// settled reports, once a poll has landed, whether the process must
	// see it; when it does not, land starts the next poll.
	settled func(w *poller) bool
	// flagPoll marks a BBP flag poll: it counts Polls and PollWords,
	// feeds the adaptive threshold, and advances through a sweep of the
	// senders.
	flagPoll bool
	// src is the flag poll's focused sender, or -1 for a sweep of every
	// sender; s is the sender a single-word flag poll reads.
	src, s int
	// once settles a flag poll at the end of every sweep.
	once bool
	// deadline settles a wait whose poll lands past it (a flag poll only
	// at the end of a sweep); -1 means none.
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
	// onLand, set on a probe step's poller (probe), takes each landed
	// flag poll's verdict instead of the settle rule: the poller of the
	// layer above resumes the process or moves on.
	onLand func(seen bool)
}

// waiter hands process p a poller with the given once and deadline
// (see poller).
func (e *Endpoint) waiter(p *sim.Proc, once bool, deadline sim.Time) *poller {
	var w *poller
	if n := len(e.pollers); n > 0 {
		w = e.pollers[n-1]
		e.pollers = e.pollers[:n-1]
	} else {
		w = e.newPoller()
	}
	w.p, w.once, w.deadline = p, once, deadline
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

// pollFlags runs flag polls from the process, starting with one of
// sender s (per-word) or, for s < 0, of the whole flag region (burst),
// and returns once a poll settles: the sender and words it read are in
// w.s and w.vals, or the region in w.flagBuf.
func (w *poller) pollFlags(s int) {
	w.startFlags(s)
	w.wait()
}

// startFlags counts and aims a flag poll as pollFlags makes it and books
// its issue one PollOverhead later.
func (w *poller) startFlags(s int) {
	w.flagPoll, w.settled = true, flagSettled
	w.aim(s)
	w.e.stats.Polls++
	w.after(w.e.sys.cfg.Costs.PollOverhead, w.issueFn)
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

// aim points the next flag poll at sender s, or at the whole flag
// region for s < 0: one word (retry: the flag and the MIN-UNACKED word)
// per sender, or every sender's words in one burst.
func (w *poller) aim(s int) {
	e := w.e
	lay := e.sys.lay
	w.s = s
	if s < 0 {
		w.burst, w.off, w.dst = true, lay.base(e.me), w.flagBuf
		return
	}
	w.burst, w.nwords, w.vals = false, 1, [2]uint32{}
	w.offs[0] = lay.msgFlags(e.me, s)
	if e.sys.cfg.Retry.Enabled {
		w.nwords, w.offs[1] = 2, lay.minUn(e.me, s)
	}
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

// land samples the bank for the read that just returned, issues the
// poll's second word read if it has one, and otherwise settles the
// wait or starts the next poll.
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
	}
	if w.onLand != nil {
		w.onLand(w.changed() || e.deliverable(w.src))
		return
	}
	if w.settled(w) {
		w.resume()
		return
	}
	if w.flagPoll {
		s := w.s
		switch {
		case w.burst: // the whole region again
		case w.src >= 0:
			s = w.src // a focused poll
		default:
			if s = e.nextSender(s); s < 0 {
				s = e.nextSender(-1)
			}
		}
		w.aim(s)
		e.stats.Polls++
	}
	w.after(e.sys.cfg.Costs.PollOverhead, w.issueFn)
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

// flagSettled is the flag poll's settle rule. The process must run when
// the sample would change receiver state; otherwise only at the end of
// a sweep (a focused poll is a sweep of one), and there only if the
// call returns after every sweep, its deadline has passed, or a message
// it can consume is now deliverable — possibly detected by another
// process on this endpoint. Anything else is an idle poll, and the
// process would go straight on to the next one.
func flagSettled(w *poller) bool {
	e := w.e
	if w.changed() {
		return true
	}
	if !w.burst && w.src < 0 && e.nextSender(w.s) >= 0 {
		return false
	}
	if w.once || w.pastDeadline() {
		return true
	}
	if w.src >= 0 {
		return e.deliverable(w.src)
	}
	for s := range e.pending {
		if e.deliverable(s) {
			return true
		}
	}
	return false
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

// nextSender returns the first sender after s in sweep order, or -1
// when s is the last.
func (e *Endpoint) nextSender(s int) int {
	for s++; s < e.Procs(); s++ {
		if s != e.me {
			return s
		}
	}
	return -1
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

// pollFrom polls for messages from sender s: the focused shape used by
// Recv/TryRecv/MsgAvailFrom. It upgrades to the burst only where the
// plan says one wide read beats even a single probe.
func (e *Endpoint) pollFrom(w *poller, s int) {
	w.src = s
	if e.burstOneOK {
		s = -1
	}
	w.pollFlags(s)
	e.acceptSample(w)
}

// pollAll polls every sender once: the sweep shape used by
// RecvAny/MsgAvail, and the poll loop the burst read collapses from
// nprocs−1 bus round trips to one transaction.
func (e *Endpoint) pollAll(w *poller) {
	w.src = -1
	if e.burstAllOK {
		w.pollFlags(-1)
		e.acceptSample(w)
		return
	}
	// The poller runs idle polls of the later senders, and whole idle
	// sweeps, by itself, so each sweep continues after w.s: the sender
	// whose poll settled.
	for s := e.nextSender(-1); s >= 0; s = e.nextSender(w.s) {
		w.pollFlags(s)
		e.acceptSample(w)
	}
}

// acceptSample runs a settled flag poll's sample through acceptFlags:
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

// probe is TryTake's probe as an xport.Probe step: the flag poll that
// pollFrom makes, on a poller of its own whose land hands its verdict
// to the layer above (onLand) instead of resuming the process.
type probe struct {
	w *poller
	// sampled is set while a landed poll waits for Take to accept it.
	sampled bool
}

// Probe returns a probe step over TryTake (xport.Prober).
func (e *Endpoint) Probe(land func(seen bool)) xport.Probe {
	w := e.newPoller()
	w.onLand = land
	return &probe{w: w}
}

// Issue starts TryTake's probe of src (xport.Probe): none when a
// message from src is deliverable, else pollFrom's flag poll, whose land
// sees a sample that changes receiver state or a deliverable message
// from src.
func (pr *probe) Issue(p *sim.Proc, src int) {
	w := pr.w
	w.p, w.src = p, src
	if pr.sampled = !w.e.deliverable(src); !pr.sampled {
		w.onLand(true)
		return
	}
	if w.e.burstOneOK {
		src = -1
	}
	w.startFlags(src)
}

// Take is the rest of TryTake (xport.Probe).
func (pr *probe) Take(p *sim.Proc, src int, bufs *xport.Buffers) ([]byte, bool, error) {
	return pr.take(p, src, nil, bufs)
}

// take is the rest of TryRecv or TryTake: it accepts the landed sample,
// as pollFrom does, and takes the next deliverable message from src.
func (pr *probe) take(p *sim.Proc, src int, buf []byte, bufs *xport.Buffers) ([]byte, bool, error) {
	if pr.sampled {
		pr.sampled = false
		pr.w.e.acceptSample(pr.w)
	}
	msg, ok, _, err := pr.w.e.take(p, src, buf, bufs)
	return msg, ok, err
}
