package sim

import (
	"fmt"
	"sort"
	"testing"
)

// refEvent is the reference model's record of one scheduled event: the
// (t, seq) key the kernel must pop it by, and what became of it.
type refEvent struct {
	t        Time
	seq      uint64
	kind     Kind
	timer    *Timer // non-nil for cancelable events
	server   int    // 1 + the index of the Server the job was booked on, 0 for plain events
	canceled bool
	fired    bool
}

// chooser is where the harness takes its random choices from: an RNG
// for the seeded test, the fuzzer's bytes for FuzzKernelOrder.
type chooser interface{ Intn(n int) int }

// byteChooser reads one choice per byte and answers 0 once the bytes
// run out, which stops callbacks from scheduling more work.
type byteChooser []byte

func (b *byteChooser) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// numServers is how many Servers the harness books jobs on.
const numServers = 3

// wheelHorizon is how far ahead of the clock the kernel keeps an event
// near; the harness aims delays, service times and RunUntil slices at
// both sides of it.
const wheelHorizon = Duration(wheelSize)

// orderHarness drives a kernel with a random mix of scheduling calls
// and checks every execution against the reference model.
type orderHarness struct {
	t       testing.TB
	k       *Kernel
	rng     chooser
	seq     uint64 // mirrors the kernel's scheduling counter
	evs     []*refEvent
	fired   []*refEvent
	budget  int // events callbacks may still schedule
	servers [numServers]*Server
	busy    [numServers]Time // reference BusyUntil of each server
	prof    *Profiler
	byKind  [numKinds]int64 // fired events of each kind
}

func newOrderHarness(t testing.TB, rng chooser) *orderHarness {
	h := &orderHarness{t: t, k: NewKernel(), rng: rng, budget: 400, prof: NewProfiler()}
	h.k.SetProfiler(h.prof)
	for i := range h.servers {
		h.servers[i] = NewServer(h.k)
	}
	return h
}

// delay draws a delay, a service time or a RunUntil slice. Half are
// the short ones most model events use (0-70 ns); the rest sit at the
// horizon's edge (horizon-2 .. horizon+1), on quarter-horizon
// multiples, anywhere up to three horizons, or exactly at the time of
// a recent event that is still ahead, so that an event scheduled far
// and events scheduled near tie in time and only their keys order
// them.
func (h *orderHarness) delay() Duration {
	switch h.rng.Intn(8) {
	case 4:
		return wheelHorizon - 2 + Duration(h.rng.Intn(4))
	case 5:
		return Duration(h.rng.Intn(13)) * wheelHorizon / 4
	case 6:
		return Duration(h.rng.Intn(48))*wheelHorizon/16 + Duration(h.rng.Intn(256))
	case 7:
		if n := len(h.evs); n > 0 {
			if ev := h.evs[n-1-h.rng.Intn(min(n, 64))]; ev.t >= h.k.Now() {
				return ev.t.Sub(h.k.Now())
			}
		}
	}
	return Duration(h.rng.Intn(8) * 10)
}

// schedule issues one random scheduling call, of a random kind, at
// delay d from now; a Serve call books d of service instead.
func (h *orderHarness) schedule(d Duration) {
	switch h.rng.Intn(8) {
	case 6, 7:
		h.serve(h.rng.Intn(numServers), d)
		return
	}
	ev := &refEvent{t: h.k.Now().Add(d), seq: h.seq, kind: Kind(h.rng.Intn(int(numKinds)))}
	h.seq++
	h.evs = append(h.evs, ev)
	fn := func() { h.fire(ev) }
	switch h.rng.Intn(4) {
	case 0:
		ev.kind = KindEvent
		h.k.At(ev.t, fn)
	case 1:
		h.k.AtKind(ev.t, ev.kind, fn)
	case 2:
		h.k.AfterKind(d, ev.kind, fn)
	case 3:
		ev.timer = h.k.Timer(d, ev.kind, fn)
	}
}

// serve books a job of the given service on server i. One in four jobs
// has a nil done: it takes no sequence number and never fires, but it
// still holds the server busy.
func (h *orderHarness) serve(i int, service Duration) {
	start := h.k.Now()
	if h.busy[i] > start {
		start = h.busy[i]
	}
	finish := start.Add(service)
	h.busy[i] = finish
	var done func()
	if h.rng.Intn(4) > 0 {
		ev := &refEvent{t: finish, seq: h.seq, server: i + 1}
		h.seq++
		h.evs = append(h.evs, ev)
		done = func() { h.fire(ev) }
	}
	if got := h.servers[i].Serve(service, done); got != finish {
		h.t.Fatalf("Serve(%d) on server %d = %d, reference %d", service, i, got, finish)
	}
	if got := h.servers[i].BusyUntil(); got != finish {
		h.t.Fatalf("server %d BusyUntil = %d, reference %d", i, got, finish)
	}
}

// live reports whether ev is still due to fire.
func (ev *refEvent) live() bool { return !ev.fired && !ev.canceled }

func (ev *refEvent) before(o *refEvent) bool {
	return ev.t < o.t || ev.t == o.t && ev.seq < o.seq
}

// pending is the reference count of live non-observer events, server
// jobs queued behind their server's head included.
func (h *orderHarness) pending() int {
	n := 0
	for _, ev := range h.evs {
		if ev.live() && ev.kind != KindObserver {
			n++
		}
	}
	return n
}

func (h *orderHarness) fire(ev *refEvent) {
	t := h.t
	if !ev.live() {
		t.Fatalf("event (t=%d seq=%d) ran after firing or cancel", ev.t, ev.seq)
	}
	if h.k.Now() != ev.t {
		t.Fatalf("event (t=%d seq=%d) ran at Now=%d", ev.t, ev.seq, h.k.Now())
	}
	for _, o := range h.evs {
		if o != ev && o.live() && o.before(ev) {
			t.Fatalf("event (t=%d seq=%d) ran before live (t=%d seq=%d)", ev.t, ev.seq, o.t, o.seq)
		}
	}
	ev.fired = true
	h.fired = append(h.fired, ev)
	h.byKind[ev.kind]++
	if got, want := h.k.Pending(), h.pending(); got != want {
		t.Fatalf("Pending = %d inside event (t=%d seq=%d), reference %d", got, ev.t, ev.seq, want)
	}
	// A completing server job often books its own server again, as a
	// ring link's departure books the next station's link.
	if ev.server > 0 && h.budget > 0 && h.rng.Intn(2) == 0 {
		h.budget--
		h.serve(ev.server-1, h.delay())
	}
	for n := h.rng.Intn(3); n > 0 && h.budget > 0; n-- {
		h.budget--
		h.schedule(h.delay())
	}
	if h.rng.Intn(3) == 0 {
		h.cancelOne()
	}
}

// cancelOne stops a random cancelable event.
func (h *orderHarness) cancelOne() {
	var timers []*refEvent
	for _, ev := range h.evs {
		if ev.timer != nil {
			timers = append(timers, ev)
		}
	}
	if len(timers) == 0 {
		return
	}
	h.stop(timers[h.rng.Intn(len(timers))])
}

// stop stops a cancelable event; Stop must report whether the event
// was still live.
func (h *orderHarness) stop(ev *refEvent) {
	if got, want := ev.timer.Stop(), ev.live(); got != want {
		h.t.Fatalf("Stop of (t=%d seq=%d) = %v, want %v", ev.t, ev.seq, got, want)
	}
	if ev.live() {
		ev.canceled = true
	}
}

// checkKinds compares the profiler's per-kind event counts with the
// kinds of the events fired so far: the kernel charges every executed
// event to the kind it was scheduled with, a Server job to KindEvent,
// and a canceled event to none.
func (h *orderHarness) checkKinds(when string) {
	for kind := range numKinds {
		if got, want := h.prof.stats[kind].Events, h.byKind[kind]; got != want {
			h.t.Fatalf("%s: profiler charged %d events to %v, reference %d", when, got, kind, want)
		}
	}
}

// run schedules an initial mix (with a burst of back-to-back jobs on
// every server, the shape of a DMA burst booking a link, and a backlog
// of quarter-horizon jobs that spans the horizon), runs it in RunUntil
// slices that cut through the backlogs, scheduling more after each,
// then to the end, and checks the execution against the reference sort
// by (t, seq).
func (h *orderHarness) run() {
	t := h.t
	for i := range h.servers {
		for n := h.rng.Intn(16); n > 0; n-- {
			h.serve(i, Duration(h.rng.Intn(3)*10))
		}
	}
	for n := h.rng.Intn(9); n > 0; n-- {
		h.serve(h.rng.Intn(numServers), wheelHorizon/4-1+Duration(h.rng.Intn(3)))
	}
	for i := 0; i < 40; i++ {
		h.schedule(h.delay())
	}
	// A cancelable event far past everything else, canceled before the
	// run: the final clock must not reach it.
	far := h.timer(1 << 40)
	h.stop(far)
	// A cancelable event past the horizon, stopped after the first
	// slice unless that slice reached it.
	late := h.timer(wheelHorizon + Duration(h.rng.Intn(64)))

	until := Time(0)
	for i := 0; i < 6; i++ {
		until = h.k.Now().Add(h.delay())
		h.k.RunUntil(until)
		if h.k.Now() != until {
			t.Fatalf("RunUntil(%d) left Now = %d", until, h.k.Now())
		}
		for _, ev := range h.evs {
			if ev.live() && ev.t <= until {
				t.Fatalf("RunUntil(%d) left (t=%d seq=%d) unfired", until, ev.t, ev.seq)
			}
		}
		if got, want := h.k.Pending(), h.pending(); got != want {
			t.Fatalf("Pending = %d after RunUntil(%d), reference %d", got, until, want)
		}
		h.checkKinds(fmt.Sprintf("after RunUntil(%d)", until))
		if i == 0 {
			h.stop(late)
		}
		for n := h.rng.Intn(3); n > 0; n-- {
			h.schedule(h.delay())
		}
	}
	if err := h.k.Run(); err != nil {
		t.Fatal(err)
	}

	var want []*refEvent
	for _, ev := range h.evs {
		if !ev.canceled {
			want = append(want, ev)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	if len(h.fired) != len(want) {
		t.Fatalf("fired %d events, reference %d", len(h.fired), len(want))
	}
	end := until
	for i, ev := range want {
		if h.fired[i] != ev {
			t.Fatalf("execution %d = (t=%d seq=%d), reference (t=%d seq=%d)",
				i, h.fired[i].t, h.fired[i].seq, ev.t, ev.seq)
		}
		if ev.t > end {
			end = ev.t
		}
	}
	if h.k.Now() != end {
		t.Fatalf("final Now = %d, want %d: a canceled event advanced the clock", h.k.Now(), end)
	}
	if h.k.Executed() != int64(len(h.fired)) {
		t.Fatalf("Executed = %d, fired %d", h.k.Executed(), len(h.fired))
	}
	if h.k.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", h.k.Pending())
	}
	h.checkKinds("after Run")
}

// timer schedules a plain cancelable event d from now.
func (h *orderHarness) timer(d Duration) *refEvent {
	ev := &refEvent{t: h.k.Now().Add(d), seq: h.seq}
	h.seq++
	ev.timer = h.k.Timer(d, KindEvent, func() { h.fire(ev) })
	h.evs = append(h.evs, ev)
	return ev
}

// TestPopOrderMatchesReference pins the kernel's execution order to a
// reference sort by (t, seq) under a randomized mix of At, AtKind,
// AfterKind and cancelable events of every kind, Server jobs (zero service,
// nil callbacks, backlogs booked from outside and from inside their
// own server's completions), events scheduled from inside callbacks,
// mid-run cancels and RunUntil slices, with delays, service times and
// slices on both sides of the wheel's horizon: far events that tie in
// time with near ones, Server backlogs that span the horizon and
// cancelable events stopped while far. Canceled events never fire and
// never advance the clock, and Pending always equals the reference
// count of live non-observer events, queued server jobs included. An
// installed Profiler charges each executed event to the kind it was
// scheduled with.
func TestPopOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			newOrderHarness(t, NewRNG(seed)).run()
		})
	}
}

// FuzzKernelOrder runs the TestPopOrderMatchesReference harness with
// every choice (which call, its delay or service, which server, when to
// cancel, the RunUntil horizons) decoded from the fuzzer's bytes. Its
// seed corpus is under testdata/fuzz/FuzzKernelOrder.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := byteChooser(data)
		newOrderHarness(t, &b).run()
	})
}
