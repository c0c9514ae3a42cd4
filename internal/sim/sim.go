// Package sim implements a deterministic discrete-event simulation kernel
// with a virtual nanosecond clock.
//
// The kernel interleaves two kinds of activity:
//
//   - plain events: closures scheduled at an absolute virtual time with
//     Kernel.At or Kernel.After, executed on the kernel goroutine; and
//   - processes: runtime coroutines (iter.Pull; see Proc) that model
//     software running on a simulated CPU. A process runs exclusively:
//     resuming it switches directly from the kernel to the coroutine,
//     and the process switches back when it blocks again. All simulation
//     state is therefore accessed by one execution at a time and no
//     locking is needed anywhere in the models.
//
// Events with equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes every run of a
// simulation bit-for-bit reproducible.
//
// Scheduling is fire-and-forget: At, AtKind and AfterKind store the
// event by value in the kernel's heap and return nothing, so a
// steady-state simulation schedules without allocating. A heap entry is
// 24 bytes: the time, the callback and one key that packs the sequence
// number shifted left by 8 over the event's Kind, which caps a kernel at
// 2^56 scheduled events. Only Kernel.Timer returns a handle, for the few
// callers that cancel; a flag bit in the key marks its event, and the
// handle waits in a side table keyed by sequence number. A
// Server keeps the jobs queued behind it in its own backlog, and only
// the job at the head of each backlog is in the heap; every queued job
// keeps the (time, sequence) key it took at Server.Serve, so it runs
// exactly where a separately scheduled event would.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// Time is an absolute virtual time in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Microseconds reports the duration as a floating-point microsecond count,
// the unit used throughout the paper's figures.
func (d Duration) Microseconds() float64 { return float64(d) / 1e3 }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Kind labels an event for the self-profiler and, for KindObserver,
// for Pending. It is a small integer so that an event carries it by
// value and the profiler indexes its per-kind table directly.
type Kind uint8

// Event kinds. KindEvent is the default of At and After; KindObserver
// marks periodic monitors (metrics streams, heartbeat tickers), which
// Pending does not count; the rest label model events: a process
// resume (Delay, Cond wake, Spawn — including all simulated
// software the process runs before blocking again), a ring hop, a host
// bus completion, an interrupt dispatch, a switched-fabric frame and a
// fault-script action.
const (
	KindEvent Kind = iota
	KindObserver
	KindProc
	KindRing
	KindBus
	KindIntr
	KindFabric
	KindFault
	numKinds
)

var kindNames = [numKinds]string{"event", "observer", "proc", "ring", "bus", "intr", "fabric", "fault"}

func (k Kind) String() string { return kindNames[k] }

// Timer is the handle of a cancelable event (Kernel.Timer). Plain
// events (At, After and their Kind variants) have no handle.
type Timer struct {
	// armed is true until the event fires or is stopped; a stopped
	// event stays in the heap and is skipped when popped.
	armed bool
}

// Stop cancels the timer. It reports whether the event had not yet
// fired or been canceled.
func (t *Timer) Stop() bool {
	if t == nil || !t.armed {
		return false
	}
	t.armed = false
	return true
}

// entry is one scheduled event, held by value in the kernel's heap. key
// is the event's unique scheduling sequence number shifted left by
// seqShift over its Kind, plus timerBit for a cancelable event, so
// ordering by key is ordering by sequence. This caps sequence numbers
// at 2^56.
type entry struct {
	t   Time
	key uint64
	fn  func()
}

const (
	seqShift = 8
	timerBit = 1 << 7
	kindMask = timerBit - 1
)

// less is the heap order, a total order on (t, key): it is 1 when
// (t1, k1) < (t2, k2) as unsigned 128-bit numbers (virtual times are
// never negative), read off the borrow without a branch.
func less(t1 Time, k1 uint64, t2 Time, k2 uint64) uint64 {
	_, b := bits.Sub64(k1, k2, 0)
	_, b = bits.Sub64(uint64(t1), uint64(t2), b)
	return b
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now Time
	seq uint64
	// events is a 4-ary min-heap ordered by less on (t, key): the
	// children of i are 4i+1 .. 4i+4.
	events []entry
	// timers holds the handle of each cancelable event in the heap, by
	// sequence number.
	timers map[uint64]*Timer
	// queued counts the Server jobs waiting behind their server's head
	// job, which is the only one of a server's jobs in the heap.
	queued   int
	procs    []*Proc
	live     int
	closed   bool
	executed int64
	prof     *Profiler
	// running is the process executing right now, nil while the kernel
	// runs a plain event callback.
	running *Proc
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel {
	return &Kernel{timers: make(map[uint64]*Timer)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// push schedules fn at t under the next sequence number, with the low
// byte of key (a Kind, and timerBit for a cancelable event) below it.
// It returns that sequence number.
func (k *Kernel) push(t Time, low uint64, fn func()) uint64 {
	seq := k.seq
	k.insert(t, seq<<seqShift|low, fn)
	k.seq++
	return seq
}

// insert adds an event to the heap under the key it already carries: a
// Server's queued job enters with the sequence number it took at Serve.
func (k *Kernel) insert(t Time, key uint64, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	h := append(k.events, entry{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if less(t, key, h[p].t, h[p].key) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = entry{t, key, fn}
	k.events = h
}

// pop removes the earliest event and returns its time, key and
// callback.
func (k *Kernel) pop() (Time, uint64, func()) {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	k.events = h
	if n > 0 {
		h[siftDown(h, last.t, last.key)] = last
	}
	return top.t, top.key, top.fn
}

// siftDown moves the hole at h[0] down to where an entry keyed (t, key)
// belongs and returns its index. The scan of each group of up to four
// children carries the running minimum's position, time and key in
// locals and selects with the borrow of less as a mask, without a
// data-dependent branch.
func siftDown(h []entry, t Time, key uint64) int {
	n, i := len(h), 0
	for c := 1; c < n; c = 4*i + 1 {
		m, mt, mk := c, h[c].t, h[c].key
		for j := c + 1; j < min(c+4, n); j++ {
			jt, jk := h[j].t, h[j].key
			sel := -less(jt, jk, mt, mk)
			m, mt, mk = m^(m^j)&int(sel), mt^(mt^jt)&Time(sel), mk^(mk^jk)&sel
		}
		if less(mt, mk, t, key) == 0 {
			break
		}
		h[i] = h[m]
		i = m
	}
	return i
}

// delay returns the time d from now, rejecting a negative d.
func (k *Kernel) delay(d Duration) Time {
	if d < 0 {
		panic("sim: negative delay")
	}
	return k.now.Add(d)
}

// At schedules fn to run at absolute time t, which must not be in the
// past.
func (k *Kernel) At(t Time, fn func()) { k.push(t, uint64(KindEvent), fn) }

// AtKind schedules fn like At with a kind. When a Profiler is
// installed, the event's wall-clock execution cost is attributed to
// kind; KindObserver also hides the event from Pending. The kind
// changes nothing else — ordering and the virtual clock are untouched.
func (k *Kernel) AtKind(t Time, kind Kind, fn func()) { k.push(t, uint64(kind), fn) }

// AfterKind schedules fn to run d from now, with a kind (see AtKind).
func (k *Kernel) AfterKind(d Duration, kind Kind, fn func()) { k.push(k.delay(d), uint64(kind), fn) }

// Timer schedules fn like AfterKind and returns a handle that can
// cancel it. It is the only scheduling call that allocates.
func (k *Kernel) Timer(d Duration, kind Kind, fn func()) *Timer {
	tm := &Timer{armed: true}
	k.timers[k.push(k.delay(d), timerBit|uint64(kind), fn)] = tm
	return tm
}

// SetProfiler installs (or, with nil, removes) a kernel self-profiler.
// Profiling reads the host clock around each executed event and
// attributes the cost to the event's kind; it charges zero virtual
// time and cannot reorder events, so a profiled run is bit-for-bit the
// same simulation. One profiler may be shared by consecutive kernels
// to accumulate a whole benchmark sweep.
func (k *Kernel) SetProfiler(p *Profiler) { k.prof = p }

// Executed returns how many events the kernel has executed so far
// (canceled events are not counted). With a profiler installed this
// equals the profiler's TotalEvents for this kernel — the identity
// cmd/anatomy -profile cross-checks.
func (k *Kernel) Executed() int64 { return k.executed }

// step executes the next pending event. It reports false when no events
// remain.
func (k *Kernel) step() bool {
	for len(k.events) > 0 {
		t, key, fn := k.pop()
		if key&timerBit != 0 && !k.disarm(key) {
			continue
		}
		k.now = t
		k.executed++
		if k.prof != nil {
			t0 := time.Now()
			fn()
			k.prof.record(Kind(key&kindMask), time.Since(t0).Nanoseconds())
		} else {
			fn()
		}
		return true
	}
	return false
}

// disarm retires the handle of a popped cancelable event and reports
// whether it was still armed.
func (k *Kernel) disarm(key uint64) bool {
	seq := key >> seqShift
	tm := k.timers[seq]
	delete(k.timers, seq)
	armed := tm.armed
	tm.armed = false
	return armed
}

// runs reports whether the event of key will run when popped.
func (k *Kernel) runs(key uint64) bool {
	return key&timerBit == 0 || k.timers[key>>seqShift].armed
}

// DeadlockError reports that the event queue drained while processes were
// still blocked: nothing can ever wake them.
type DeadlockError struct {
	Time    Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d: %d process(es) blocked forever: %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, ", "))
}

// Run executes events until none remain. It returns a *DeadlockError if
// processes are still blocked when the queue drains, and nil when every
// spawned process has terminated.
func (k *Kernel) Run() error {
	for k.step() {
	}
	return k.checkDeadlock()
}

// RunUntil executes events with timestamps <= t and then advances the
// clock to exactly t. Blocked processes are not a deadlock here: the
// caller may schedule more work and resume.
func (k *Kernel) RunUntil(t Time) {
	for k.peekLive() && k.events[0].t <= t {
		k.step()
	}
	if t > k.now {
		k.now = t
	}
}

// RunFor runs the simulation for d virtual time from now.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// peekLive discards canceled events from the top of the heap and
// reports whether a live one remains there.
func (k *Kernel) peekLive() bool {
	for len(k.events) > 0 {
		if k.runs(k.events[0].key) {
			return true
		}
		_, key, _ := k.pop()
		k.disarm(key)
	}
	return false
}

// Pending counts scheduled, non-canceled, non-observer events still to
// run, Server jobs queued behind their server's head included. A
// periodic observer (e.g. a metrics snapshot stream or a heartbeat
// ticker) uses it to decide whether rescheduling itself would keep an
// otherwise-finished simulation alive: when Pending is zero
// inside a timer callback, every remaining event belongs to observers,
// which all terminate themselves by the same test. Observers must
// schedule with KindObserver for this to hold.
func (k *Kernel) Pending() int {
	n := k.queued
	for i := range k.events {
		if key := k.events[i].key; Kind(key&kindMask) != KindObserver && k.runs(key) {
			n++
		}
	}
	return n
}

func (k *Kernel) checkDeadlock() error {
	if k.live == 0 {
		return nil
	}
	var blocked []string
	for _, p := range k.procs {
		if !p.done && !p.daemon {
			blocked = append(blocked, p.name)
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Time: k.now, Blocked: blocked}
}

// Close terminates every still-live process (each coroutine unwinds via
// an internal panic, running its defers) so that a test or tool can
// abandon a simulation without leaking goroutines. The kernel must not
// be used afterwards.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, p := range k.procs {
		if !p.done {
			p.killed = true
			p.wake()
		}
	}
}
