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
// Scheduling is fire-and-forget: At, After, AtKind and AfterKind store
// the event by value in the kernel's heap and return nothing, so a
// steady-state simulation schedules without allocating. Only
// Kernel.Timer returns a handle, for the few callers that cancel. A
// Server keeps the jobs queued behind it in its own backlog, and only
// the job at the head of each backlog is in the heap; every queued job
// keeps the (time, sequence) key it took at Server.Serve, so it runs
// exactly where a separately scheduled event would.
package sim

import (
	"fmt"
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

// entry is one scheduled event, held by value in the kernel's heap.
// tm is nil for plain events.
type entry struct {
	t    Time
	seq  uint64
	fn   func()
	tm   *Timer
	kind Kind
}

// before is the heap order: by time, then by scheduling sequence. seq
// is unique, so this is a total order and the pop sequence does not
// depend on the heap's shape.
func (e *entry) before(o *entry) bool {
	return e.t < o.t || e.t == o.t && e.seq < o.seq
}

// live reports whether the event will run when popped.
func (e *entry) live() bool { return e.tm == nil || e.tm.armed }

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now Time
	seq uint64
	// events is a 4-ary min-heap ordered by entry.before: the children
	// of i are 4i+1 .. 4i+4.
	events []entry
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
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// push schedules fn of the given kind at t, taking the next sequence
// number.
func (k *Kernel) push(t Time, kind Kind, fn func(), tm *Timer) {
	k.insert(entry{t: t, seq: k.seq, fn: fn, tm: tm, kind: kind})
	k.seq++
}

// insert adds e to the heap under the sequence number it already
// carries: a Server's queued job enters with the seq it took at Serve.
func (k *Kernel) insert(e entry) {
	if e.t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", e.t, k.now))
	}
	h := append(k.events, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.events = h
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() entry {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	k.events = h
	return top
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
func (k *Kernel) At(t Time, fn func()) { k.push(t, KindEvent, fn, nil) }

// AtKind schedules fn like At with a kind. When a Profiler is
// installed, the event's wall-clock execution cost is attributed to
// kind; KindObserver also hides the event from Pending. The kind
// changes nothing else — ordering and the virtual clock are untouched.
func (k *Kernel) AtKind(t Time, kind Kind, fn func()) { k.push(t, kind, fn, nil) }

// AfterKind schedules fn to run d from now, with a kind (see AtKind).
func (k *Kernel) AfterKind(d Duration, kind Kind, fn func()) { k.push(k.delay(d), kind, fn, nil) }

// Timer schedules fn like AfterKind and returns a handle that can
// cancel it. It is the only scheduling call that allocates.
func (k *Kernel) Timer(d Duration, kind Kind, fn func()) *Timer {
	tm := &Timer{armed: true}
	k.push(k.delay(d), kind, fn, tm)
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
		e := k.pop()
		if e.tm != nil {
			if !e.tm.armed {
				continue
			}
			e.tm.armed = false
		}
		k.now = e.t
		k.executed++
		if k.prof != nil {
			t0 := time.Now()
			e.fn()
			k.prof.record(e.kind, time.Since(t0).Nanoseconds())
		} else {
			e.fn()
		}
		return true
	}
	return false
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
		if k.events[0].live() {
			return true
		}
		k.pop()
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
		if e := &k.events[i]; e.kind != KindObserver && e.live() {
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
