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
package sim

import (
	"container/heap"
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

// Timer is a scheduled event, returned by At and its variants so the
// caller can cancel it before it fires.
type Timer struct {
	t   Time
	seq uint64
	// fn is nil once the event fired or was canceled; canceled events
	// stay in the heap and are skipped when popped.
	fn func()
	// observer events (periodic monitors: metrics streams, heartbeat
	// tickers) are invisible to Pending, so several observers never keep
	// each other — or a finished simulation — alive.
	observer bool
	// kind labels the event for the self-profiler (AtKind/AfterKind);
	// empty means the generic "event" kind ("observer" when observer).
	kind string
}

// Stop cancels the timer. It reports whether the event had not yet
// fired or been canceled.
func (t *Timer) Stop() bool {
	if t == nil || t.fn == nil {
		return false
	}
	t.fn = nil
	return true
}

// kindOf returns the profiling label of an event.
func kindOf(ev *Timer) string {
	if ev.kind != "" {
		return ev.kind
	}
	if ev.observer {
		return "observer"
	}
	return "event"
}

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Timer)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now      Time
	seq      uint64
	events   eventHeap
	procs    []*Proc
	live     int
	closed   bool
	executed int64
	prof     *Profiler
}

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute time t (which must not be in the
// past) and returns a cancelable handle.
func (k *Kernel) At(t Time, fn func()) *Timer {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	ev := &Timer{t: t, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.events, ev)
	return ev
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) *Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	return k.At(k.now.Add(d), fn)
}

// AtObserver schedules fn like At but marks the event as an observer
// event: it fires normally yet is not counted by Pending. Periodic
// monitors (metrics streams, liveness tickers) schedule themselves this
// way so that each can use "Pending() == 0" to mean "only observers
// remain — the workload is done", even when several observers coexist.
func (k *Kernel) AtObserver(t Time, fn func()) *Timer {
	tm := k.At(t, fn)
	tm.observer = true
	return tm
}

// AfterObserver schedules fn like After, as an observer event.
func (k *Kernel) AfterObserver(d Duration, fn func()) *Timer {
	tm := k.After(d, fn)
	tm.observer = true
	return tm
}

// AtKind schedules fn like At with a profiling label: when a Profiler
// is installed, the event's wall-clock execution cost is attributed to
// kind instead of the generic "event" bucket. The label changes nothing
// else — ordering, Pending and the virtual clock are untouched.
func (k *Kernel) AtKind(t Time, kind string, fn func()) *Timer {
	tm := k.At(t, fn)
	tm.kind = kind
	return tm
}

// AfterKind schedules fn like After, labeled for the profiler.
func (k *Kernel) AfterKind(d Duration, kind string, fn func()) *Timer {
	tm := k.After(d, fn)
	tm.kind = kind
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
		ev := heap.Pop(&k.events).(*Timer)
		fn := ev.fn
		if fn == nil {
			continue
		}
		ev.fn = nil
		k.now = ev.t
		k.executed++
		if k.prof != nil {
			t0 := time.Now()
			fn()
			k.prof.record(kindOf(ev), time.Since(t0).Nanoseconds())
		} else {
			fn()
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
	for len(k.events) > 0 {
		if next := k.peek(); next == nil || next.t > t {
			break
		}
		k.step()
	}
	if t > k.now {
		k.now = t
	}
}

// RunFor runs the simulation for d virtual time from now.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

func (k *Kernel) peek() *Timer {
	for len(k.events) > 0 {
		if k.events[0].fn == nil {
			heap.Pop(&k.events)
			continue
		}
		return k.events[0]
	}
	return nil
}

// Pending counts scheduled, non-canceled, non-observer events still in
// the heap. A periodic observer (e.g. a metrics snapshot stream or a
// heartbeat ticker) uses it to decide whether rescheduling itself would
// keep an otherwise-finished simulation alive: when Pending is zero
// inside a timer callback, every remaining event belongs to observers,
// which all terminate themselves by the same test. Observers must
// schedule with AtObserver/AfterObserver for this to hold.
func (k *Kernel) Pending() int {
	n := 0
	for _, ev := range k.events {
		if ev.fn != nil && !ev.observer {
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
