// The go1.23 constraint raises this file's language version to one with
// iter.Pull. go.mod itself stays at go 1.22: the benchmark module
// requires this one through a replace directive and declares go 1.22,
// and raising the dependency's go line breaks that module's build.
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a runtime coroutine (iter.Pull) scheduled
// by the kernel. At most one process executes at any instant; a running
// process owns the simulation until it blocks (Delay, Cond.Wait, ...),
// so process code may freely read and write shared model state without
// synchronization.
type Proc struct {
	k    *Kernel
	name string
	// wake runs the process until it blocks or returns (a no-op once it
	// has returned); it is the one closure every Delay and Cond
	// wake-up schedules. yield, called from inside the process, suspends
	// it back to the caller of wake.
	wake   func()
	yield  func(struct{}) bool
	done   bool
	killed bool
	daemon bool
	// parked is set while the process waits in Park for a Resume.
	parked bool
	// blockedOn is a short description of the current blocking call,
	// used by deadlock reports.
	blockedOn string
}

// killedPanic unwinds a process that the kernel terminated.
type killedPanic struct{ name string }

// Spawn starts a new process at the current virtual time. fn runs as a
// coroutine; it must perform all waiting through p (never real time or
// real channels). A panic in fn other than the kernel's own kill
// reaches the caller of Run, RunUntil or Close, annotated with the
// process name.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	// stop is never needed: Close unwinds a live process by resuming it
	// with killed set, which runs its defers.
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			if !p.daemon {
				k.live--
			}
			r := recover()
			if _, ok := r.(killedPanic); ok || r == nil {
				return
			}
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}()
		fn(p)
	})
	p.wake = func() {
		k.running = p
		next()
		k.running = nil
	}
	k.procs = append(k.procs, p)
	k.live++
	k.AtKind(k.now, KindProc, p.wake)
	return p
}

// SpawnDaemon starts a background service process (e.g. a node's
// protocol stack). Daemons block forever between requests by design, so
// they do not count as deadlocked when the event queue drains.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	p := k.Spawn(name, fn)
	p.daemon = true
	k.live--
	return p
}

// block suspends the calling process until the kernel resumes it.
func (p *Proc) block(what string) {
	p.blockedOn = what
	p.yield(struct{}{})
	p.blockedOn = ""
	if p.killed {
		panic(killedPanic{p.name})
	}
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Delay suspends the process for d of virtual time. It models time spent
// computing or waiting; charging software path costs is done with Delay.
func (p *Proc) Delay(d Duration) {
	if d < 0 {
		panic("sim: negative delay")
	}
	if d == 0 {
		return
	}
	p.k.AfterKind(d, KindProc, p.wake)
	p.block("delay")
}

// Park suspends the process until an event callback calls Resume. Park
// schedules nothing: the caller must already have scheduled the event
// whose callback resumes it. A parked process that nothing will resume
// is blocked forever, and Run reports it in its DeadlockError like any
// other.
func (p *Proc) Park() {
	p.parked = true
	p.block("park")
}

// Resume runs a parked process inside the calling event callback, until
// the process blocks again or returns. It schedules no event of its
// own, so the resumed run is part of the callback's event: Executed
// counts one event for both. Resume on a finished process is a no-op.
// It panics when called from a process rather than an event callback,
// and on a live process that is not parked.
func (p *Proc) Resume() {
	if p.done {
		return
	}
	if p.k.running != nil {
		panic(fmt.Sprintf("sim: Resume of %q from inside process %q", p.name, p.k.running.name))
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: Resume of %q, which is not parked", p.name))
	}
	p.parked = false
	p.wake()
}

// Cond is a waitable condition. Unlike sync.Cond there is no mutex: the
// simulation is single-threaded by construction, so a process re-checks
// its predicate immediately upon waking.
type Cond struct {
	k       *Kernel
	waiters []*Proc
}

// NewCond returns a condition attached to k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait blocks p until Signal or Broadcast wakes it. As with sync.Cond,
// callers loop: for !pred() { c.Wait(p) }.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.block("cond")
}

// WaitTimeout blocks p until the condition is signaled or d elapses.
// It reports true if woken by a signal and false on timeout. A signal
// and the timeout at the same instant resolve by event order: whichever
// runs first takes p off the wait list, and only that one wakes it.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool {
	fired := false
	timer := c.k.Timer(d, KindProc, func() {
		if c.remove(p) {
			fired = true
			p.wake()
		}
	})
	c.waiters = append(c.waiters, p)
	p.block("cond-timeout")
	if fired {
		return false
	}
	timer.Stop()
	return true
}

// remove takes p off the wait list, reporting whether it was there.
func (c *Cond) remove(p *Proc) bool {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Signal wakes the longest-waiting process, if any, shifting the wait
// list down in place so its backing array is reused.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	last := len(c.waiters) - 1
	copy(c.waiters, c.waiters[1:])
	c.waiters[last] = nil
	c.waiters = c.waiters[:last]
	c.k.AfterKind(0, KindProc, p.wake)
}

// Broadcast wakes every waiting process in FIFO order. The wait list
// keeps its backing array: the wake-ups are events, so no process can
// rejoin the list before it is emptied.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.k.AfterKind(0, KindProc, p.wake)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}
