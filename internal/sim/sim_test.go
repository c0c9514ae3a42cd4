package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %d, want 30", k.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: got[%d]=%d", i, got[i])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(10, func() {
		k.AfterKind(5, KindEvent, func() { fired++ })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || k.Now() != 15 {
		t.Fatalf("fired=%d now=%d", fired, k.Now())
	}
}

func TestTimerStop(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.Timer(10, KindEvent, func() { fired = true })
	k.At(5, func() {
		if !tm.Stop() {
			t.Error("Stop returned false for pending timer")
		}
		if tm.Stop() {
			t.Error("second Stop returned true")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}

	done := k.Timer(20, KindEvent, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done.Stop() {
		t.Error("Stop returned true for a timer that already fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		k.At(5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling a negative delay")
		}
	}()
	k.AfterKind(-1, KindEvent, func() {})
}

// TestKindNames pins the kind names the profiler reports: the metrics
// registry and the benchmark's sim.<kind>.* metrics are keyed by them.
func TestKindNames(t *testing.T) {
	want := map[Kind]string{
		KindEvent: "event", KindObserver: "observer", KindProc: "proc", KindRing: "ring",
		KindBus: "bus", KindIntr: "intr", KindFabric: "fabric", KindFault: "fault",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, name)
		}
	}
}

func TestProcDelay(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.Spawn("p", func(p *Proc) {
		times = append(times, p.Now())
		p.Delay(100)
		times = append(times, p.Now())
		p.Delay(50)
		times = append(times, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 100, 150}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcExclusivity(t *testing.T) {
	// Two processes incrementing a shared counter must never observe a
	// torn interleave: each runs exclusively between blocking points.
	k := NewKernel()
	shared := 0
	worker := func(p *Proc) {
		for i := 0; i < 1000; i++ {
			v := shared
			// No blocking between read and write: must be atomic w.r.t.
			// the other process.
			shared = v + 1
			p.Delay(1)
		}
	}
	k.Spawn("a", worker)
	k.Spawn("b", worker)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if shared != 2000 {
		t.Fatalf("shared = %d, want 2000", shared)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	ready := false
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for !ready {
				c.Wait(p)
			}
			woken++
		})
	}
	k.Spawn("signaler", func(p *Proc) {
		p.Delay(10)
		ready = true
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	var timedOut, signaled bool
	k.Spawn("timeout", func(p *Proc) {
		timedOut = !c.WaitTimeout(p, 50)
	})
	k.Spawn("signaled", func(p *Proc) {
		p.Delay(60) // join after the first waiter timed out
		ok := c.WaitTimeout(p, 1000)
		signaled = ok
	})
	k.Spawn("signaler", func(p *Proc) {
		p.Delay(100)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Error("first waiter should have timed out")
	}
	if !signaled {
		t.Error("second waiter should have been signaled")
	}
}

// TestCondWaitTimeoutSignalAtDeadline pins the tie between a Signal and
// the timeout at the same instant when the Signal's event runs first:
// the waiter is woken once, by the signal, and the timer that fires
// right after finds it gone from the wait list and does nothing. A
// second wake-up would end the waiter's next block (here a Delay) early.
func TestCondWaitTimeoutSignalAtDeadline(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	k.At(100, c.Signal) // sorts before the waiter's timeout at t=100
	signaled := false
	var slept Duration
	k.Spawn("waiter", func(p *Proc) {
		signaled = c.WaitTimeout(p, 100)
		start := p.Now()
		p.Delay(100)
		slept = p.Now().Sub(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !signaled {
		t.Error("WaitTimeout = false, want true: the signal ran before the timeout")
	}
	if slept != 100 {
		t.Errorf("Delay(100) after the wait returned after %v: the waiter was woken twice", slept)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	k.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
	k.Close()
}

func TestCloseUnwindsProcesses(t *testing.T) {
	k := NewKernel()
	cleaned := false
	c := NewCond(k)
	k.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		c.Wait(p)
	})
	k.RunFor(10)
	k.Close()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Close")
	}
}

func TestProcPanicReachesRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("faulty", func(p *Proc) {
		p.Delay(5)
		panic("boom")
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `process "faulty" panicked: boom`) {
			t.Fatalf("recovered %q, want the annotated process panic", msg)
		}
	}()
	k.Run()
	t.Fatal("Run returned normally after a process panicked")
}

// TestDelayAllocs pins the cost of one Delay round trip at zero
// allocations: the wake-up is a value entry in the kernel's event queue.
func TestDelayAllocs(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.SpawnDaemon("sleeper", func(p *Proc) {
		for {
			p.Delay(1)
		}
	})
	k.RunUntil(0)
	if allocs := testing.AllocsPerRun(100, func() { k.RunFor(1) }); allocs != 0 {
		t.Fatalf("Delay round trip allocates %v objects, want 0", allocs)
	}
}

// TestCondAllocs pins a warmed-up Cond round trip at zero allocations:
// Signal and Broadcast empty the wait list in place, so the waiters'
// next Wait appends into the same backing array.
func TestCondAllocs(t *testing.T) {
	for name, wake := range map[string]func(*Cond){
		"signal":    (*Cond).Signal,
		"broadcast": (*Cond).Broadcast,
	} {
		k := NewKernel()
		c := NewCond(k)
		woken := 0
		for i := 0; i < 2; i++ {
			k.SpawnDaemon(fmt.Sprint("waiter", i), func(p *Proc) {
				for {
					c.Wait(p)
					woken++
				}
			})
		}
		k.SpawnDaemon("waker", func(p *Proc) {
			for {
				p.Delay(1)
				wake(c)
			}
		})
		k.RunFor(4)
		if allocs := testing.AllocsPerRun(100, func() { k.RunFor(1) }); allocs != 0 {
			t.Errorf("%s/Wait round trip allocates %v objects, want 0", name, allocs)
		}
		if woken == 0 {
			t.Errorf("%s woke no waiter", name)
		}
		k.Close()
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(100, func() { fired = true })
	k.RunUntil(50)
	if fired || k.Now() != 50 {
		t.Fatalf("fired=%v now=%d", fired, k.Now())
	}
	k.RunUntil(150)
	if !fired || k.Now() != 150 {
		t.Fatalf("fired=%v now=%d", fired, k.Now())
	}
	k.Close()
}

// TestQueuePushPopAllocs checks that a warmed queue's push/pop cycles
// reuse its buffer: TryPop keeps the buffer's capacity, so Push never
// reallocates in steady state.
func TestQueuePushPopAllocs(t *testing.T) {
	q := NewQueue[int](NewKernel())
	round := func() {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for i := 0; i < 8; i++ {
			if v, ok := q.TryPop(); !ok || v != i {
				t.Fatalf("TryPop = %d, %v; want %d, true", v, ok, i)
			}
		}
		if _, ok := q.TryPop(); ok {
			t.Fatal("TryPop of an empty queue reported an item")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warmed push/pop round: %v allocations, want 0", allocs)
	}
}

func TestQueueFIFO(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(p))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Delay(10)
			q.Push(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("queue not FIFO: %v", got)
		}
	}
}

func TestServerFIFOBacklog(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	var done []Time
	k.At(0, func() {
		s.Serve(100, func() { done = append(done, k.Now()) })
		s.Serve(50, func() { done = append(done, k.Now()) })
	})
	k.At(10, func() {
		s.Serve(5, func() { done = append(done, k.Now()) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 150, 155}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
}

func TestServerIdleRestart(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	var completion Time
	k.At(0, func() { s.Serve(10, nil) })
	k.At(100, func() { completion = s.Serve(10, nil) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if completion != 110 {
		t.Fatalf("completion = %d, want 110 (server should idle between jobs)", completion)
	}
}

// TestServeNegativeServicePanics checks that a negative service time
// is rejected at the Serve call, as a negative delay is, and leaves the
// server's backlog untouched: accepted, it would complete before the
// job queued ahead of it and break the backlog's (t, seq) order.
func TestServeNegativeServicePanics(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	s.Serve(100, func() {})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic serving a negative service time")
			}
		}()
		s.Serve(-1, func() {})
	}()
	if s.BusyUntil() != 100 || k.Pending() != 1 {
		t.Fatalf("after the rejected Serve: BusyUntil = %d, Pending = %d; want 100, 1", s.BusyUntil(), k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Executed() != 1 || k.Now() != 100 {
		t.Fatalf("Executed = %d at Now = %d, want 1 at 100", k.Executed(), k.Now())
	}
}

// queueLen counts the events in the kernel's queue, both tiers.
func (k *Kernel) queueLen() int { return k.near + len(k.far) }

// TestServerBacklogHoldsOneHeapEntry checks that a server's queued jobs
// wait outside the kernel's event queue, holding one entry there for
// the backlog's head, that Pending still counts them, and
// that they complete at their booked times without allocating once
// the backlog's buffer has grown.
func TestServerBacklogHoldsOneHeapEntry(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	var done []Time
	record := func() { done = append(done, k.Now()) }
	for i := 0; i < 100; i++ {
		s.Serve(10, record)
	}
	if k.queueLen() != 1 || k.Pending() != 100 {
		t.Fatalf("queue holds %d entries, Pending = %d; want 1, 100", k.queueLen(), k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range done {
		if at != Time(10*(i+1)) {
			t.Fatalf("job %d completed at %d, want %d", i, at, 10*(i+1))
		}
	}
	nop := func() {}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			s.Serve(10, nop)
		}
		k.Run()
	}); allocs != 0 {
		t.Fatalf("a 100-job backlog allocates %.1f times per drain, want 0", allocs)
	}
}

func TestDeterminismProperty(t *testing.T) {
	// Property: two identical simulations produce identical event traces.
	run := func(seed uint64) []Time {
		k := NewKernel()
		defer k.Close()
		rng := NewRNG(seed)
		var trace []Time
		for i := 0; i < 20; i++ {
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Delay(rng.Duration(1000) + 1)
					trace = append(trace, p.Now())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	f := func(seed uint64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 50; i++ {
			x, y := a.Intn(m), b.Intn(m)
			if x != y || x < 0 || x >= m {
				return false
			}
			fa, fb := a.Float64(), b.Float64()
			if fa != fb || fa < 0 || fa >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{7800, "7.800µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestObserverEventsExcludedFromPending(t *testing.T) {
	k := NewKernel()
	fired := 0
	// Two periodic observers, each rearming only while real work remains:
	// because observer events never count in Pending, neither keeps the
	// other alive, and both stop after the last real event drains.
	var tickA, tickB func()
	tickA = func() {
		fired++
		if k.Pending() > 0 {
			k.AfterKind(3, KindObserver, tickA)
		}
	}
	tickB = func() {
		fired++
		if k.Pending() > 0 {
			k.AfterKind(5, KindObserver, tickB)
		}
	}
	k.AfterKind(3, KindObserver, tickA)
	k.AfterKind(5, KindObserver, tickB)
	if k.Pending() != 0 {
		t.Fatalf("observer events counted in Pending: %d", k.Pending())
	}
	k.At(20, func() {})
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("observer ticks never fired")
	}
	// Both tickers must have self-terminated: a second Run finds nothing.
	if k.Pending() != 0 {
		t.Fatalf("observers left pending work: %d", k.Pending())
	}
}

func TestObserverTimerStop(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.Timer(10, KindObserver, func() { fired = true })
	k.At(20, func() {})
	tm.Stop()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped observer timer fired")
	}
}

func TestDaemonNotADeadlock(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	served := 0
	k.SpawnDaemon("service", func(p *Proc) {
		for {
			q.Pop(p)
			served++
		}
	})
	k.Spawn("client", func(p *Proc) {
		p.Delay(10)
		q.Push(1)
		q.Push(2)
		p.Delay(10)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
	if served != 2 {
		t.Fatalf("served = %d, want 2", served)
	}
	k.Close()
}

func TestDaemonPlusStuckProcStillDeadlocks(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	k.SpawnDaemon("service", func(p *Proc) { c.Wait(p) })
	k.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
		t.Fatalf("err = %v", err)
	}
	k.Close()
}

// TestResumeRunsInsideCallback checks that Resume runs a parked process
// within the calling event: the process sees the callback's time and
// event count, and the resumed run adds no event to Executed.
func TestResumeRunsInsideCallback(t *testing.T) {
	k := NewKernel()
	var seenAt Time
	var seenExec int64
	var p *Proc
	p = k.Spawn("parker", func(p *Proc) {
		p.Park()
		seenAt, seenExec = p.Now(), k.Executed()
		p.Delay(5)
	})
	k.At(10, func() {
		before := k.Executed()
		p.Resume()
		if k.Executed() != before {
			t.Errorf("Resume moved Executed from %d to %d", before, k.Executed())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if seenAt != 10 || seenExec != 2 {
		t.Fatalf("resumed at t=%d after %d events, want t=10 after 2", seenAt, seenExec)
	}
	// Spawn's start, the callback (with the resumed run) and the Delay.
	if k.Executed() != 3 || k.Now() != 15 {
		t.Fatalf("Executed=%d Now=%d, want 3 and 15", k.Executed(), k.Now())
	}
	p.Resume() // finished: a no-op
}

// TestCloseUnwindsParked checks that Close unwinds a parked process and
// runs its defers.
func TestCloseUnwindsParked(t *testing.T) {
	k := NewKernel()
	unwound := false
	k.Spawn("parker", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park()
		t.Error("parked process ran past Park")
	})
	k.RunUntil(0)
	k.Close()
	if !unwound {
		t.Fatal("Close did not run the parked process's defers")
	}
}

// TestParkedForeverDeadlocks checks that a process parked with nothing
// left to resume it is reported blocked.
func TestParkedForeverDeadlocks(t *testing.T) {
	k := NewKernel()
	k.Spawn("orphan", func(p *Proc) { p.Park() })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != "orphan" {
		t.Fatalf("err = %v, want a DeadlockError naming orphan", err)
	}
	k.Close()
}

// TestResumeMisuse checks the two illegal Resumes: of a process that is
// not parked, and from inside a process.
func TestResumeMisuse(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	k := NewKernel()
	sleeper := k.Spawn("sleeper", func(p *Proc) { p.Delay(100) })
	parker := k.Spawn("parker", func(p *Proc) { p.Park() })
	k.Spawn("caller", func(p *Proc) {
		panics("Resume from a process", parker.Resume)
	})
	k.RunUntil(1)
	panics("Resume of a delayed process", sleeper.Resume)
	parker.Resume()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
