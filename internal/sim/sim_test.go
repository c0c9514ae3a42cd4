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
		k.After(5, func() { fired++ })
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
	tm := k.At(10, func() { fired = true })
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

	done := k.At(20, func() {})
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

// TestDelayAllocs pins the cost of one Delay round trip: the Timer the
// kernel schedules is its only allocation.
func TestDelayAllocs(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.SpawnDaemon("sleeper", func(p *Proc) {
		for {
			p.Delay(1)
		}
	})
	k.RunUntil(0)
	if allocs := testing.AllocsPerRun(100, func() { k.RunFor(1) }); allocs > 1 {
		t.Fatalf("Delay round trip allocates %v objects, want at most 1", allocs)
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

func TestQueuePopTimeout(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string](k)
	var ok1, ok2 bool
	k.Spawn("c", func(p *Proc) {
		_, ok1 = q.PopTimeout(p, 10)
		v, ok := q.PopTimeout(p, 100)
		ok2 = ok && v == "hello"
	})
	k.Spawn("p", func(p *Proc) {
		p.Delay(50)
		q.Push("hello")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 {
		t.Error("first pop should time out")
	}
	if !ok2 {
		t.Error("second pop should succeed")
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

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(42)
	const mean = 1000
	var sum Duration
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := float64(sum) / n
	if got < 950 || got > 1050 {
		t.Fatalf("Exp mean = %.1f, want ~%d", got, mean)
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
			k.AfterObserver(3, tickA)
		}
	}
	tickB = func() {
		fired++
		if k.Pending() > 0 {
			k.AfterObserver(5, tickB)
		}
	}
	k.AfterObserver(3, tickA)
	k.AfterObserver(5, tickB)
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
	tm := k.AtObserver(10, func() { fired = true })
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

func TestYieldOrdersBehindSameTimeEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("p", func(p *Proc) {
		p.Delay(10)
		k.After(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v", order)
	}
}
