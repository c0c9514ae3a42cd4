package sim

import (
	"strings"
	"testing"
)

// workload runs a fixed mix of events, observers, labeled events and a
// process on k, and returns the number of plain fn invocations.
func workload(k *Kernel) *int {
	fired := new(int)
	bump := func() { *fired++ }
	k.At(10, bump)
	k.AfterKind(25, KindEvent, bump)
	k.AtKind(40, KindRing, bump)
	k.AfterKind(55, KindBus, bump)
	var tick func()
	n := 0
	tick = func() {
		*fired++
		n++
		if n < 3 {
			k.AfterKind(100, KindObserver, tick)
		}
	}
	k.AfterKind(100, KindObserver, tick)
	k.Spawn("worker", func(p *Proc) {
		p.Delay(30)
		*fired++
		p.Delay(30)
		*fired++
	})
	return fired
}

// TestProfilerZeroVirtualTime proves a profiled run is the identical
// simulation: same final clock, same executed-event count, same number
// of callback firings as an unprofiled run of the same workload.
func TestProfilerZeroVirtualTime(t *testing.T) {
	plain := NewKernel()
	fp := workload(plain)
	if err := plain.Run(); err != nil {
		t.Fatalf("plain run: %v", err)
	}

	prof := NewProfiler()
	profiled := NewKernel()
	profiled.SetProfiler(prof)
	fq := workload(profiled)
	if err := profiled.Run(); err != nil {
		t.Fatalf("profiled run: %v", err)
	}

	if plain.Now() != profiled.Now() {
		t.Errorf("final clock diverged: plain %d profiled %d", plain.Now(), profiled.Now())
	}
	if plain.Executed() != profiled.Executed() {
		t.Errorf("executed diverged: plain %d profiled %d", plain.Executed(), profiled.Executed())
	}
	if *fp != *fq {
		t.Errorf("firings diverged: plain %d profiled %d", *fp, *fq)
	}
}

// TestProfilerTotalEventsIdentity asserts the cmd/anatomy identity:
// every executed event is attributed to exactly one kind.
func TestProfilerTotalEventsIdentity(t *testing.T) {
	prof := NewProfiler()
	k := NewKernel()
	k.SetProfiler(prof)
	workload(k)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if prof.TotalEvents() != k.Executed() {
		t.Fatalf("TotalEvents %d != Executed %d", prof.TotalEvents(), k.Executed())
	}
	var sum int64
	for _, s := range prof.Stats() {
		sum += s.Events
		var bsum int64
		for _, b := range s.Buckets {
			bsum += b
		}
		if bsum != s.Events {
			t.Errorf("kind %q: bucket sum %d != events %d", s.Kind, bsum, s.Events)
		}
		if s.WallNs < 0 || s.MaxNs < 0 {
			t.Errorf("kind %q: negative wall time", s.Kind)
		}
	}
	if sum != prof.TotalEvents() {
		t.Errorf("kind sum %d != TotalEvents %d", sum, prof.TotalEvents())
	}
}

// TestProfilerKinds checks the attribution labels: explicit kinds,
// observer default and the generic bucket, plus proc resumes.
func TestProfilerKinds(t *testing.T) {
	prof := NewProfiler()
	k := NewKernel()
	k.SetProfiler(prof)
	workload(k)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := map[string]int64{
		"ring":     1,
		"bus":      1,
		"event":    2,
		"observer": 3,
		// Spawn handoff + two Delay resumes.
		"proc": 3,
	}
	got := map[string]int64{}
	for _, s := range prof.Stats() {
		got[s.Kind] = s.Events
	}
	for kind, n := range want {
		if got[kind] != n {
			t.Errorf("kind %q: got %d events, want %d (all: %v)", kind, got[kind], n, got)
		}
	}
}

// TestProfilerCanceledNotCounted verifies canceled timers are neither
// executed nor profiled.
func TestProfilerCanceledNotCounted(t *testing.T) {
	prof := NewProfiler()
	k := NewKernel()
	k.SetProfiler(prof)
	tm := k.Timer(10, KindRing, func() { t.Error("canceled event fired") })
	tm.Stop()
	k.AfterKind(20, KindEvent, func() {})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if k.Executed() != 1 {
		t.Errorf("Executed = %d, want 1", k.Executed())
	}
	if prof.TotalEvents() != 1 {
		t.Errorf("TotalEvents = %d, want 1", prof.TotalEvents())
	}
}

// TestProfilerAccumulatesAcrossKernels runs two kernels into one
// profiler, as the sweep driver does for a whole matrix.
func TestProfilerAccumulatesAcrossKernels(t *testing.T) {
	prof := NewProfiler()
	var total int64
	for i := 0; i < 2; i++ {
		k := NewKernel()
		k.SetProfiler(prof)
		workload(k)
		if err := k.Run(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		total += k.Executed()
	}
	if prof.TotalEvents() != total {
		t.Fatalf("TotalEvents %d != summed Executed %d", prof.TotalEvents(), total)
	}
}

func TestProfilerRender(t *testing.T) {
	prof := NewProfiler()
	k := NewKernel()
	k.SetProfiler(prof)
	workload(k)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	var sb strings.Builder
	prof.Render(&sb)
	out := sb.String()
	for _, want := range []string{"kind", "ring", "proc", "observer", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	var empty strings.Builder
	NewProfiler().Render(&empty)
	if !strings.Contains(empty.String(), "no events") {
		t.Errorf("empty render = %q", empty.String())
	}
}

func TestProfBucketLayout(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1024, 11},
		{1 << 50, ProfBuckets - 1},
	}
	for _, c := range cases {
		if got := profBucket(c.v); got != c.want {
			t.Errorf("profBucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}
