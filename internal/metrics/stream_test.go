package metrics

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// runStreamed drives a tiny deterministic workload — a counter bumped
// every 30 µs for 10 ticks — under a 100 µs snapshot stream and returns
// the stream's JSONL bytes.
func runStreamed(t *testing.T) ([]StreamPoint, []byte) {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	reg := New()
	s := NewStream(k, reg, 100*sim.Microsecond)
	c := reg.Counter("work.ticks", 0)
	k.Spawn("worker", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Delay(30 * sim.Microsecond)
			c.Inc()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePointsJSONL(&buf, s.Points()); err != nil {
		t.Fatal(err)
	}
	return s.Points(), buf.Bytes()
}

func TestStreamCadenceAndTermination(t *testing.T) {
	points, _ := runStreamed(t)
	// Baseline at t=0 plus one point per elapsed 100 µs; the workload
	// runs 300 µs, and the stream must stop itself once the kernel has
	// no other pending work (otherwise Run would never return — getting
	// here at all is half the assertion).
	if len(points) < 3 {
		t.Fatalf("stream captured %d points, want at least baseline + 2", len(points))
	}
	if points[0].T != 0 {
		t.Fatalf("first point at t=%d, want a baseline at 0", points[0].T)
	}
	for i := 1; i < len(points); i++ {
		if d := points[i].T - points[i-1].T; d != int64(100*sim.Microsecond) {
			t.Fatalf("points %d→%d are %dns apart, want the 100µs cadence", i-1, i, d)
		}
	}
	// The captured values must be the registry's state at each tick:
	// 100µs → 3 ticks of 30µs, 200µs → 6, 300µs → 10 (tick 10 lands at
	// 300µs, and the worker's Inc at a time runs before the timer
	// callback scheduled earlier only if the kernel orders it so — what
	// matters for determinism is that it is always the same; pin it).
	v, ok := points[1].Snap.Counter("work.ticks", 0)
	if !ok || v != 3 {
		t.Fatalf("snapshot at 100µs has work.ticks=%d (ok=%v), want 3", v, ok)
	}
}

func TestStreamJSONLDeterminism(t *testing.T) {
	_, a := runStreamed(t)
	_, b := runStreamed(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs produced different JSONL:\n%s\nvs\n%s", a, b)
	}
	if len(a) == 0 || a[len(a)-1] != '\n' {
		t.Fatal("JSONL must be newline-terminated and non-empty")
	}
}

func TestStreamNilSafety(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	if s := NewStream(nil, New(), sim.Microsecond); s != nil {
		t.Fatal("NewStream without a kernel must return nil")
	}
	if s := NewStream(k, nil, sim.Microsecond); s != nil {
		t.Fatal("NewStream without a registry must return nil")
	}
	if s := NewStream(k, New(), 0); s != nil {
		t.Fatal("NewStream with a non-positive period must return nil")
	}
	var s *Stream
	if s.Points() != nil {
		t.Fatal("nil stream Points() must be nil")
	}
	var buf bytes.Buffer
	if err := WritePointsJSONL(&buf, s.Points()); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

func TestStreamStop(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	reg := New()
	s := NewStream(k, reg, 50*sim.Microsecond)
	k.Spawn("w", func(p *sim.Proc) {
		p.Delay(120 * sim.Microsecond)
		s.Stop()
		p.Delay(200 * sim.Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Baseline + the 50µs and 100µs points; nothing after Stop.
	if n := len(s.Points()); n != 3 {
		t.Fatalf("stopped stream kept %d points, want 3", n)
	}
}
