package metrics

import (
	"bytes"
	"testing"
)

func TestNilRegistryIsSafeAndFree(t *testing.T) {
	var r *Registry
	field := int64(4)
	r.Bind("x", 0, &field) // binds nothing
	c := r.Counter("x", 0)
	g := r.Gauge("x", 0)
	h := r.Histogram("x", 0)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	// Every method must be a no-op on nil, not a panic.
	c.Inc()
	c.Add(5)
	g.Set(9)
	h.Observe(123)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("nil histogram statistics must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var buf bytes.Buffer
	s.Render(&buf) // must not panic
}

// TestNilInstrumentsAllocateNothing pins the disabled-metrics cost on a
// hot path: no allocation per operation.
func TestNilInstrumentsAllocateNothing(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		h.Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("nil instrument ops allocated %.1f times per run, want 0", allocs)
	}
}

// TestLiveInstrumentsAllocateNothing pins the enabled cost after
// creation: updates never allocate either.
func TestLiveInstrumentsAllocateNothing(t *testing.T) {
	r := New()
	c := r.Counter("c", 0)
	g := r.Gauge("g", 0)
	h := r.Histogram("h", 0)
	var f1, f2 int64
	r.Bind("c", 0, &f1)
	r.Bind("c", 0, &f2)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(9)
		h.Observe(17)
		f1++
		_ = c.Value() // a bound read sums the fields in place
	})
	if allocs != 0 {
		t.Fatalf("live instrument updates allocated %.1f times per run, want 0", allocs)
	}
}

func TestBucketLayout(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 46, 47}, {1 << 50, 47}, {1<<62 + 1, 47},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every positive value must land inside its bucket's bounds.
	for _, v := range []int64{1, 2, 5, 100, 4096, 1 << 40} {
		b := bucketOf(v)
		lo, hi := BucketBounds(b)
		if v < lo || (hi >= 0 && v >= hi) {
			t.Errorf("value %d outside bucket %d bounds [%d,%d)", v, b, lo, hi)
		}
	}
}

func TestHistogramStatistics(t *testing.T) {
	r := New()
	h := r.Histogram("lat", 2)
	for _, v := range []int64{100, 200, 400, 800} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1500 || h.Min() != 100 || h.Max() != 800 {
		t.Fatalf("stats: count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if q := h.Quantile(1.0); q != 800 {
		t.Fatalf("q100 = %d, want the max 800", q)
	}
	if q0 := h.Quantile(0); q0 <= 0 {
		t.Fatalf("q0 = %d, want a positive bucket bound", q0)
	}
	// Quantile must be monotone in q.
	prev := int64(0)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %d < %d", q, v, prev)
		}
		prev = v
	}
}

// simulate is a stand-in workload: a fixed sequence of instrument
// updates, as a deterministic simulation run would produce.
func simulate(r *Registry) {
	for node := 0; node < 3; node++ {
		c := r.Counter("ring.packets_injected", node)
		h := r.Histogram("bbp.msg_size_bytes", node)
		g := r.Gauge("mpi.unexpected_depth", node)
		for i := 0; i < 50; i++ {
			c.Inc()
			h.Observe(int64(i * i))
			g.Set(int64(i % 7))
		}
	}
	r.Counter("fault.injected_events", NodeGlobal).Add(3)
}

// TestSnapshotDeterminism is the two-identical-runs guarantee: same
// workload, two registries, byte-identical renderings.
func TestSnapshotDeterminism(t *testing.T) {
	r1, r2 := New(), New()
	simulate(r1)
	simulate(r2)
	var b1, b2 bytes.Buffer
	r1.Snapshot().Render(&b1)
	r2.Snapshot().Render(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("two identical runs rendered differently:\n%s\n---\n%s", b1.String(), b2.String())
	}
	// And rendering the same registry twice must also be stable (no
	// map-order leakage inside Snapshot).
	var b3 bytes.Buffer
	r1.Snapshot().Render(&b3)
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("re-snapshotting the same registry rendered differently")
	}
}

func TestSnapshotLookupAndSortOrder(t *testing.T) {
	r := New()
	r.Counter("b", 1).Add(10)
	r.Counter("a", 2).Add(20)
	r.Counter("a", 0).Add(30)
	s := r.Snapshot()
	wantOrder := []struct {
		name string
		node int
	}{{"a", 0}, {"a", 2}, {"b", 1}}
	for i, w := range wantOrder {
		if s.Counters[i].Name != w.name || s.Counters[i].Node != w.node {
			t.Fatalf("sort order[%d] = %s/%d, want %s/%d", i, s.Counters[i].Name, s.Counters[i].Node, w.name, w.node)
		}
	}
	if v, ok := s.Counter("a", 2); !ok || v != 20 {
		t.Fatalf("lookup a/2 = %d,%v", v, ok)
	}
	if _, ok := s.Counter("missing", 0); ok {
		t.Fatal("lookup of absent counter reported ok")
	}
}

func TestRollup(t *testing.T) {
	r := New()
	r.Counter("c", 0).Add(5)
	r.Counter("c", 1).Add(7)
	r.Gauge("g", 0).Set(3)
	r.Gauge("g", 1).Set(9)
	r.Gauge("g", 1).Set(2) // value drops, max stays 9
	r.Histogram("h", 0).Observe(10)
	r.Histogram("h", 1).Observe(1000)
	// Two fields bound to one key sum with the counter's own count; a
	// field bound twice counts once.
	f1, f2 := int64(100), int64(1000)
	r.Bind("c", 1, &f1)
	r.Bind("c", 1, &f2)
	r.Bind("c", 1, &f1)
	r.Bind("b", 2, &f1)
	f1 += 100 // read at snapshot time, not at Bind time
	if v := r.Counter("c", 1).Value(); v != 1207 {
		t.Fatalf("bound counter = %d, want 7+200+1000", v)
	}
	snap := r.Snapshot()
	if v, _ := snap.Counter("b", 2); v != 200 {
		t.Fatalf("bind-only counter snapshot = %d, want 200", v)
	}
	up := snap.Rollup()
	if v, _ := up.Counter("c", NodeGlobal); v != 1212 {
		t.Fatalf("rolled-up counter = %d, want 5+7+200+1000", v)
	}
	g, ok := up.Gauge("g", NodeGlobal)
	if !ok || g.Max != 9 {
		t.Fatalf("rolled-up gauge max = %d, want 9", g.Max)
	}
	h, ok := up.Histogram("h", NodeGlobal)
	if !ok || h.Count != 2 || h.Sum != 1010 || h.Min != 10 || h.Max != 1000 {
		t.Fatalf("rolled-up histogram = %+v", h)
	}
	var total int64
	for _, bc := range h.Buckets {
		total += bc.Count
	}
	if total != 2 {
		t.Fatalf("rolled-up bucket mass = %d, want 2", total)
	}
}
