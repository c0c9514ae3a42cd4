// Package metrics is the deterministic observability subsystem: a
// Registry of named counters, gauges and fixed-log-bucket histograms
// that every simulated layer (ring, I/O bus, BillBoard Protocol, MPI,
// hybrid router, fault injector) reports into.
//
// A protocol event is counted once. A layer that keeps a Stats struct
// counts there and Binds each field to its counter name, so the
// registry reads the field instead of keeping a copy; only counts with
// no Stats twin (I/O bus transactions, ring hops and topology events,
// hybrid routing choices) are registry-owned Counters that the layer
// increments itself.
//
// Design rules, in force everywhere:
//
//   - Nil-safe, like trace.Recorder: a nil *Registry hands out nil
//     instruments and binds nothing, and every instrument method is a
//     no-op on a nil receiver. Instrumented hot paths need no guards and
//     pay one pointer test when metrics are disabled — no allocation,
//     and no virtual time ever (instruments never call Proc.Delay, so
//     enabling metrics cannot move a single figure). A bound count costs
//     nothing on the hot path: the registry reads it only when asked.
//   - Deterministic: no wall-clock reads, no map-iteration order.
//     Snapshots are sorted by (name, node) and two identical simulation
//     runs produce byte-identical renderings.
//   - Fixed bucket layout: histograms always carry NumBuckets power-of-
//     two buckets, so snapshots from different runs (or different PRs)
//     are structurally comparable and the BENCH JSON schema is stable.
//   - Single-writer: the simulation kernel hands one execution token
//     between Procs, so instruments need no locks (the race-mode tier
//     proves this stays true).
//
// Names are dot-scoped by layer ("ring.packets_injected",
// "pci.pio_read_words", "bbp.polls", ...). Each instrument belongs to a
// node (ring node / process rank), or to NodeGlobal for whole-network
// quantities. Snapshot gives the per-node view; Snapshot.Rollup
// aggregates across nodes into the cluster-wide view the BENCH report
// records.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// NodeGlobal is the node id of instruments that describe the whole
// network rather than one node.
const NodeGlobal = -1

// NumBuckets is the fixed histogram layout: bucket 0 holds observations
// <= 0, bucket i (1 <= i < NumBuckets-1) holds [2^(i-1), 2^i), and the
// last bucket is open-ended. 48 buckets cover every int64 the
// simulation can produce (2^47 ns is ~39 virtual hours).
const NumBuckets = 48

// bucketOf returns the fixed bucket index for an observation.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > NumBuckets-1 {
		return NumBuckets - 1
	}
	return b
}

// BucketBounds returns bucket i's half-open range [lo, hi); hi < 0
// means unbounded (the last bucket).
func BucketBounds(i int) (lo, hi int64) {
	switch {
	case i <= 0:
		return 0, 1
	case i >= NumBuckets-1:
		return 1 << (NumBuckets - 2), -1
	default:
		return 1 << (i - 1), 1 << i
	}
}

// Counter is a monotonically increasing count: its own increments plus
// the sum of the Stats fields bound to it (Registry.Bind).
type Counter struct {
	v     int64
	bound []*int64
}

// Inc adds one (no-op on nil).
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d (no-op on nil).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	v := c.v
	for _, f := range c.bound {
		v += *f
	}
	return v
}

// Gauge is an instantaneous level that also remembers its high-water
// mark (e.g. a queue depth).
type Gauge struct{ v, max int64 }

// Set records the current level and updates the high-water mark (no-op
// on nil).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Value returns the last level set (zero on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark (zero on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram accumulates observations into the fixed power-of-two
// bucket layout, tracking count, sum and extrema exactly.
type Histogram struct {
	count, sum int64
	min, max   int64
	buckets    [NumBuckets]int64
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns the number of observations (zero on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the running total (zero on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min and Max return the extrema (zero on nil or before the first
// observation).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound for quantile q in [0,1]: the
// exclusive upper bound of the bucket in which the q-th observation
// falls (capped at the exact maximum). Deterministic and monotone in q.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i := 0; i < NumBuckets; i++ {
		seen += h.buckets[i]
		if seen > rank {
			_, hi := BucketBounds(i)
			if hi < 0 || hi > h.max {
				return h.max
			}
			return hi
		}
	}
	return h.max
}

// key identifies one instrument.
type key struct {
	name string
	node int
}

// Registry hands out instruments by (name, node) and snapshots them.
// The zero value is not usable; call New. A nil *Registry is the
// disabled state: it returns nil instruments and empty snapshots.
type Registry struct {
	counters map[key]*Counter
	gauges   map[key]*Gauge
	hists    map[key]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[key]*Counter{},
		gauges:   map[key]*Gauge{},
		hists:    map[key]*Histogram{},
	}
}

// Counter returns the named counter for a node, creating it on first
// use. Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string, node int) *Counter {
	if r == nil {
		return nil
	}
	k := key{name, node}
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Bind makes the field v part of the named counter for a node: the
// counter reads *v whenever it is read, so a layer that already counts
// an event in its Stats struct reports it without a second increment.
// Fields bound to one key sum; binding the same field twice is a no-op.
// Does nothing on a nil registry.
func (r *Registry) Bind(name string, node int, v *int64) {
	c := r.Counter(name, node)
	if c == nil {
		return
	}
	for _, f := range c.bound {
		if f == v {
			return
		}
	}
	c.bound = append(c.bound, v)
}

// Gauge returns the named gauge for a node, creating it on first use.
func (r *Registry) Gauge(name string, node int) *Gauge {
	if r == nil {
		return nil
	}
	k := key{name, node}
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the named histogram for a node, creating it on
// first use.
func (r *Registry) Histogram(name string, node int) *Histogram {
	if r == nil {
		return nil
	}
	k := key{name, node}
	h := r.hists[k]
	if h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Node  int    `json:"node"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string `json:"name"`
	Node  int    `json:"node"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// HistogramPoint is one histogram in a snapshot. Buckets lists only the
// populated buckets as {index, count} pairs so snapshots stay compact
// while the layout (NumBuckets, power-of-two bounds) remains fixed.
type HistogramPoint struct {
	Name    string        `json:"name"`
	Node    int           `json:"node"`
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	Buckets []BucketCount `json:"buckets"`
}

// BucketCount is one populated histogram bucket.
type BucketCount struct {
	Bucket int   `json:"bucket"`
	Count  int64 `json:"count"`
}

// Snapshot is a point-in-time copy of every instrument, sorted by
// (name, node) so rendering and serialization are deterministic.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Snapshot captures the registry. Empty (not nil-pointered) on a nil
// registry, so callers can render unconditionally.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for k, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{k.name, k.node, c.Value()})
	}
	for k, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{k.name, k.node, g.v, g.max})
	}
	for k, h := range r.hists {
		p := HistogramPoint{Name: k.name, Node: k.node, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, n := range h.buckets {
			if n != 0 {
				p.Buckets = append(p.Buckets, BucketCount{i, n})
			}
		}
		s.Histograms = append(s.Histograms, p)
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return lessKey(s.Counters[i].Name, s.Counters[i].Node, s.Counters[j].Name, s.Counters[j].Node)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return lessKey(s.Gauges[i].Name, s.Gauges[i].Node, s.Gauges[j].Name, s.Gauges[j].Node)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return lessKey(s.Histograms[i].Name, s.Histograms[i].Node, s.Histograms[j].Name, s.Histograms[j].Node)
	})
	return s
}

func lessKey(an string, ai int, bn string, bi int) bool {
	if an != bn {
		return an < bn
	}
	return ai < bi
}

// Counter returns the snapshot value of a counter (ok=false if absent).
func (s Snapshot) Counter(name string, node int) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name && c.Node == node {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the snapshot of a gauge (ok=false if absent).
func (s Snapshot) Gauge(name string, node int) (GaugePoint, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && g.Node == node {
			return g, true
		}
	}
	return GaugePoint{}, false
}

// Histogram returns the snapshot of a histogram (ok=false if absent).
func (s Snapshot) Histogram(name string, node int) (HistogramPoint, bool) {
	for _, h := range s.Histograms {
		if h.Name == name && h.Node == node {
			return h, true
		}
	}
	return HistogramPoint{}, false
}

// Rollup aggregates the per-node snapshot into the cluster-wide view:
// counters sum across nodes; gauges take the maximum (a cluster
// high-water mark); histograms merge bucket-wise. Every resulting point
// carries NodeGlobal.
func (s Snapshot) Rollup() Snapshot {
	var out Snapshot
	cs := map[string]int64{}
	for _, c := range s.Counters {
		cs[c.Name] += c.Value
	}
	for name, v := range cs {
		out.Counters = append(out.Counters, CounterPoint{name, NodeGlobal, v})
	}
	gs := map[string]GaugePoint{}
	for _, g := range s.Gauges {
		p, ok := gs[g.Name]
		if !ok {
			p = GaugePoint{Name: g.Name, Node: NodeGlobal, Value: g.Value, Max: g.Max}
		} else {
			if g.Value > p.Value {
				p.Value = g.Value
			}
			if g.Max > p.Max {
				p.Max = g.Max
			}
		}
		gs[g.Name] = p
	}
	for _, p := range gs {
		out.Gauges = append(out.Gauges, p)
	}
	hs := map[string]*HistogramPoint{}
	for _, h := range s.Histograms {
		p := hs[h.Name]
		if p == nil {
			cp := h
			cp.Node = NodeGlobal
			cp.Buckets = append([]BucketCount(nil), h.Buckets...)
			hs[h.Name] = &cp
			continue
		}
		p.Count += h.Count
		p.Sum += h.Sum
		if h.Count > 0 && (p.Count == h.Count || h.Min < p.Min) {
			p.Min = h.Min
		}
		if h.Max > p.Max {
			p.Max = h.Max
		}
		p.Buckets = mergeBuckets(p.Buckets, h.Buckets)
	}
	for _, p := range hs {
		out.Histograms = append(out.Histograms, *p)
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}

func mergeBuckets(a, b []BucketCount) []BucketCount {
	var full [NumBuckets]int64
	for _, bc := range a {
		full[bc.Bucket] += bc.Count
	}
	for _, bc := range b {
		full[bc.Bucket] += bc.Count
	}
	var out []BucketCount
	for i, n := range full {
		if n != 0 {
			out = append(out, BucketCount{i, n})
		}
	}
	return out
}

// Render writes the snapshot as an aligned, deterministic table.
func (s Snapshot) Render(w io.Writer) {
	if len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0 {
		fmt.Fprintln(w, "(no metrics)")
		return
	}
	nodeStr := func(n int) string {
		if n == NodeGlobal {
			return "*"
		}
		return fmt.Sprintf("%d", n)
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "%-34s %5s %14s\n", "counter", "node", "value")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "%-34s %5s %14d\n", c.Name, nodeStr(c.Node), c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "%-34s %5s %14s %14s\n", "gauge", "node", "value", "high-water")
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "%-34s %5s %14d %14d\n", g.Name, nodeStr(g.Node), g.Value, g.Max)
		}
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "histogram %s node=%s count=%d sum=%d min=%d max=%d\n",
			h.Name, nodeStr(h.Node), h.Count, h.Sum, h.Min, h.Max)
		for _, bc := range h.Buckets {
			lo, hi := BucketBounds(bc.Bucket)
			bound := fmt.Sprintf("[%d,%d)", lo, hi)
			if hi < 0 {
				bound = fmt.Sprintf("[%d,inf)", lo)
			}
			fmt.Fprintf(w, "  %-22s %10d %s\n", bound, bc.Count, strings.Repeat("#", barLen(bc.Count, h.Count)))
		}
	}
}

// barLen scales a bucket count to a 1..40 character bar.
func barLen(n, total int64) int {
	if total <= 0 || n <= 0 {
		return 0
	}
	l := int(n * 40 / total)
	if l < 1 {
		l = 1
	}
	return l
}
