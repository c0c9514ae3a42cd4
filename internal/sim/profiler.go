package sim

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"time"
)

// ProfBuckets is the fixed log2 bucket layout of the per-event wall-ns
// histograms: bucket 0 holds observations <= 0, bucket i holds
// [2^(i-1), 2^i), the last bucket is open-ended. It mirrors
// internal/metrics.NumBuckets so a published profile lands in
// structurally identical metrics histograms (internal/metrics asserts
// the match at compile time).
const ProfBuckets = 48

// KindStat is one event kind's accumulated real-time cost.
type KindStat struct {
	// Kind is the name of the event's sim.Kind: "proc", "ring", "bus",
	// "intr", "fabric", "fault", "observer", or "event" for everything
	// scheduled without a kind.
	Kind string
	// Events counts executed events of this kind; WallNs is their total
	// host (wall-clock) execution time and MaxNs the single worst event.
	Events int64
	WallNs int64
	MaxNs  int64
	// Buckets is the log2 histogram of per-event wall nanoseconds.
	Buckets [ProfBuckets]int64
}

// Profiler attributes the kernel's real-time cost per event kind — the
// simulator-overhead half of ROADMAP item 5. It reads the host clock
// around each executed event but never touches the virtual clock, the
// event queue, or any model state, so a profiled run reproduces exactly
// the virtual timeline of an unprofiled one (cmd/anatomy -profile
// asserts this identity; TestProfilerZeroVirtualTime proves it).
//
// The measured values are wall-clock and therefore non-deterministic:
// a profile must never feed a byte-stable artifact (BENCH_*.json, the
// snapshot stream). Read it through Stats or Render.
type Profiler struct {
	stats [numKinds]KindStat
}

// NewProfiler returns an empty profiler. Install it with
// Kernel.SetProfiler; one profiler may accumulate across many kernels
// (the sweep driver profiles a whole matrix into one).
func NewProfiler() *Profiler {
	p := &Profiler{}
	for k := range p.stats {
		p.stats[k].Kind = Kind(k).String()
	}
	return p
}

func profBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b > ProfBuckets-1 {
		return ProfBuckets - 1
	}
	return b
}

// record accumulates one executed event. Called by Kernel.step.
func (p *Profiler) record(kind Kind, ns int64) {
	s := &p.stats[kind]
	s.Events++
	s.WallNs += ns
	if ns > s.MaxNs {
		s.MaxNs = ns
	}
	s.Buckets[profBucket(ns)]++
}

// Stats returns the attribution of every kind that executed at least
// one event, sorted by descending total wall time (ties broken by kind
// name, so rendering is stable for a given set of measurements).
func (p *Profiler) Stats() []KindStat {
	if p == nil {
		return nil
	}
	var out []KindStat
	for _, s := range p.stats {
		if s.Events > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallNs != out[j].WallNs {
			return out[i].WallNs > out[j].WallNs
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// TotalEvents returns the number of events profiled across all kinds.
// On a single kernel this equals Kernel.Executed() — the identity
// cmd/anatomy -profile asserts.
func (p *Profiler) TotalEvents() int64 {
	var n int64
	for _, s := range p.Stats() {
		n += s.Events
	}
	return n
}

// TotalWallNs returns the total host time spent executing events.
func (p *Profiler) TotalWallNs() int64 {
	var n int64
	for _, s := range p.Stats() {
		n += s.WallNs
	}
	return n
}

// Render writes the profile as an aligned table: one row per kind with
// its share of the total wall time, mean and max per-event cost.
func (p *Profiler) Render(w io.Writer) {
	stats := p.Stats()
	if len(stats) == 0 {
		fmt.Fprintln(w, "(no events profiled)")
		return
	}
	total := p.TotalWallNs()
	fmt.Fprintf(w, "%-10s %12s %14s %7s %12s %12s\n",
		"kind", "events", "wall", "share", "mean/event", "max/event")
	for _, s := range stats {
		share := 0.0
		if total > 0 {
			share = 100 * float64(s.WallNs) / float64(total)
		}
		mean := int64(0)
		if s.Events > 0 {
			mean = s.WallNs / s.Events
		}
		fmt.Fprintf(w, "%-10s %12d %14s %6.1f%% %12s %12s\n",
			s.Kind, s.Events, time.Duration(s.WallNs), share,
			time.Duration(mean), time.Duration(s.MaxNs))
	}
	fmt.Fprintf(w, "%-10s %12d %14s\n", "total", p.TotalEvents(), time.Duration(total))
}
