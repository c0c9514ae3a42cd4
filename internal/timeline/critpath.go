package timeline

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// PathShare is one node's share of a critical-path window: how much of
// the window's serial chain ran on (and through the PCI bus of) that
// node.
type PathShare struct {
	Node  int
	Us    float64
	Spans int
}

// CriticalPath approximates the serial chain behind a collective's
// completion from its span trace: sweeping backward from `to`, each
// instant of the window [from, to] is attributed to the work span that
// was last active at that instant — the thing the completion was
// actually waiting on — and the walk then jumps to that span's start
// and repeats. Instants no span covers (true idle, e.g. poll backoff)
// are attributed to nobody, so the shares sum to at most the window.
//
// Callers pass *work* spans (BBP post/drain, ring inject, spin
// handler) and exclude rank-level envelope spans like
// "stream-allreduce", which cover the whole window on every rank and
// would swallow the attribution. Shares come back largest first; the
// gating node — the one whose sequential work dominates the chain,
// i.e. whose host bus bounds the collective (EXPERIMENTS.md E14) — is
// shares[0].Node.
func CriticalPath(spans []trace.SpanRec, from, to sim.Time) []PathShare {
	work := make([]trace.SpanRec, 0, len(spans))
	for _, s := range spans {
		if s.Ended && s.End > from && s.Start < to {
			work = append(work, s)
		}
	}
	// Deterministic walk order: by start, then end, then node, then id.
	sort.Slice(work, func(i, j int) bool {
		a, b := work[i], work[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.ID < b.ID
	})

	acc := map[int]*PathShare{}
	cursor := to
	for cursor > from {
		// The span last active at `cursor`: latest segment end among
		// spans starting before the cursor; among ties, latest start
		// (innermost work).
		best := -1
		var bestEnd sim.Time
		for i, s := range work {
			if s.Start >= cursor {
				break
			}
			end := s.End
			if end > cursor {
				end = cursor
			}
			if best < 0 || end > bestEnd || (end == bestEnd && s.Start >= work[best].Start) {
				best, bestEnd = i, end
			}
		}
		if best < 0 {
			break
		}
		s := work[best]
		lo := s.Start
		if lo < from {
			lo = from
		}
		if bestEnd > lo {
			sh := acc[s.Node]
			if sh == nil {
				sh = &PathShare{Node: s.Node}
				acc[s.Node] = sh
			}
			sh.Us += bestEnd.Sub(lo).Microseconds()
			sh.Spans++
		}
		cursor = lo
	}

	out := make([]PathShare, 0, len(acc))
	for _, sh := range acc {
		out = append(out, *sh)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Us != out[j].Us {
			return out[i].Us > out[j].Us
		}
		return out[i].Node < out[j].Node
	})
	return out
}
