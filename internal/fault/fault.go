// Package fault is a deterministic, seed-driven fault-injection layer
// for the simulated testbed. It models the failure scenarios §2 of the
// paper alludes to — "a failed node is optically bypassed" on the dual
// SCRAMNet ring — and extends them uniformly to the switched fabrics so
// that every layer above (BBP, TCP-lite, the hybrid router, MPI) can be
// exercised under the same scripted adversity.
//
// A Script is an ordered list of timed Actions: node fail/repair and
// transient loss windows. Scripts are either hand-built or produced by
// Generate from a seed, and replaying the same script against the same
// workload yields a bit-identical simulation — faults are part of the
// deterministic event order, never a source of flakiness.
//
// Scripts apply to any Target: a *scramnet.Network (via Ring) or any
// xport.Fabric wrapped by NewFabric.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind enumerates the fault actions a script can schedule.
type Kind int

const (
	// NodeFail takes Node out of service: optically bypassed on a dual
	// SCRAMNet ring, link unplugged on a switched fabric.
	NodeFail Kind = iota
	// NodeRepair returns Node to service (its state may be stale).
	NodeRepair
	// LossStart begins a transient corruption window: every in-flight
	// packet or frame is independently dropped with probability Rate.
	LossStart
	// LossStop closes the loss window (rate back to zero).
	LossStop
	// LinkCut severs ring segment Node (the fiber pair between ring
	// nodes Node and Node+1). Applies only to targets implementing
	// LinkTarget — the SCRAMNet ring; switched fabrics have no shared
	// fiber to cut, and the action is skipped there.
	LinkCut
	// LinkSplice repairs ring segment Node, undoing LinkCut.
	LinkSplice
)

func (k Kind) String() string {
	switch k {
	case NodeFail:
		return "node-fail"
	case NodeRepair:
		return "node-repair"
	case LossStart:
		return "loss-start"
	case LossStop:
		return "loss-stop"
	case LinkCut:
		return "link-cut"
	case LinkSplice:
		return "link-splice"
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// Action is one scheduled fault.
type Action struct {
	At   sim.Time
	Kind Kind
	Node int     // NodeFail / NodeRepair target; LinkCut / LinkSplice segment
	Rate float64 // LossStart drop probability in [0,1]
}

// Script is a replayable fault schedule. Seed parameterizes the random
// stream a Target uses to decide individual packet drops inside loss
// windows, so the same script produces the same drops every run.
type Script struct {
	Seed    uint64
	Actions []Action
}

// Target is anything faults can be applied to. Both the SCRAMNet ring
// adapter and the fabric wrapper implement it.
type Target interface {
	Nodes() int
	FailNode(i int)
	RepairNode(i int)
	SetLossRate(r float64)
}

// LinkTarget is the optional extension for targets with per-segment
// link state — the SCRAMNet ring. LinkCut/LinkSplice actions apply (and
// are counted and traced) only on targets that implement it; on others
// they are skipped, so one script can drive a ring and a fabric to the
// same node-level fault pattern while the cable cuts stay ring-only.
type LinkTarget interface {
	CutLink(i int)
	SpliceLink(i int)
}

// Apply schedules every action of the script on kernel k against tgt.
// Actions at or before the current virtual time fire immediately (in
// scheduling order). Apply may be called for several targets to subject
// co-located networks to the same fault pattern. Each fired action is
// counted in m under "fault.injected_events" plus a per-kind counter,
// attributed to the faulted node (loss windows are cluster-wide), and
// emitted to rec as a trace instant (category "fault"), so a timeline
// can line injected faults up against retry and bus activity. A nil
// registry counts nothing and a nil recorder records nothing.
func (s *Script) Apply(k *sim.Kernel, tgt Target, m *metrics.Registry, rec *trace.Recorder) {
	if s == nil {
		return
	}
	for _, a := range s.Actions {
		a := a
		at := a.At
		if at < k.Now() {
			at = k.Now()
		}
		k.AtKind(at, sim.KindFault, func() {
			if a.Kind == LinkCut || a.Kind == LinkSplice {
				// Cable cuts only exist on link-stateful targets; a
				// fabric skips them without counting, so the injected-
				// event counters report what actually happened.
				lt, ok := tgt.(LinkTarget)
				if !ok {
					return
				}
				m.Counter("fault.injected_events", metrics.NodeGlobal).Inc()
				m.Counter("fault.injected_"+a.Kind.String(), metrics.NodeGlobal).Inc()
				rec.Emit(k.Now(), trace.Fault, metrics.NodeGlobal, a.Kind.String(), 0, 0, "segment=%d", trace.Int(a.Node))
				if a.Kind == LinkCut {
					lt.CutLink(a.Node)
				} else {
					lt.SpliceLink(a.Node)
				}
				return
			}
			node := metrics.NodeGlobal
			if a.Kind == NodeFail || a.Kind == NodeRepair {
				node = a.Node
			}
			m.Counter("fault.injected_events", metrics.NodeGlobal).Inc()
			m.Counter("fault.injected_"+a.Kind.String(), node).Inc()
			rec.Emit(k.Now(), trace.Fault, node, a.Kind.String(), 0, 0, "node=%d rate=%s", trace.Int(a.Node), trace.Str(fmt.Sprintf("%g", a.Rate)))
			switch a.Kind {
			case NodeFail:
				tgt.FailNode(a.Node)
			case NodeRepair:
				tgt.RepairNode(a.Node)
			case LossStart:
				tgt.SetLossRate(a.Rate)
			case LossStop:
				tgt.SetLossRate(0)
			}
		})
	}
}

// MaxLoss returns the largest loss rate any window of the script opens;
// zero means the script never drops traffic.
func (s *Script) MaxLoss() float64 {
	if s == nil {
		return 0
	}
	max := 0.0
	for _, a := range s.Actions {
		if a.Kind == LossStart && a.Rate > max {
			max = a.Rate
		}
	}
	return max
}

// String renders the script for logs and failure messages.
func (s *Script) String() string {
	if s == nil {
		return "fault.Script(nil)"
	}
	out := fmt.Sprintf("fault.Script{seed=%d", s.Seed)
	for _, a := range s.Actions {
		switch a.Kind {
		case NodeFail, NodeRepair:
			out += fmt.Sprintf(" %s@%d(node %d)", a.Kind, a.At, a.Node)
		case LinkCut, LinkSplice:
			out += fmt.Sprintf(" %s@%d(seg %d)", a.Kind, a.At, a.Node)
		case LossStart:
			out += fmt.Sprintf(" %s@%d(%.2f)", a.Kind, a.At, a.Rate)
		default:
			out += fmt.Sprintf(" %s@%d", a.Kind, a.At)
		}
	}
	return out + "}"
}

// Validate checks that the script's per-target action ordering is
// realizable: for each node, fail/repair actions (in At order) must
// alternate starting with a failure, and for each segment, cut/splice
// actions likewise starting with a cut. A repair of a node that is not
// down — or a second failure of one that is — marks a script whose
// later actions are unreachable no-ops; such scripts used to slip out
// of Generate when two randomly drawn fail→repair cycles for one node
// overlapped. Loss windows are global and idempotent, so Validate does
// not constrain them.
func (s *Script) Validate() error {
	if s == nil {
		return nil
	}
	acts := append([]Action(nil), s.Actions...)
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].At < acts[j].At })
	down := map[int]bool{}
	cut := map[int]bool{}
	for _, a := range acts {
		switch a.Kind {
		case NodeFail:
			if down[a.Node] {
				return fmt.Errorf("fault: node %d failed again at %d while already down", a.Node, a.At)
			}
			down[a.Node] = true
		case NodeRepair:
			if !down[a.Node] {
				return fmt.Errorf("fault: node %d repaired at %d while not down", a.Node, a.At)
			}
			down[a.Node] = false
		case LinkCut:
			if cut[a.Node] {
				return fmt.Errorf("fault: segment %d cut again at %d while already severed", a.Node, a.At)
			}
			cut[a.Node] = true
		case LinkSplice:
			if !cut[a.Node] {
				return fmt.Errorf("fault: segment %d spliced at %d while intact", a.Node, a.At)
			}
			cut[a.Node] = false
		}
	}
	return nil
}

// Flap builds a script that rapidly cycles one node through count
// fail→repair pairs, one full cycle per period: the node goes down at
// (k+1)·period and comes back half a period later, for k = 0..count-1.
// Flapping is the classic failure-detector stress test — a node that
// oscillates near the suspicion threshold must be fenced consistently
// (stale incarnations never resurrect) without poisoning verdicts about
// anyone else. The first cycle is delayed a full period so the cluster
// has a quiet warm-up window.
func Flap(node int, period sim.Duration, count int) *Script {
	s := &Script{Seed: uint64(node)*1000003 + 1}
	for k := 0; k < count; k++ {
		down := sim.Time(0).Add(sim.Duration(k+1) * period)
		s.Actions = append(s.Actions,
			Action{At: down, Kind: NodeFail, Node: node},
			Action{At: down.Add(period / 2), Kind: NodeRepair, Node: node})
	}
	return s
}

// GenConfig bounds the random script generator.
type GenConfig struct {
	// Horizon is the script length; all actions land inside it.
	Horizon sim.Duration
	// Nodes is the network size actions may address.
	Nodes int
	// LossWindows is how many transient loss windows to open.
	LossWindows int
	// MaxLossRate caps each window's drop probability.
	MaxLossRate float64
	// NodeFailures is how many fail→repair cycles to schedule.
	NodeFailures int
	// LinkCuts is how many cut→splice cycles to schedule on random ring
	// segments (skipped by targets without link state).
	LinkCuts int
	// Protect lists nodes that are never failed (e.g. the endpoints a
	// test communicates through). Loss windows still affect them.
	Protect []int
}

// Generate builds a random script from seed. The same (seed, cfg) pair
// always yields the same script.
func Generate(seed uint64, cfg GenConfig) *Script {
	rng := sim.NewRNG(seed)
	s := &Script{Seed: seed}
	protected := map[int]bool{}
	for _, n := range cfg.Protect {
		protected[n] = true
	}
	var candidates []int
	for i := 0; i < cfg.Nodes; i++ {
		if !protected[i] {
			candidates = append(candidates, i)
		}
	}
	for w := 0; w < cfg.LossWindows; w++ {
		start := rng.Duration(cfg.Horizon)
		length := rng.Duration(cfg.Horizon-start) + 1
		rate := cfg.MaxLossRate * rng.Float64()
		s.Actions = append(s.Actions,
			Action{At: sim.Time(0).Add(start), Kind: LossStart, Rate: rate},
			Action{At: sim.Time(0).Add(start + length), Kind: LossStop})
	}
	// Fail→repair cycles must not overlap for one node: a second
	// failure inside an open cycle, once the actions are time-sorted,
	// leaves a repair that fires while the node is already up — an
	// unreachable action Validate rejects. Windows are drawn exactly as
	// before (so seeds without collisions keep their scripts) and only
	// redrawn — boundedly — when they would overlap an accepted window
	// for the same target; a cycle that cannot be placed is dropped.
	place := func(windows map[int][][2]sim.Duration, key int, down, up sim.Duration) bool {
		for _, w := range windows[key] {
			if down < w[1] && w[0] < up {
				return false
			}
		}
		windows[key] = append(windows[key], [2]sim.Duration{down, up})
		return true
	}
	failWindows := map[int][][2]sim.Duration{}
	for f := 0; f < cfg.NodeFailures && len(candidates) > 0; f++ {
		node := candidates[rng.Intn(len(candidates))]
		for try := 0; try < 16; try++ {
			down := rng.Duration(cfg.Horizon)
			up := down + rng.Duration(cfg.Horizon-down) + 1
			if !place(failWindows, node, down, up) {
				continue
			}
			s.Actions = append(s.Actions,
				Action{At: sim.Time(0).Add(down), Kind: NodeFail, Node: node},
				Action{At: sim.Time(0).Add(up), Kind: NodeRepair, Node: node})
			break
		}
	}
	cutWindows := map[int][][2]sim.Duration{}
	for c := 0; c < cfg.LinkCuts && cfg.Nodes > 0; c++ {
		seg := rng.Intn(cfg.Nodes)
		for try := 0; try < 16; try++ {
			down := rng.Duration(cfg.Horizon)
			up := down + rng.Duration(cfg.Horizon-down) + 1
			if !place(cutWindows, seg, down, up) {
				continue
			}
			s.Actions = append(s.Actions,
				Action{At: sim.Time(0).Add(down), Kind: LinkCut, Node: seg},
				Action{At: sim.Time(0).Add(up), Kind: LinkSplice, Node: seg})
			break
		}
	}
	sort.SliceStable(s.Actions, func(i, j int) bool { return s.Actions[i].At < s.Actions[j].At })
	return s
}

// ring adapts *scramnet.Network to Target (the method names differ).
type ring struct{ n *scramnet.Network }

// Ring returns a fault Target driving a SCRAMNet ring: NodeFail maps to
// the optical bypass of §2, loss windows to the CRC-drop fault model the
// ring hardware already implements.
func Ring(n *scramnet.Network) Target { return ring{n} }

func (r ring) Nodes() int            { return r.n.Nodes() }
func (r ring) FailNode(i int)        { r.n.FailNode(i) }
func (r ring) RepairNode(i int)      { r.n.RepairNode(i) }
func (r ring) SetLossRate(x float64) { r.n.SetDropRate(x) }
func (r ring) CutLink(i int)         { r.n.CutLink(i) }
func (r ring) SpliceLink(i int)      { r.n.SpliceLink(i) }
