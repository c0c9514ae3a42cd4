// Package liveness implements heartbeat-based cluster membership on top
// of the BillBoard Protocol's replicated memory.
//
// Every node publishes a (beat, incarnation) word pair in a
// single-writer heartbeat table that replicates like any other SCRAMNet
// write — there is no new wire mechanism. Each node also runs a local
// timeout-based failure Detector over its replica of the table: a peer
// whose beat word stops advancing moves alive → suspect after
// SuspectAfter and suspect → dead after ConfirmAfter, both measured
// from the last observed progress. Because the table replicates to all
// banks in one ring revolution, detectors converge without exchanging
// verdicts.
//
// Incarnation numbers fence stale identities: a node that was declared
// dead stays dead to its peers until it publishes a strictly higher
// incarnation (which it does after noticing its own link went down),
// at which point it rejoins as a fresh instance. Beats that arrive at a
// dead peer's old incarnation are counted but ignored — the old
// identity cannot be resurrected.
//
// The package is transport-agnostic: internal/core owns the heartbeat
// table layout and the publish/scan daemon and feeds samples into a
// Detector; hybrid and MPI layers consume the resulting View through
// the Provider interface.
package liveness

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// State is a detector's verdict about one peer.
type State uint8

const (
	// Alive: the peer's beat advanced within SuspectAfter.
	Alive State = iota
	// Suspect: no progress for SuspectAfter; the peer may be dead, or
	// the ring may be losing its beats. Consumers should prepare to
	// fail over but must not reclaim the peer's resources yet.
	Suspect
	// Dead: no progress for ConfirmAfter; the peer's identity is
	// fenced. Only a higher incarnation revives it.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config calibrates the heartbeat publisher and failure detector.
type Config struct {
	// Enabled turns the subsystem on. The zero Config disables it and
	// leaves the control-partition layout unchanged.
	Enabled bool

	// Period is the heartbeat publish/scan interval.
	Period sim.Duration

	// SuspectAfter is how long a peer's beat may stall before the
	// detector moves it alive → suspect. Measured from the last
	// observed beat advance, so it must comfortably exceed Period plus
	// one ring revolution.
	SuspectAfter sim.Duration

	// ConfirmAfter is how long a stall lasts before suspect → dead.
	// Measured from the last observed beat advance (not from the
	// suspicion), so ConfirmAfter > SuspectAfter. This bounds how long
	// any layer waits on a dead peer; it replaces the retry daemon's
	// MaxRetries × Timeout death discovery.
	ConfirmAfter sim.Duration
}

// DefaultConfig returns a calibration that tolerates the fault
// battery's loss windows: confirming death requires ConfirmAfter/Period
// = 25 consecutive lost heartbeat packets, so a loss window at rate r
// produces a false death with probability ~r^25 (≈ 3e-6 even at
// r = 0.6) while a real death is confirmed within 2.5 ms — twenty times
// faster than the retry daemon's 8 × 200 µs-doubling backoff budget.
func DefaultConfig() Config {
	return Config{
		Enabled:      true,
		Period:       100 * sim.Microsecond,
		SuspectAfter: 500 * sim.Microsecond,
		ConfirmAfter: 2500 * sim.Microsecond,
	}
}

// Validate checks the window ordering Period < SuspectAfter <
// ConfirmAfter that the detector state machine assumes.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Period <= 0 {
		return fmt.Errorf("liveness: Period %v must be positive", c.Period)
	}
	if c.SuspectAfter < c.Period {
		return fmt.Errorf("liveness: SuspectAfter %v < Period %v", c.SuspectAfter, c.Period)
	}
	if c.ConfirmAfter <= c.SuspectAfter {
		return fmt.Errorf("liveness: ConfirmAfter %v must exceed SuspectAfter %v", c.ConfirmAfter, c.SuspectAfter)
	}
	return nil
}

// View is a read-only membership view, safe to consult on every send.
// Implementations are local state machines: State costs no virtual
// time and never blocks.
type View interface {
	// State returns the current verdict about node (Alive for self).
	State(node int) State
	// Incarnation returns the newest incarnation observed for node.
	Incarnation(node int) uint32
}

// Provider is implemented by transports that run a failure detector
// (core.Endpoint; the hybrid router delegates to its low side). Layers
// above discover liveness by asserting their endpoint to Provider.
// Liveness returns nil when the subsystem is disabled.
type Provider interface {
	Liveness() View
}

// PartitionInfo describes a declared ring partition from the local
// detector's point of view. A partition is declared — not mere death —
// when the unresponsive peers form one contiguous arc of the ring and
// the card's ring status register corroborates with at least two
// severed segments: every arc of a doubly-cut ring borders both cuts,
// so the evidence is arc-local. The winning arc (the quorum) is the
// larger one, with node 0's arc breaking ties; the losing arc fences.
type PartitionInfo struct {
	// Minority is true when the local node is on the losing arc: new
	// sends are fenced until the ring heals.
	Minority bool
	// Peers are the unreachable nodes — the far arc — ascending.
	Peers []int
	// Quorum are the winning arc's members, ascending.
	Quorum []int
}

// Unreachable reports whether node is on the far side of the partition.
func (p PartitionInfo) Unreachable(node int) bool {
	for _, q := range p.Peers {
		if q == node {
			return true
		}
	}
	return false
}

// PartitionView is the optional extension of Provider implemented by
// transports whose detector distinguishes unreachable from dead
// (core.Endpoint over a SCRAMNet ring; the hybrid router delegates to
// its low side). Layers discover it by type assertion, so Providers
// without partition awareness keep working unchanged.
type PartitionView interface {
	// Partition returns the declared partition, if any. The returned
	// slices are copies.
	Partition() (PartitionInfo, bool)
}

// Stats counts detector transitions since creation; NewDetector binds
// each field to its liveness.* counter.
type Stats struct {
	Beats          int64 // heartbeats published by the local node
	Suspects       int64 // alive → suspect transitions
	Refutes        int64 // suspect → alive (a late beat refuted the suspicion)
	Confirms       int64 // suspect → dead transitions
	Rejoins        int64 // dead → alive via a fresh incarnation
	FencedBeats    int64 // beat advances ignored at a dead peer's stale incarnation
	SelfRejoins    int64 // local incarnation bumps after a link-down epoch
	Partitions     int64 // ring partitions declared (contiguous arc + cut evidence)
	PartitionHeals int64 // partitions cleared (splice observed or arc dissolved)
}

// Detector is one node's failure detector over the replicated heartbeat
// table. The owning transport feeds it samples (Observe) and clock
// ticks (Tick); everything else reads it through View.
type Detector struct {
	me  int
	n   int
	cfg Config

	state      []State
	inc        []uint32
	beat       []uint32
	lastFresh  []sim.Time     // last time the peer's beat/incarnation advanced
	suspectSpn []trace.SpanID // open suspect span per peer

	// Partition state: cuts is the last ring status sample
	// (ObserveRing); part is the declared partition, nil outside one;
	// pend is the previous tick's candidate arc (a declaration requires
	// the same arc on two consecutive ticks, because suspicions for one
	// arc's members can trip a tick apart and a partial arc would
	// mis-compute the quorum); resync latches a minority-side heal
	// until the owning transport consumes it (TakeResync).
	cuts   int
	part   *PartitionInfo
	pend   []int
	resync bool

	stats     Stats
	tracer    *trace.Recorder
	deadPeers *metrics.Gauge // liveness.dead_peers
}

// NewDetector returns a detector for `me` in an n-node cluster, with
// every peer initially Alive as of virtual time now. tracer and reg may
// be nil.
func NewDetector(me, n int, cfg Config, now sim.Time, tracer *trace.Recorder, reg *metrics.Registry) *Detector {
	d := &Detector{
		me:         me,
		n:          n,
		cfg:        cfg,
		state:      make([]State, n),
		inc:        make([]uint32, n),
		beat:       make([]uint32, n),
		lastFresh:  make([]sim.Time, n),
		suspectSpn: make([]trace.SpanID, n),
		tracer:     tracer,
	}
	for i := range d.lastFresh {
		d.lastFresh[i] = now
	}
	reg.Bind("liveness.beats", me, &d.stats.Beats)
	reg.Bind("liveness.suspects", me, &d.stats.Suspects)
	reg.Bind("liveness.refutes", me, &d.stats.Refutes)
	reg.Bind("liveness.confirms_dead", me, &d.stats.Confirms)
	reg.Bind("liveness.rejoins", me, &d.stats.Rejoins)
	reg.Bind("liveness.fenced_beats", me, &d.stats.FencedBeats)
	reg.Bind("liveness.self_rejoins", me, &d.stats.SelfRejoins)
	reg.Bind("liveness.partitions_detected", me, &d.stats.Partitions)
	reg.Bind("liveness.partition_heals", me, &d.stats.PartitionHeals)
	d.deadPeers = reg.Gauge("liveness.dead_peers", me)
	return d
}

// State implements View.
func (d *Detector) State(node int) State {
	if node == d.me {
		return Alive
	}
	return d.state[node]
}

// Incarnation implements View.
func (d *Detector) Incarnation(node int) uint32 { return d.inc[node] }

// Stats returns transition counts. The owning transport adds Beats and
// SelfRejoins, which the detector itself cannot see.
func (d *Detector) Stats() Stats { return d.stats }

// AddBeat is called by the owning publisher so Stats covers both halves
// of the subsystem.
func (d *Detector) AddBeat() { d.stats.Beats++ }

// AddSelfRejoin records a local incarnation bump.
func (d *Detector) AddSelfRejoin() { d.stats.SelfRejoins++ }

// incLess compares incarnations with wraparound, like ACK sequence
// numbers: a is older than b if the signed distance is negative.
func incLess(a, b uint32) bool { return int32(a-b) < 0 }

// Observe feeds one sample of peer `node`'s heartbeat pair, read from
// the local replica of the table at virtual time now.
func (d *Detector) Observe(now sim.Time, node int, beat, inc uint32) {
	if node == d.me || node < 0 || node >= d.n {
		return
	}
	switch {
	case incLess(d.inc[node], inc):
		// A strictly newer incarnation always wins: the peer restarted
		// (or healed from a partition) and rejoined as a fresh identity.
		was := d.state[node]
		d.closeSuspect(now, node, "superseded")
		d.state[node] = Alive
		d.inc[node] = inc
		d.beat[node] = beat
		d.lastFresh[node] = now
		if was == Dead {
			d.stats.Rejoins++
			d.deadPeers.Set(d.deadCount())
			d.tracer.Emit(now, trace.Live, d.me, "rejoin", 0, 0, "node=%d inc=%d", trace.Int(node), trace.Int(inc))
		}
	case inc == d.inc[node]:
		if beat == d.beat[node] {
			return // no progress; Tick handles timeouts
		}
		d.beat[node] = beat
		if d.state[node] == Dead {
			// Fencing: the dead identity keeps beating (e.g. its stale
			// state replicated after a repair, before it noticed the
			// outage) but cannot come back without a new incarnation.
			d.stats.FencedBeats++
			d.tracer.Emit(now, trace.Live, d.me, "fence", 0, 0, "node=%d inc=%d beat=%d", trace.Int(node), trace.Int(inc), trace.Int(beat))
			return
		}
		d.lastFresh[node] = now
		if d.state[node] == Suspect {
			d.stats.Refutes++
			d.closeSuspect(now, node, "refuted")
			d.state[node] = Alive
		}
	default:
		// A sample older than what we already saw: a stale replica
		// racing a rejoin. Ignore it entirely.
	}
}

// Tick advances timeout-based transitions at virtual time now. The
// owner calls it once per heartbeat period, after the Observe pass.
func (d *Detector) Tick(now sim.Time) {
	for node := 0; node < d.n; node++ {
		if node == d.me {
			continue
		}
		stall := now.Sub(d.lastFresh[node])
		switch d.state[node] {
		case Alive:
			if stall >= d.cfg.SuspectAfter {
				d.state[node] = Suspect
				d.stats.Suspects++
				d.suspectSpn[node] = d.tracer.BeginSpan(now, trace.Live, d.me, "suspect", 0, 0,
					"node=%d inc=%d stall=%v", trace.Int(node), trace.Int(d.inc[node]), trace.Dur(stall))
			}
		case Suspect:
			if stall >= d.cfg.ConfirmAfter {
				d.state[node] = Dead
				d.stats.Confirms++
				d.deadPeers.Set(d.deadCount())
				d.closeSuspect(now, node, "confirmed-dead")
				d.tracer.Emit(now, trace.Live, d.me, "dead", 0, 0, "node=%d inc=%d stall=%v", trace.Int(node), trace.Int(d.inc[node]), trace.Dur(stall))
			}
		}
	}
	d.checkPartition(now)
}

// ObserveRing feeds the card's ring status register — the number of
// severed segments (scramnet.NIC.RingCuts) — sampled once per heartbeat
// tick before the Observe pass. Two or more cuts are the hardware
// corroboration a partition declaration requires; the count dropping
// back below two is what heals one: the verdicts formed against the
// partitioned arc are discarded wholesale, because the evidence that
// justified them is gone — no incarnation bump is demanded of peers
// that never actually died.
func (d *Detector) ObserveRing(now sim.Time, cuts int) {
	d.cuts = cuts
	if d.part != nil && cuts < 2 {
		d.heal(now, "spliced")
	}
}

// checkPartition runs after the per-peer timeout pass: declare a
// partition when the unresponsive peers form one contiguous arc under
// double-cut evidence, or heal a declared one whose arc dissolved.
func (d *Detector) checkPartition(now sim.Time) {
	if d.part != nil {
		// Dissolution heal: a formerly unreachable peer produced a
		// fresh beat (refute or rejoin) while the cut count still reads
		// partitioned — the arc evidence collapsed, so the declaration
		// cannot stand.
		for _, p := range d.part.Peers {
			if d.state[p] == Alive {
				d.heal(now, "dissolved")
				break
			}
		}
		return
	}
	if d.cuts < 2 {
		d.pend = nil
		return
	}
	var far []int
	for node := 0; node < d.n; node++ {
		if node != d.me && d.state[node] != Alive {
			far = append(far, node)
		}
	}
	if len(far) == 0 || !d.contiguousArc(far) {
		d.pend = nil
		return
	}
	if !equalInts(d.pend, far) {
		d.pend = append(d.pend[:0], far...)
		return
	}
	near := make([]int, 0, d.n-len(far))
	unreach := make([]bool, d.n)
	for _, p := range far {
		unreach[p] = true
	}
	for node := 0; node < d.n; node++ {
		if !unreach[node] {
			near = append(near, node)
		}
	}
	minority := false
	switch {
	case len(near) < len(far):
		minority = true
	case len(near) == len(far):
		minority = near[0] != 0 // node 0's arc breaks the tie
	}
	quorum := near
	if minority {
		quorum = far
	}
	d.part = &PartitionInfo{Minority: minority, Peers: far, Quorum: quorum}
	d.pend = nil
	d.stats.Partitions++
	d.tracer.Emit(now, trace.Live, d.me, "partition-fence", 0, 0, "peers=%s quorum=%s minority=%s cuts=%d",
		trace.Str(fmt.Sprint(far)), trace.Str(fmt.Sprint(quorum)), trace.Bool(minority), trace.Int(d.cuts))
}

// contiguousArc reports whether the given peers (never including me,
// never empty) occupy one contiguous arc of the ring — equivalently,
// the cyclic membership bitmap has exactly two boundaries.
func (d *Detector) contiguousArc(peers []int) bool {
	member := make([]bool, d.n)
	for _, p := range peers {
		member[p] = true
	}
	b := 0
	for i := 0; i < d.n; i++ {
		if member[i] != member[(i+1)%d.n] {
			b++
		}
	}
	return b == 2
}

// heal clears a declared partition: every far-arc verdict resets to
// Alive with a fresh stall clock, and a minority-side node latches the
// resync request its transport consumes via TakeResync.
func (d *Detector) heal(now sim.Time, why string) {
	p := d.part
	d.part = nil
	d.pend = nil
	for _, node := range p.Peers {
		if d.state[node] == Alive {
			continue
		}
		d.closeSuspect(now, node, "partition-heal")
		d.state[node] = Alive
		d.lastFresh[node] = now
	}
	d.deadPeers.Set(d.deadCount())
	d.stats.PartitionHeals++
	if p.Minority {
		d.resync = true
	}
	d.tracer.Emit(now, trace.Live, d.me, "partition-heal", 0, 0, "peers=%s minority=%s %s", trace.Str(fmt.Sprint(p.Peers)), trace.Bool(p.Minority), trace.Str(why))
}

// Partition implements PartitionView. Nil-safe on a nil *Detector.
func (d *Detector) Partition() (PartitionInfo, bool) {
	if d == nil || d.part == nil {
		return PartitionInfo{}, false
	}
	p := *d.part
	p.Peers = append([]int(nil), p.Peers...)
	p.Quorum = append([]int(nil), p.Quorum...)
	return p, true
}

// Fenced reports whether the local node sits on the minority side of a
// declared partition: new sends must be rejected until the ring heals.
// Nil-safe on a nil *Detector.
func (d *Detector) Fenced() bool { return d != nil && d.part != nil && d.part.Minority }

// TakeResync reports — once per heal — that the local node returned
// from the minority side of a partition and must resync its published
// state (billboard re-publish, retry-slot reconciliation).
func (d *Detector) TakeResync() bool {
	r := d.resync
	d.resync = false
	return r
}

func equalInts(a, b []int) bool {
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

// Reset forgets every verdict and restarts all stall clocks at now. The
// owner calls it when the local node bumps its own incarnation after a
// link outage: verdicts formed while partitioned observed a frozen
// replica and are meaningless.
func (d *Detector) Reset(now sim.Time) {
	for node := 0; node < d.n; node++ {
		d.closeSuspect(now, node, "reset")
		d.state[node] = Alive
		d.lastFresh[node] = now
	}
	d.part = nil
	d.pend = nil
	d.deadPeers.Set(0)
}

func (d *Detector) closeSuspect(now sim.Time, node int, why string) {
	if d.suspectSpn[node] != 0 {
		d.tracer.EndSpan(now, trace.Live, d.me, "suspect-end", d.suspectSpn[node], 0, "node=%d %s", trace.Int(node), trace.Str(why))
		d.suspectSpn[node] = 0
	}
}

func (d *Detector) deadCount() int64 {
	var n int64
	for _, s := range d.state {
		if s == Dead {
			n++
		}
	}
	return n
}
