// Package spin is a sPIN-style in-network handler engine for the
// SCRAMNet NIC model (Hoefler et al., PAPERS.md): applications install
// small deterministic handlers that execute at ring transit points,
// before a circulating packet is applied to the local bank and
// forwarded downstream. A handler can let the packet pass (Forward),
// absorb it (Consume), mutate its payload in flight (Rewrite — the
// streaming reduction-on-the-ring primitive), or skip the local apply
// while forwarding unchanged (Steer — topic filtering for pub/sub
// fan-out).
//
// Handler cost is charged in the virtual-time model: each handler
// reports its work in handler cycles via HandlerCtx.Charge, the NIC
// converts cycles to time with scramnet.Config.HandlerCycleCost, and a
// per-packet budget (scramnet.Config.HandlerBudget) bounds the transit
// stall. A packet whose handlers overrun the budget traps to the host:
// every in-flight mutation is rolled back — the payload bytes and
// handler-internal state via the TrapAware callback — and the packet
// proceeds as if no handler were installed, so a buggy or
// adversarial handler can slow one transit but never wedge or corrupt
// the ring.
//
// The package is hardware-agnostic on purpose: it knows offsets, bytes
// and cycles, never *scramnet.NIC (which imports this package). All
// engine state is mutated only from simulation callbacks, so handler
// execution is deterministic for a fixed event order — the property the
// determinism battery in internal/scramnet locks in.
package spin

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Verdict is a handler's decision about the packet in transit.
type Verdict int

const (
	// Forward applies the packet to the local bank and forwards it
	// unchanged — the default ring behavior.
	Forward Verdict = iota
	// Consume applies the packet locally and strips it from the ring:
	// no downstream node sees it.
	Consume
	// Rewrite is Forward for a packet whose payload the handler mutated
	// in place: the local bank and every downstream node observe the
	// rewritten bytes, and the origin applies them at strip time.
	Rewrite
	// Steer forwards the packet unchanged but skips the local apply:
	// this node's bank never sees the write.
	Steer
)

func (v Verdict) String() string {
	switch v {
	case Forward:
		return "forward"
	case Consume:
		return "consume"
	case Rewrite:
		return "rewrite"
	case Steer:
		return "steer"
	}
	return fmt.Sprintf("spin.Verdict(%d)", int(v))
}

// Packet is the transit view of one ring transfer unit. Data aliases
// the circulating payload: writing through it is how a Rewrite verdict
// mutates the packet for the local apply, every downstream node, and
// the origin's strip-apply. Data is valid only during the OnTransit
// (or OnTrap) call it is passed to: the ring recycles the packet and
// its buffer once the packet's trip ends, so a handler must copy what
// it wants to keep, never retain the slice.
type Packet struct {
	// Origin is the injecting node, Off the bank offset the payload
	// lands at, Hops the link traversals so far (including this one).
	Origin int
	Off    int
	Hops   int
	// Data is the payload, mutable in place.
	Data []byte
	// Interrupt mirrors the packet's interrupt bit.
	Interrupt bool
}

// HandlerCtx is the execution context handed to handlers. A NIC keeps
// one per card: it binds Node and the Word hook once, when its first
// handler is installed, and sets Now before each run, so a transit
// allocates nothing. Handlers must not retain the context across calls.
type HandlerCtx struct {
	// Node is the transit node the handler executes on.
	Node int
	// Now is the virtual time of the transit.
	Now sim.Time
	// Word returns the little-endian word at off of the local
	// replicated bank without charging time — handler memory accesses
	// are on-card, not across the host bus. It returns a value, never a
	// view of the bank: the bank is paged, and a page the ring has
	// never written reads as zeros.
	Word func(off int) uint32

	spent  int64
	budget int64
}

// Charge records cycles of handler work. Once the per-packet budget is
// exceeded the engine traps the packet to the host: mutations roll
// back and the packet proceeds un-handled.
func (c *HandlerCtx) Charge(cycles int64) {
	if cycles > 0 {
		c.spent += cycles
	}
}

// Overrun reports whether the charged cycles exceed the packet budget.
func (c *HandlerCtx) Overrun() bool { return c.spent > c.budget }

// Handler executes at a ring transit point for packets overlapping its
// installed offset range. It must be deterministic: its decision may
// depend only on the packet, the local bank, and its own state.
type Handler interface {
	OnTransit(ctx *HandlerCtx, pkt Packet) Verdict
}

// TrapAware is implemented by stateful handlers that must observe a
// budget-overrun trap. When a transit traps, the engine rolls the
// packet bytes back, then calls OnTrap on every handler that ran (in
// reverse run order); the handler must
// restore any internal state it mutated during that OnTransit call.
// Without this, state committed by a handler — e.g. a reduction's
// combined-byte count — would survive a rollback its packet effects did
// not, silently desynchronizing the two (the trap's contract is that
// the packet proceeds as if no handler were installed). A trap can be
// caused by a *later* handler in the chain, so checking
// HandlerCtx.Overrun inside OnTransit is not a substitute.
type TrapAware interface {
	OnTrap(pkt Packet)
}

// rng is one installed handler's offset range.
type rng struct {
	off, n  int
	handler Handler
}

// Engine is one NIC's handler table: installed ranges in install
// order, plus the spin.* instruments. The zero value is unusable; NICs
// create engines lazily on first install so an un-handled ring charges
// nothing.
type Engine struct {
	node    int
	budget  int64
	ranges  []rng
	stats   Stats
	scratch []byte    // rollback snapshot, reused across transits
	ran     []Handler // handlers run this transit (TrapAware notification), reused
}

// Stats counts handler activity on one engine; SetMetrics binds each
// field to its spin.* counter.
type Stats struct {
	HandlersRun      int64 // handler executions (one per matching handler per transit)
	HandlerCycles    int64 // cycles charged, including trapped transits
	TrapsToHost      int64 // transits rolled back on budget overrun
	PacketsConsumed  int64
	PacketsRewritten int64
	PacketsSteered   int64
}

// NewEngine builds a handler engine for one transit node with the
// given per-packet cycle budget.
func NewEngine(node int, budget int64) *Engine {
	if budget <= 0 {
		panic("spin: handler budget must be positive")
	}
	return &Engine{node: node, budget: budget}
}

// SetMetrics binds the engine's Stats to m's spin.* counters, keyed by
// the engine's node (nil binds nothing).
func (e *Engine) SetMetrics(m *metrics.Registry) {
	m.Bind("spin.handlers_run", e.node, &e.stats.HandlersRun)
	m.Bind("spin.handler_cycles", e.node, &e.stats.HandlerCycles)
	m.Bind("spin.traps_to_host", e.node, &e.stats.TrapsToHost)
	m.Bind("spin.packets_consumed", e.node, &e.stats.PacketsConsumed)
	m.Bind("spin.packets_rewritten", e.node, &e.stats.PacketsRewritten)
	m.Bind("spin.packets_steered", e.node, &e.stats.PacketsSteered)
}

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Install registers h for packets overlapping [off, off+n). Handlers
// run in install order; ranges may overlap.
func (e *Engine) Install(off, n int, h Handler) {
	if off < 0 || n <= 0 {
		panic(fmt.Sprintf("spin: bad handler range [%d,%d)", off, off+n))
	}
	if h == nil {
		panic("spin: nil handler")
	}
	e.ranges = append(e.ranges, rng{off: off, n: n, handler: h})
}

// Covers reports whether any installed range overlaps [off, off+n) —
// the fast path that keeps un-handled traffic free of handler cost.
func (e *Engine) Covers(off, n int) bool {
	for i := range e.ranges {
		r := &e.ranges[i]
		if off < r.off+r.n && r.off < off+n {
			return true
		}
	}
	return false
}

// Run executes every matching handler against the packet, in install
// order. A Consume or Steer verdict ends the chain; Rewrite is sticky
// across the remaining handlers. On budget overrun the packet traps to
// the host: the payload is rolled back to its pre-handler bytes, every
// handler that ran is notified via TrapAware (reverse run order) to roll
// back its own state, and the verdict is forced to Forward, as if no
// handler were installed. The cycles actually
// charged (capped at the budget) are returned so the NIC can convert
// them to transit time.
func (e *Engine) Run(ctx *HandlerCtx, pkt Packet) (v Verdict, cycles int64, trapped bool) {
	ctx.spent, ctx.budget = 0, e.budget
	e.scratch = append(e.scratch[:0], pkt.Data...)
	e.ran = e.ran[:0]
	v = Forward
run:
	for i := range e.ranges {
		r := &e.ranges[i]
		if pkt.Off >= r.off+r.n || r.off >= pkt.Off+len(pkt.Data) {
			continue
		}
		e.ran = append(e.ran, r.handler)
		hv := r.handler.OnTransit(ctx, pkt)
		e.stats.HandlersRun++
		if ctx.Overrun() {
			trapped = true
			break
		}
		switch hv {
		case Consume, Steer:
			v = hv
			break run
		case Rewrite:
			v = Rewrite
		}
	}
	cycles = ctx.spent
	if trapped {
		cycles = e.budget
		copy(pkt.Data, e.scratch)
		for i := len(e.ran) - 1; i >= 0; i-- {
			if ta, ok := e.ran[i].(TrapAware); ok {
				ta.OnTrap(pkt)
			}
		}
		v = Forward
		e.stats.TrapsToHost++
	}
	e.stats.HandlerCycles += cycles
	switch v {
	case Consume:
		e.stats.PacketsConsumed++
	case Rewrite:
		e.stats.PacketsRewritten++
	case Steer:
		e.stats.PacketsSteered++
	}
	return v, cycles, trapped
}
