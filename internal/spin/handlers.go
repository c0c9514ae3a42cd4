package spin

import "fmt"

// RingOp names a 32-bit-lane combining operator a transit handler can
// apply. Operators are identified by number, not function value, so an
// initiator can name the round's operator in a control word and every
// transit node resolves the same code — nothing but data crosses the
// simulated wire. Lanes are 4 bytes because the fixed-packet ring
// fragments anything wider: an 8-byte element can be split across two
// packets that transit independently, so only operators that combine
// 32-bit lanes independently are streamable (fold wider element types
// on the tree path instead).
type RingOp uint8

// The streamable operators.
const (
	OpNone RingOp = iota
	OpSumU32
	OpMaxU32
	OpMinU32
	OpBOR
	OpBAND
	OpBXOR
	opEnd
)

// Valid reports whether o names a streamable operator.
func (o RingOp) Valid() bool { return o > OpNone && o < opEnd }

func (o RingOp) String() string {
	switch o {
	case OpSumU32:
		return "sum-u32"
	case OpMaxU32:
		return "max-u32"
	case OpMinU32:
		return "min-u32"
	case OpBOR:
		return "bor"
	case OpBAND:
		return "band"
	case OpBXOR:
		return "bxor"
	}
	return fmt.Sprintf("spin.RingOp(%d)", int(o))
}

// Combine applies the operator to two 32-bit lanes.
func (o RingOp) Combine(a, b uint32) uint32 {
	switch o {
	case OpSumU32:
		return a + b
	case OpMaxU32:
		if b > a {
			return b
		}
		return a
	case OpMinU32:
		if b < a {
			return b
		}
		return a
	case OpBOR:
		return a | b
	case OpBAND:
		return a & b
	case OpBXOR:
		return a ^ b
	}
	panic(fmt.Sprintf("spin: Combine on %v", o))
}

func word(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putWord(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// CounterRanks is the combining-counter capacity: the counter word
// keeps a participation count in its low 24 bits and the initiator's
// round tag in the high 8, so a single word covers every rank the
// 256-node ring (or a hierarchy of rings) can address. Each transit
// that combined the full round increments the count in place — the NIC
// accumulates gather state, no per-rank bit assignment needed. The tag
// is what lets the initiator's completion poll reject a counter
// stripped back from an *abandoned* round — the initiator's own writes
// land in its bank immediately, but a strip-apply can arrive
// arbitrarily late under transit-link queueing, so a bare count would
// be ambiguous across rounds. Tags collide only for rounds exactly 256
// apart, far beyond any packet's queueing lifetime (the initiator
// additionally bounds each round's wait by the ring drain bound).
const CounterRanks = 1 << 24

// CounterWord encodes a combining-counter word: participation count in
// the low 24 bits, round tag (round mod 256) in the high 8.
func CounterWord(round, count uint32) uint32 {
	return round<<24 | count&(CounterRanks-1)
}

// DecodeCounter inverts CounterWord.
func DecodeCounter(v uint32) (round, count uint32) {
	return v >> 24, v & (CounterRanks - 1)
}

// Reducer is the streaming reduction-on-the-ring handler. The
// initiator lays out three single-writer regions it owns — a header
// word at HdrOff naming the round's operator and vector length, the
// circulating vector at VecOff, and a combining-counter word at CtrOff
// — and writes them in that order, so the ring's per-origin FIFO
// delivers them to every transit node in that order. At each transit
// the handler combines this node's staged contribution (read from the
// local bank at ContribOff) into the circulating vector lanes and, on
// the counter word, increments the count in place — but only if every
// vector byte of the round was seen and combined, which is what lets
// the initiator detect a lost vector packet or a node that died
// mid-round from the stripped count alone. A 1-lane OpBAND round over
// this machinery *is* a NIC-combined barrier: each hop ANDs its
// arrival lane and bumps the counter, and the initiator's single
// counter poll replaces a rank-side gather tree. See DESIGN.md §13/§15
// and PROTOCOL.md "In-network handler extension".
//
// Reducer implements TrapAware: a budget-overrun trap rolls its
// per-round state back along with the packet bytes, so a transit whose
// combine was discarded can never count those bytes toward its
// end-of-round counter increment.
type Reducer struct {
	// HdrOff, VecOff, CtrOff locate the initiator-owned header word,
	// vector region (MaxBytes capacity) and counter word in the bank.
	HdrOff, VecOff, CtrOff int
	MaxBytes               int
	// ContribOff locates this node's staged contribution in the local
	// bank (its own single-writer region, replicated like any other).
	ContribOff int

	st   reducerState
	prev reducerState // pre-transit snapshot, restored by OnTrap
}

// reducerState is the Reducer's per-round progress, kept in one struct
// so a trap can snapshot and restore it atomically.
type reducerState struct {
	op       RingOp
	expect   int
	combined int
	active   bool
}

// HdrWord encodes a round header: vector byte length in the low 24
// bits, operator code in the high 8.
func HdrWord(op RingOp, vecLen int) uint32 {
	return uint32(vecLen)&0xffffff | uint32(op)<<24
}

// DecodeHdr inverts HdrWord.
func DecodeHdr(v uint32) (op RingOp, vecLen int) {
	return RingOp(v >> 24), int(v & 0xffffff)
}

// OnTransit implements Handler. Every Charge is checked against the
// budget *before* the corresponding state commit or payload mutation:
// an overrun detected mid-handler must leave the round state exactly as
// it was, because the engine will roll the packet back (OnTrap covers
// the case where a later handler in the chain causes the trap).
func (r *Reducer) OnTransit(ctx *HandlerCtx, pkt Packet) Verdict {
	r.prev = r.st
	switch {
	case pkt.Off == r.HdrOff && len(pkt.Data) >= 4:
		// Round start: reset per-round state. The header is applied and
		// forwarded unchanged.
		ctx.Charge(2)
		if ctx.Overrun() {
			return Forward
		}
		r.st.op, r.st.expect = DecodeHdr(word(pkt.Data))
		r.st.combined = 0
		r.st.active = r.st.op.Valid() && r.st.expect > 0 && r.st.expect <= r.MaxBytes
		return Forward
	case pkt.Off == r.CtrOff && len(pkt.Data) >= 4:
		ctx.Charge(2)
		if ctx.Overrun() {
			return Forward
		}
		if !r.st.active || r.st.combined != r.st.expect {
			// A vector packet was lost upstream of the ring, or this
			// node joined mid-round: declining to increment is the
			// integrity signal the initiator acts on — the stripped
			// count comes back short of the rank count.
			r.st.active = false
			return Forward
		}
		r.st.active = false
		// The low 24 bits carry the count, the high 8 the round tag;
		// with at most CounterRanks participants the increment can
		// never carry into the tag.
		putWord(pkt.Data, word(pkt.Data)+1)
		return Rewrite
	case pkt.Off >= r.VecOff && pkt.Off < r.VecOff+r.MaxBytes:
		if !r.st.active {
			return Forward
		}
		// Size this node's share of the packet, charge for it, and only
		// then combine the staged lanes into the circulating partial.
		rel := pkt.Off - r.VecOff
		n := 0
		for n+4 <= len(pkt.Data) && rel+n+4 <= r.st.expect {
			n += 4
		}
		ctx.Charge(int64(1 + n/4))
		if ctx.Overrun() || n == 0 {
			return Forward
		}
		for i := 0; i < n; i += 4 {
			c := ctx.Word(r.ContribOff + rel + i)
			putWord(pkt.Data[i:], r.st.op.Combine(word(pkt.Data[i:]), c))
		}
		r.st.combined += n
		return Rewrite
	}
	return Forward
}

// OnTrap implements TrapAware: the per-round state reverts to its
// pre-transit snapshot, matching the engine's payload rollback.
func (r *Reducer) OnTrap(Packet) { r.st = r.prev }

// TopicFilter is the pub/sub fan-out handler: the publisher partitions
// a region of its partition into fixed-size topic slots, and each
// subscriber node installs a filter over the region. Packets for
// subscribed topics pass through (Forward — applied locally and
// forwarded); packets for other topics are steered past this node's
// bank (Steer), so a node's replica only ever materializes the topics
// it asked for. Demonstrated by examples/pubsub.
type TopicFilter struct {
	// Base and SlotBytes partition [Base, Base+Topics*SlotBytes) into
	// topic slots.
	Base, SlotBytes, Topics int
	// Subscribed reports interest in a topic. It must be deterministic.
	Subscribed func(topic int) bool
}

// OnTransit implements Handler.
func (f *TopicFilter) OnTransit(ctx *HandlerCtx, pkt Packet) Verdict {
	ctx.Charge(2)
	t := (pkt.Off - f.Base) / f.SlotBytes
	if t < 0 || t >= f.Topics || f.Subscribed(t) {
		return Forward
	}
	return Steer
}
