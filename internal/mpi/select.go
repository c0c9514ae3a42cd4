package mpi

// This file is the collective selection layer (DESIGN.md §15): one
// entry point per collective — Barrier, Bcast, Allreduce — with the
// algorithm chosen per call from an options list (Reduce, in
// collect.go, has one algorithm: the binomial tree). Each entry point
// asks membership for a plan first (plan.go): that gate fences the
// minority side of a declared partition, and a quorum plan always runs
// the tree. Otherwise Auto (the default) selects from the transport's
// capabilities and the message size, and WithAlgorithm pins a choice.
//
// The NIC-combined paths also live here: Barrier expressed as one
// spin.Reducer round over a single all-ones BAND lane, and Allreduce
// over the same streaming pass, so gather state accumulates inside the
// SCRAMNet cards at each ring transit (the combining counter,
// PROTOCOL.md) instead of in rank-side poll trees. When the transport
// declines a round, the call degrades to the tree over its plan.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/sim"
	"repro/internal/spin"
)

// Algorithm selects a collective implementation.
type Algorithm int

// The selectable algorithms. Not every algorithm applies to every
// collective: Barrier takes Mcast, Tree and NICCombined, Bcast takes
// Mcast and Tree, and Allreduce takes Tree and NICCombined (the policy
// table in DESIGN.md §15). An inapplicable explicit choice returns
// ErrBadAlgorithm, while Auto always resolves to an applicable one.
const (
	// Auto picks from the membership view, transport capabilities,
	// rank count, and message size.
	Auto Algorithm = iota
	// Mcast uses the transport's single-step native multicast
	// (the paper's §4 implementation).
	Mcast
	// Tree uses the stock binomial tree over point-to-point messages
	// (with the membership-aware release re-plan when a failure
	// detector runs).
	Tree
	// NICCombined combines gather state inside the NICs at ring
	// transit points (spin.Reducer): the streaming allreduce, or the
	// barrier as a 1-lane BAND round.
	NICCombined
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Mcast:
		return "mcast"
	case Tree:
		return "tree"
	case NICCombined:
		return "nic-combined"
	}
	return fmt.Sprintf("mpi.Algorithm(%d)", int(a))
}

// ErrBadAlgorithm reports an explicit WithAlgorithm choice that does
// not apply to the collective it was passed to.
var ErrBadAlgorithm = errors.New("mpi: algorithm not applicable to this collective")

// CollectiveOpts carries per-call collective options.
type CollectiveOpts struct {
	Algorithm Algorithm
}

// CollectiveOption mutates CollectiveOpts.
type CollectiveOption func(*CollectiveOpts)

// WithAlgorithm pins the collective to one implementation instead of
// the Auto policy.
func WithAlgorithm(a Algorithm) CollectiveOption {
	return func(o *CollectiveOpts) { o.Algorithm = a }
}

// algorithm resolves a call's options against its plan: a quorum plan
// always runs the tree (the only shape that spans a subgroup), and
// Auto resolves to auto.
func (pl plan) algorithm(opts []CollectiveOption, auto Algorithm) Algorithm {
	if pl.quorum {
		return Tree
	}
	if len(opts) == 0 {
		return auto // skip o: it escapes through fn(&o) below
	}
	var o CollectiveOpts
	for _, fn := range opts {
		fn(&o)
	}
	if o.Algorithm == Auto {
		return auto
	}
	return o.Algorithm
}

// The streamable 32-bit-lane operators as mpi.Op values. These are the
// ops Auto can offload to the NIC combining pass: they are named
// top-level functions so the selection layer can recognize them by
// code pointer and map them to the ring operator — callers never name
// a ring operator (or import internal/spin) themselves.
func foldU32(op spin.RingOp, acc, in []byte) {
	for i := 0; i+4 <= len(acc) && i+4 <= len(in); i += 4 {
		v := op.Combine(binary.LittleEndian.Uint32(acc[i:]), binary.LittleEndian.Uint32(in[i:]))
		binary.LittleEndian.PutUint32(acc[i:], v)
	}
}

// SumU32 adds little-endian uint32 lanes.
func SumU32(acc, in []byte) { foldU32(spin.OpSumU32, acc, in) }

// MaxU32 takes the elementwise maximum of uint32 lanes.
func MaxU32(acc, in []byte) { foldU32(spin.OpMaxU32, acc, in) }

// MinU32 takes the elementwise minimum of uint32 lanes.
func MinU32(acc, in []byte) { foldU32(spin.OpMinU32, acc, in) }

// BorU32 ORs uint32 lanes.
func BorU32(acc, in []byte) { foldU32(spin.OpBOR, acc, in) }

// BandU32 ANDs uint32 lanes.
func BandU32(acc, in []byte) { foldU32(spin.OpBAND, acc, in) }

// BxorU32 XORs uint32 lanes.
func BxorU32(acc, in []byte) { foldU32(spin.OpBXOR, acc, in) }

// ringOpTable maps the code pointers of the named u32 ops to their
// ring operators. Named top-level functions have distinct code
// pointers; closures (which can share one) are never registered, so a
// user-supplied Op can only ever miss the table and run host-side.
var ringOpTable = map[uintptr]spin.RingOp{}

func regRingOp(fn Op, op spin.RingOp) {
	ringOpTable[reflect.ValueOf(fn).Pointer()] = op
}

func init() {
	regRingOp(SumU32, spin.OpSumU32)
	regRingOp(MaxU32, spin.OpMaxU32)
	regRingOp(MinU32, spin.OpMinU32)
	regRingOp(BorU32, spin.OpBOR)
	regRingOp(BandU32, spin.OpBAND)
	regRingOp(BxorU32, spin.OpBXOR)
}

// ringOpOf resolves an Op to its streamable ring operator, OpNone when
// the op is not one of the named u32 ops.
func ringOpOf(op Op) spin.RingOp {
	if op == nil {
		return spin.OpNone
	}
	return ringOpTable[reflect.ValueOf(op).Pointer()]
}

// nicEligible reports whether the NIC combining substrate is usable at
// all: an in-network transport. The stream region is laid out by rank,
// and a Comm's ranks are the transport's.
func (c *Comm) nicEligible() bool {
	return c.eng.stream != nil
}

// Barrier blocks until every member arrives. Auto prefers the
// NIC-combined round (gather state accumulated in the cards, one
// counter poll at rank 0), degrading to the tree when the stream
// substrate is absent, the membership view is not all-alive, or a
// packet was lost mid-round — the degradation verdict is rank-uniform,
// so every member falls back together.
func (c *Comm) Barrier(p *sim.Proc, opts ...CollectiveOption) error {
	pl, err := c.membership(p, rootless)
	if err != nil {
		return err
	}
	auto := Tree
	if c.nicEligible() {
		auto = NICCombined
	}
	algo := pl.algorithm(opts, auto)
	switch algo {
	case NICCombined:
		err = c.barrierNIC(p, pl)
	case Mcast:
		err = c.barrierMcast(p)
	case Tree:
		err = c.barrierTree(p, pl)
	default:
		err = fmt.Errorf("%w: %v barrier", ErrBadAlgorithm, algo)
	}
	return err
}

// barrierTree gathers empty arrival tokens to the plan's root, then
// releases everyone over the (possibly re-planned) tree.
func (c *Comm) barrierTree(p *sim.Proc, pl plan) error {
	if err := c.gather(p, pl, tagBarrier, nil, nil); err != nil {
		return err
	}
	return c.broadcast(p, pl, nil)
}

// barrierNIC expresses the barrier as one spin.Reducer round over a
// single all-ones BAND lane: every rank's "I arrived" is its staged
// contribution, each transit ANDs the lane and bumps the combining
// counter inside the card, and rank 0's one counter poll replaces the
// rank-side gather tree. The transport declines collectively (same
// verdict every rank) when the all-alive gate fails or a packet was
// lost, and the barrier degrades to the tree.
func (c *Comm) barrierNIC(p *sim.Proc, pl plan) error {
	e := c.eng
	if !c.nicEligible() {
		return c.barrierTree(p, pl)
	}
	binary.LittleEndian.PutUint32(c.laneOne[:], ^uint32(0))
	p.Delay(e.cfg.Costs.CollOverhead)
	done, err := e.stream.StreamAllreduce(p, spin.OpBAND, c.laneOne[:], c.laneOut[:])
	if err != nil {
		return err
	}
	if done {
		e.stats.NICBarriers++
		return nil
	}
	e.stats.StreamFallbacks++
	return c.barrierTree(p, pl)
}

// Bcast broadcasts buf (same length on all ranks) from root. Auto runs
// the binomial tree (re-planned around suspected members when a
// failure detector runs); WithAlgorithm(Mcast) selects the
// transport's single-step native multicast.
func (c *Comm) Bcast(p *sim.Proc, root int, buf []byte, opts ...CollectiveOption) error {
	pl, err := c.membership(p, root)
	if err != nil {
		return err
	}
	switch algo := pl.algorithm(opts, Tree); algo {
	case Mcast:
		return c.bcastMcast(p, root, buf)
	case Tree:
		return c.broadcast(p, pl, buf)
	default:
		return fmt.Errorf("%w: %v bcast", ErrBadAlgorithm, algo)
	}
}

// Allreduce combines sendBuf from every rank with op (assumed
// commutative and associative) into every rank's recvBuf. Auto
// offloads to the NIC combining pass when the op is one of the named
// u32 operators (SumU32, ..., BxorU32), the vector fits the stream
// region, and the substrate is present; everything else runs the tree
// (gather with the fold, then release). WithAlgorithm pins Tree or
// NICCombined; Mcast returns ErrBadAlgorithm. A recvBuf shorter than
// sendBuf returns ErrTruncated before any traffic, whatever the
// algorithm.
func (c *Comm) Allreduce(p *sim.Proc, op Op, sendBuf, recvBuf []byte, opts ...CollectiveOption) error {
	if len(recvBuf) < len(sendBuf) {
		return ErrTruncated
	}
	pl, err := c.membership(p, rootless)
	if err != nil {
		return err
	}
	auto := Tree
	if c.nicReduceEligible(op, sendBuf) {
		auto = NICCombined
	}
	recv := recvBuf[:len(sendBuf)]
	switch algo := pl.algorithm(opts, auto); algo {
	case NICCombined:
		return c.allreduceNIC(p, pl, op, sendBuf, recv)
	case Tree:
		return c.allreduceTree(p, pl, op, sendBuf, recv)
	default:
		return fmt.Errorf("%w: %v allreduce", ErrBadAlgorithm, algo)
	}
}

// nicReduceEligible reports whether this allreduce call can try the
// in-network pass. For a well-formed collective call — every rank
// passing the same op and equally sized buffers — every predicate is
// rank-uniform, so the ranks agree without exchanging a message.
func (c *Comm) nicReduceEligible(op Op, sendBuf []byte) bool {
	n := len(sendBuf)
	return c.nicEligible() && ringOpOf(op).Valid() &&
		n > 0 && n%4 == 0 && n <= c.eng.stream.StreamMax()
}

// allreduceNIC runs the streaming in-network reduction, degrading to
// the tree when the transport declines (suspicion, loss, or timeout —
// same verdict on every rank for the same round).
func (c *Comm) allreduceNIC(p *sim.Proc, pl plan, op Op, sendBuf, recv []byte) error {
	if !c.nicReduceEligible(op, sendBuf) {
		return c.allreduceTree(p, pl, op, sendBuf, recv)
	}
	e := c.eng
	ring := ringOpOf(op)
	p.Delay(e.cfg.Costs.CollOverhead)
	done, err := e.stream.StreamAllreduce(p, ring, sendBuf, recv)
	if err != nil {
		return err
	}
	if done {
		e.stats.StreamAllreduces++
		return nil
	}
	e.stats.StreamFallbacks++
	return c.allreduceTree(p, pl, op, sendBuf, recv)
}

// allreduceTree folds every contribution to the plan's root over the
// gather, then releases the result over the (possibly re-planned)
// tree. Under a quorum plan the unreachable arc's contributions are
// simply absent: the reduction over the quorum is the only meaningful
// result a partitioned collective can produce.
func (c *Comm) allreduceTree(p *sim.Proc, pl plan, op Op, sendBuf, recv []byte) error {
	copy(recv, sendBuf)
	if err := c.gather(p, pl, tagReduce, op, recv); err != nil {
		return err
	}
	return c.broadcast(p, pl, recv)
}
