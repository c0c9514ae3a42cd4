package mpi

// This file is the collective engine behind the tree algorithm
// (DESIGN.md §15): membership → plan → executor. Barrier, Bcast,
// Allreduce and Reduce all run the same binomial tree; what differs is
// only which members take part and in what order, and that is decided
// up front as a plan value:
//
//   - membership cuts the plan a call starts from: the whole group
//     rotated so the root sits at position 0 (stock MPICH's shape), or,
//     under a declared ring partition, the quorum subgroup rotated from
//     the root's position. The minority side and a root behind the cut
//     are fenced here, before any traffic.
//
//   - with a failure detector, the release is re-planned by the root
//     (fence): suspected members are demoted to leaves fed directly by
//     the root, so a member about to be confirmed dead never stalls a
//     healthy subtree. The root's plan rides the fixed tree as a record
//     ahead of the payload, so divergent per-rank views cannot split
//     the collective.
//
//   - two executors run any plan: gather (contributions toward position
//     0, folded by an Op or empty barrier tokens) and release (the
//     payload, the barrier's go signal or the fence record away from
//     position 0).
//
// plan_test.go pins the resulting message schedule of every tree
// collective: each rank's exit time, for every root, at sizes 1 to 8.

import (
	"bytes"
	"encoding/binary"
	"slices"

	"repro/internal/liveness"
	"repro/internal/sim"
)

// plan is one collective's tree. order lists the participating comm
// ranks by tree position, order[0] being the root. Positions
// [0, healthy) form the binomial tree; positions [healthy, len(order))
// are demoted suspects the root feeds directly. quorum marks a plan cut
// over a declared partition's quorum.
type plan struct {
	order   []int
	healthy int
	quorum  bool
}

// rotated lays members out as a binomial plan rooted at root. The
// plan's order reuses the Comm's planBuf: a plan lives only as long as
// its collective.
func (c *Comm) rotated(members []int, root int) plan {
	at := slices.Index(members, root)
	c.planBuf = append(append(c.planBuf[:0], members[at:]...), members[:at]...)
	return plan{order: c.planBuf, healthy: len(members)}
}

// rootless is the root argument of collectives without a payload root
// (Barrier, Allreduce): their plan is rooted at the first participant.
const rootless = -1

// membership cuts the plan of a collective rooted at root (see the
// file comment). A quorum plan is noted as a plan generation on every
// member, counted as a re-plan at its root.
func (c *Comm) membership(p *sim.Proc, root int) (plan, error) {
	e := c.eng
	part, _ := e.partition() // the zero value declares nothing unreachable
	if part.Minority {
		return plan{}, e.partitionErr(part)
	}
	if root != rootless {
		if err := c.checkRank(root); err != nil {
			return plan{}, err
		}
	}
	members := c.members(part)
	if root == rootless {
		root = members[0]
	}
	if !slices.Contains(members, root) {
		// The payload source itself is behind the cut: no quorum plan
		// can produce it.
		return plan{}, e.partitionErr(part)
	}
	pl := c.rotated(members, root)
	pl.quorum = len(members) < c.Size()
	if pl.quorum {
		c.notePlan(p, c.rankMask(part.Unreachable), c.rank == root)
	}
	return pl, nil
}

// members returns the ranks part leaves reachable from this side, in
// rank order: every rank when no partition is declared. The calling
// rank is always among them. The list reuses the Comm's memberBuf and
// is valid until the next call.
func (c *Comm) members(part liveness.PartitionInfo) []int {
	c.memberBuf = c.memberBuf[:0]
	for r := 0; r < c.Size(); r++ {
		if !part.Unreachable(r) {
			c.memberBuf = append(c.memberBuf, r)
		}
	}
	return c.memberBuf
}

// rankMask renders the ranks that satisfy in as a bitmask: the shape
// of both a suspect set and a partition's unreachable arc.
func (c *Comm) rankMask(in func(rank int) bool) []byte {
	mask := make([]byte, (c.Size()+7)/8)
	for r := 0; r < c.Size(); r++ {
		if in(r) {
			mask[r/8] |= 1 << (r % 8)
		}
	}
	return mask
}

func maskBit(mask []byte, r int) bool { return mask[r/8]&(1<<(r%8)) != 0 }

// notePlan records mask (suspects or the unreachable arc) as the comm's
// plan generation: a changed mask bumps the epoch, and at the
// collective's root a non-empty one counts as a re-plan
// (Stats().CollReplans, mpi.coll_replans). fenced compares
// lastPlanMask with the declared partition to tell a quorum collective
// from one that straddled the declaration.
func (c *Comm) notePlan(p *sim.Proc, mask []byte, atRoot bool) {
	if bytes.Equal(mask, c.lastPlanMask) {
		return
	}
	c.planEpoch++
	c.lastPlanMask = mask
	if atRoot && slices.ContainsFunc(mask, func(b byte) bool { return b != 0 }) {
		e := c.eng
		e.stats.CollReplans++
	}
}

// broadcast releases buf from pl's root: over pl itself under a quorum
// or without a failure detector, else over the root's fenced suspect
// re-plan.
func (c *Comm) broadcast(p *sim.Proc, pl plan, buf []byte) error {
	if c.eng.live != nil && !pl.quorum && len(pl.order) > 1 {
		var err error
		if pl, err = c.fence(p, pl); err != nil {
			return err
		}
	}
	return c.release(p, pl, tagBcast, buf)
}

// fence is the suspect re-plan: the root reads its detector's view,
// notes the suspect set as a plan generation, and releases the plan
// record (epoch + suspect mask) over the fixed plan pl, so every member
// routes the payload by the root's plan. The re-plan puts the root at
// position 0, healthy members next in rank order and suspects last.
func (c *Comm) fence(p *sim.Proc, pl plan) (plan, error) {
	e := c.eng
	root := pl.order[0]
	rec := make([]byte, 4+(c.Size()+7)/8)
	if c.rank == root {
		self := e.ep.Rank()
		mask := c.rankMask(func(w int) bool { return w != self && e.live.State(w) != liveness.Alive })
		c.notePlan(p, mask, true)
		binary.LittleEndian.PutUint32(rec, c.planEpoch)
		copy(rec[4:], mask)
	}
	if err := c.release(p, pl, tagPlan, rec); err != nil {
		return plan{}, err
	}
	if c.rank != root {
		c.planEpoch = binary.LittleEndian.Uint32(rec)
	}
	mask := rec[4:]
	re := plan{order: []int{root}}
	for r := 0; r < c.Size(); r++ {
		if r != root && !maskBit(mask, r) {
			re.order = append(re.order, r)
		}
	}
	re.healthy = len(re.order)
	for r := 0; r < c.Size(); r++ {
		if r != root && maskBit(mask, r) {
			re.order = append(re.order, r)
		}
	}
	return re, nil
}

// gather is the binomial gather toward plan position 0: each position
// receives from its children (pos+mask, ascending) and then sends acc
// to its parent (pos-mask). op folds each child's contribution into
// acc, charged at Costs.CopyPerByte; a nil op over a nil acc is the
// barrier's gather of empty arrival tokens (a zero charge).
func (c *Comm) gather(p *sim.Proc, pl plan, tag int, op Op, acc []byte) error {
	pos := slices.Index(pl.order, c.rank)
	n := len(pl.order)
	if cap(c.gatherBuf) < len(acc) {
		c.gatherBuf = make([]byte, len(acc))
	}
	tmp := c.gatherBuf[:len(acc)]
	for mask := 1; mask < n; mask <<= 1 {
		if pos&mask != 0 {
			return c.Send(p, pl.order[pos-mask], tag, acc)
		}
		if pos+mask < n {
			st, err := c.Recv(p, pl.order[pos+mask], tag, tmp)
			if err != nil {
				return err
			}
			clear(tmp[st.Len:]) // a short contribution folds as zeros
			p.Delay(sim.Duration(len(tmp)) * c.eng.cfg.Costs.CopyPerByte)
			if op != nil {
				op(acc, tmp)
			}
		}
	}
	return nil
}

// release is the binomial release from plan position 0 over positions
// [0, healthy): each position receives buf from its parent (pos-mask)
// and sends it to its children (pos+mask, descending). The root then
// feeds the demoted positions [healthy, len) directly, last, so their
// delivery never gates a healthy subtree; a confirmed-dead member
// surfaces there (or at its own liveness-aware receive) as a
// DeadPeerError.
func (c *Comm) release(p *sim.Proc, pl plan, tag int, buf []byte) error {
	pos := slices.Index(pl.order, c.rank)
	h := pl.healthy
	if pos >= h {
		_, err := c.Recv(p, pl.order[0], tag, buf)
		return err
	}
	mask := 1
	for ; mask < h; mask <<= 1 {
		if pos&mask != 0 {
			if _, err := c.Recv(p, pl.order[pos-mask], tag, buf); err != nil {
				return err
			}
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if pos+mask < h {
			if err := c.Send(p, pl.order[pos+mask], tag, buf); err != nil {
				return err
			}
		}
	}
	if pos == 0 {
		for _, r := range pl.order[h:] {
			if err := c.Send(p, r, tag, buf); err != nil {
				return err
			}
		}
	}
	return nil
}
