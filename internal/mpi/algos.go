package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// Alternative collective algorithms. Stock MPICH selects among several
// algorithms by message size and communicator shape; this file provides
// the classic alternatives to the binomial trees in collect.go so the
// benchmark harness can ablate the choice on each network.

const (
	tagDissem = -110
	tagRDAll  = -111
	tagRS     = -112
	tagPlan   = -113 // re-plan fence record (select.go)
)

// barrierDissemination is the dissemination barrier: ceil(log2 n)
// rounds, in round k each rank sends a token to (rank+2^k) mod n and
// waits for one from (rank-2^k) mod n. More rounds than the tree
// gather/release for small n, but no root bottleneck.
func (c *Comm) barrierDissemination(p *sim.Proc) error {
	n := c.Size()
	for dist := 1; dist < n; dist <<= 1 {
		dst := (c.rank + dist) % n
		src := (c.rank - dist + n) % n
		if _, err := c.Sendrecv(p, dst, tagDissem, nil, src, tagDissem, nil); err != nil {
			return err
		}
	}
	return nil
}

// allreduceRD is recursive-doubling allreduce: log2(n) exchange rounds
// for power-of-two communicators, with the standard fold-in/fold-out
// for the remainder ranks. op must be commutative and associative.
func (c *Comm) allreduceRD(p *sim.Proc, op Op, sendBuf, recvBuf []byte) error {
	n := c.Size()
	acc := recvBuf[:len(sendBuf)]
	copy(acc, sendBuf)
	tmp := make([]byte, len(sendBuf))

	// pof2 = largest power of two ≤ n; the first (n-pof2) "extra" pairs
	// fold into their lower partner.
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	inGroup := true
	vrank := c.rank
	switch {
	case c.rank < 2*rem && c.rank%2 == 1:
		// Odd ranks below 2*rem send their contribution down and sit out.
		if err := c.Send(p, c.rank-1, tagRDAll, acc); err != nil {
			return err
		}
		inGroup = false
	case c.rank < 2*rem:
		// Even ranks below 2*rem absorb their upper neighbor.
		if _, err := c.Recv(p, c.rank+1, tagRDAll, tmp); err != nil {
			return err
		}
		op(acc, tmp)
		vrank = c.rank / 2
	default:
		vrank = c.rank - rem
	}

	if inGroup {
		for mask := 1; mask < pof2; mask <<= 1 {
			vpartner := vrank ^ mask
			partner := vpartner
			if vpartner < rem {
				partner = vpartner * 2
			} else {
				partner = vpartner + rem
			}
			if _, err := c.Sendrecv(p, partner, tagRDAll, acc, partner, tagRDAll, tmp); err != nil {
				return err
			}
			op(acc, tmp)
		}
	}

	// Fold out: the sitting-out odd ranks receive the result.
	if c.rank < 2*rem {
		if c.rank%2 == 1 {
			if _, err := c.Recv(p, c.rank-1, tagRDAll, acc); err != nil {
				return err
			}
		} else {
			if err := c.Send(p, c.rank+1, tagRDAll, acc); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReduceScatter combines contributions with op and leaves rank r with
// block r of the result: recv receives len(send)/Size() bytes. This is
// the reduce-then-scatter composition (MPICH's short-vector choice).
func (c *Comm) ReduceScatter(p *sim.Proc, op Op, send, recv []byte) error {
	n := c.Size()
	if len(send)%n != 0 {
		return fmt.Errorf("%w: ReduceScatter send buffer not divisible by %d ranks", ErrProtocol, n)
	}
	blk := len(send) / n
	if len(recv) < blk {
		return fmt.Errorf("%w: ReduceScatter receive buffer below block size %d", ErrProtocol, blk)
	}
	full := make([]byte, len(send))
	if err := c.Reduce(p, 0, op, send, full); err != nil {
		return err
	}
	if c.rank == 0 {
		for r := 1; r < n; r++ {
			if err := c.Send(p, r, tagRS, full[r*blk:(r+1)*blk]); err != nil {
				return err
			}
		}
		copy(recv, full[:blk])
		return nil
	}
	_, err := c.Recv(p, 0, tagRS, recv[:blk])
	return err
}
