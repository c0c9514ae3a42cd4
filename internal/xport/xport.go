// Package xport defines the message transport interface shared by every
// network in the testbed: the BillBoard Protocol on SCRAMNet, TCP-lite
// sockets on Fast Ethernet / ATM / Myrinet, and the native Myrinet API.
//
// The MPI implementation's channel device is written against this
// interface, which is how the paper's apples-to-apples comparison — the
// same MPICH stack over different networks — is reproduced structurally.
package xport

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/spin"
)

// Endpoint is one process's handle on a messaging substrate. Sends are
// reliable and each (sender, receiver) stream is delivered in order.
type Endpoint interface {
	// Rank is this endpoint's process number, Procs the world size.
	Rank() int
	Procs() int
	// MaxMessage is the largest payload a single Send may carry.
	MaxMessage() int
	// Send posts data to dst. It may block (virtual time) for flow
	// control but returns before the receiver consumes the message.
	// It reads data until it returns, never after: the caller may reuse
	// the buffer at once.
	Send(p *sim.Proc, dst int, data []byte) error
	// Mcast posts one message to several destinations, one copy per
	// distinct rank. A list that fails ValidMcast (empty, self or out
	// of range) fails the call with nothing sent. Substrates without
	// hardware replication loop over Send (LoopMcast). data is read
	// as by Send.
	Mcast(p *sim.Proc, dsts []int, data []byte) error
	// Recv blocks for the next in-order message from src. A message
	// longer than buf is consumed all the same, with an error.
	Recv(p *sim.Proc, src int, buf []byte) (int, error)
	// TryRecv polls once for a message from src; truncation as in Recv.
	TryRecv(p *sim.Proc, src int, buf []byte) (n int, ok bool, err error)
	// RecvAny blocks for the next message from any source; truncation
	// as in Recv. Sources with messages waiting are served round-robin,
	// starting just past the one served last.
	RecvAny(p *sim.Proc, buf []byte) (src, n int, err error)
	// NativeMcast reports whether Mcast is a single-step hardware
	// operation (true only for the BillBoard Protocol on SCRAMNet).
	NativeMcast() bool
}

// ValidMcast reports whether dsts is a valid Mcast list for endpoint me
// of a procs-process world: not empty, every rank in [0, procs) and
// none me. Repeats are allowed.
func ValidMcast(me, procs int, dsts []int) bool {
	for _, d := range dsts {
		if d == me || d < 0 || d >= procs {
			return false
		}
	}
	return len(dsts) > 0
}

// LoopMcast is Mcast without hardware replication: after the caller's
// ValidMcast, it sends to each distinct rank of dsts in list order and
// stops at the first error.
func LoopMcast(p *sim.Proc, dsts []int, data []byte, send func(p *sim.Proc, dst int, data []byte) error) error {
	for i, d := range dsts {
		if slices.Contains(dsts[:i], d) {
			continue
		}
		if err := send(p, d, data); err != nil {
			return err
		}
	}
	return nil
}

// Sweeper is the optional progress-sweep extension (the BillBoard
// Protocol, the native Myrinet API and the hybrid router implement it on
// a Poller over Prober steps): LoopSweep's
// result at exactly LoopSweep's virtual cost, for a poller that can run
// a sweep's idle polls without running the process.
type Sweeper interface {
	// Sweep is LoopSweep(p, ep, from, buf, stop) on this endpoint.
	Sweep(p *sim.Proc, from int, buf []byte, stop func() bool) (src, n int, err error)
}

// LoopSweep runs ep.TryRecv on each sender in turn (every rank but ep's
// own, in rank order), starting at from, until one returns a message or
// an error; it returns that sender and the TryRecv's n and err. When it
// passes the last sender it calls stop: if stop is true it returns
// src = -1, otherwise it goes on from the first sender. stop must not
// change any state, since Sweepers may call it outside the process.
func LoopSweep(p *sim.Proc, ep Endpoint, from int, buf []byte, stop func() bool) (src, n int, err error) {
	procs, me := ep.Procs(), ep.Rank()
	for s := from; ; s++ {
		if s >= procs {
			if stop() {
				return -1, 0, nil
			}
			s = 0
		}
		if s == me {
			continue
		}
		n, ok, err := ep.TryRecv(p, s, buf)
		if ok || err != nil {
			return s, n, err
		}
	}
}

// Taker is the optional receive-into-owned-buffer extension (the
// BillBoard Protocol and the native Myrinet API implement it): a layer
// that keeps messages past the receive, like the hybrid router's reorder
// buffer, takes each one in a buffer sized to it instead of receiving
// into a buffer sized for the largest message it could ever see.
type Taker interface {
	// TryTake is TryRecv at exactly TryRecv's virtual cost, except that
	// the message arrives in a buffer of its own length: one from
	// bufs.Get(n), taken once its length n is known, or the
	// implementation's own, given in exchange for one of bufs'. On ok
	// the caller owns msg and hands it back with bufs.Put; otherwise msg
	// is nil, and a buffer taken for a message that failed has gone back
	// to bufs.
	TryTake(p *sim.Proc, src int, bufs *Buffers) (msg []byte, ok bool, err error)
}

// StreamReducer is the optional in-network collective extension (only
// the BillBoard Protocol on SCRAMNet with Config.Stream implements
// it): an allreduce over 32-bit lanes computed by transit handlers as
// the vector circulates the ring, one revolution instead of a log(P)
// software tree. Layers that want the fast path type-assert their
// Endpoint against this interface and fall back to rank-side
// reduction when the assertion fails or StreamAllreduce declines.
type StreamReducer interface {
	// StreamMax is the largest vector one fast-path round can carry
	// (0 when the extension is configured off).
	StreamMax() int
	// StreamAllreduce runs one collective in-network allreduce round.
	// done=false with a nil error is a collective decline: every rank
	// gets the same verdict for the same round and must run the same
	// software fallback. done=true means recv holds the reduction of
	// every rank's send.
	StreamAllreduce(p *sim.Proc, op spin.RingOp, send, recv []byte) (done bool, err error)
}

// Windowed is the optional receiver-posted-window extension (only the
// BillBoard Protocol on SCRAMNet implements it). A receiver reserves a
// contiguous window in its own data partition and advertises it to one
// sender, who then writes payload straight into the remote replica of
// that window — no per-chunk descriptors, flags or acknowledgments —
// and the receiver reads it back locally. Layers that want the
// zero-copy rendezvous path type-assert their Endpoint against this
// interface and fall back to plain sends when the assertion fails.
type Windowed interface {
	// ReserveWindow reserves n bytes of this endpoint's data partition
	// and grants write ownership of the window to process src. It may
	// run garbage collection to make room; ok is false when no
	// contiguous window of n bytes can be found.
	ReserveWindow(p *sim.Proc, src, n int) (off int, ok bool)
	// ReleaseWindow returns a reserved window to the partition's free
	// pool and reclaims write ownership for the endpoint. Pure
	// bookkeeping: no bus or wire time, callable outside a process
	// context (e.g. when abandoning a transfer after a peer death).
	ReleaseWindow(off, n int)
	// WriteWindow writes data into dst's partition at the
	// partition-relative offset off (within a window dst reserved for
	// this endpoint). It returns a conservative bound on the virtual
	// time by which the written bytes are visible at every live node,
	// letting callers pipeline further writes against ring circulation.
	WriteWindow(p *sim.Proc, dst, off int, data []byte) sim.Time
	// ReadWindow reads len(buf) bytes from this endpoint's own
	// partition at partition-relative offset off (a local bank read).
	ReadWindow(p *sim.Proc, off int, buf []byte)
}
