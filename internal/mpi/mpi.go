// Package mpi is an MPICH-derived MPI implementation, reproducing the
// structure described in §4 of the paper.
//
// MPICH's four layers map to this package as follows: the MPI bindings
// and point-to-point binding layer are the methods on Comm; the Abstract
// Device Interface is the Engine (matching queues, eager and rendezvous
// protocols, request objects); and the Channel Interface at the bottom —
// MPICH's minimal five-function porting layer — is an xport.Endpoint:
// control packets and data chunks are transport messages. Running the
// same Engine over the BillBoard Protocol, TCP-lite sockets or the
// native Myrinet API is exactly how the paper gets comparable MPI
// numbers across networks.
//
// Collective operations are built on point-to-point trees, as in stock
// MPICH — except that, like the paper's modified MPICH, MPI_Bcast and
// MPI_Barrier can instead use the BillBoard Protocol's single-step
// multicast directly (Comm.Bcast / Comm.Barrier with
// WithAlgorithm(Mcast), on a transport with native multicast).
//
// Protocol notes. Messages at or below Config.EagerMax use the eager
// protocol: one control packet carrying the envelope, followed by the
// payload in Config.ChunkSize chunks on the same FIFO stream (the paper's
// SCRAMNet channel device moves these with programmed I/O, which is why
// the MPI-layer latency slope is steeper than the BBP API's — compare
// Figures 1 and 3). Longer messages use rendezvous: request-to-send,
// clear-to-send, then data, so no unexpected-buffer space is ever
// committed to large transfers.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Internal tags (never matched by user wildcards because user tags are
// non-negative and AnyTag only matches what a request asks for).
const (
	tagBcast   = -100
	tagBarrier = -101
	tagReduce  = -102
	tagPlan    = -113 // re-plan fence record (plan.go)
)

// Errors returned by MPI operations.
var (
	ErrTruncated = errors.New("mpi: receive buffer smaller than message")
	ErrBadRank   = errors.New("mpi: rank out of range")
	ErrBadTag    = errors.New("mpi: user tags must be non-negative")
	ErrProtocol  = errors.New("mpi: protocol violation")
	ErrTimeout   = errors.New("mpi: wait timed out")
)

// DeadPeerError reports that a blocking operation was abandoned because
// the transport's failure detector confirmed a required peer dead. It
// is returned within the detector's confirmation window — bounded by
// liveness.Config, not by retry budgets or WaitTimeout — by sends and
// waits naming the peer, and by collectives when any group member dies
// (the operation can never complete once a participant is gone).
// Errors from a transport without liveness still surface as ErrTimeout.
type DeadPeerError struct {
	Rank int // world rank of the dead peer
}

func (e *DeadPeerError) Error() string {
	return fmt.Sprintf("mpi: peer (world rank %d) confirmed dead by the failure detector", e.Rank)
}

// PartitionError reports that a blocking operation was abandoned
// because the transport declared a ring partition: the required peers
// are unreachable, not dead, so the operation is fenced rather than
// failed-over. On the minority side every operation returns it (the
// arc lost quorum); on the majority side only operations naming an
// unreachable peer do — majority collectives instead complete over the
// quorum. Like DeadPeerError it surfaces within the detector's
// confirmation window, never as a hang.
type PartitionError struct {
	Minority bool  // this rank is on the fenced (minority) side
	Peers    []int // world ranks on the far side of the cut
}

func (e *PartitionError) Error() string {
	side := "majority"
	if e.Minority {
		side = "minority"
	}
	return fmt.Sprintf("mpi: ring partition (%s side): peers %v unreachable", side, e.Peers)
}

// Status describes a completed receive.
type Status struct {
	Source int // rank of the sender
	Tag    int
	Len    int
}

// Costs are the software overheads of the MPI layers above the
// transport, calibrated so that MPI adds the paper's ~37 µs constant
// over the BBP API (44 µs vs 6.5 µs for a 0-byte message).
type Costs struct {
	// SendOverhead / RecvOverhead are the fixed per-call costs of the
	// binding + ADI layers on each side.
	SendOverhead sim.Duration
	RecvOverhead sim.Duration
	// PerChunk is the channel-interface bookkeeping per data chunk.
	PerChunk sim.Duration
	// MatchCost is one queue search (posted or unexpected).
	MatchCost sim.Duration
	// CollOverhead is the per-call cost of the multicast fast-path
	// collectives, which short-circuit the MPI binding straight into
	// BillBoard API calls (much less than a full send/recv path — that
	// is how the paper's 37 µs barrier is possible at all).
	CollOverhead sim.Duration
	// CopyPerByte is charged when payload is staged through an
	// unexpected-message buffer instead of landing in the user buffer.
	CopyPerByte sim.Duration
}

// DefaultCosts returns the calibrated MPICH-layer costs (DESIGN.md §5).
func DefaultCosts() Costs {
	return Costs{
		SendOverhead: 27500 * sim.Nanosecond,
		RecvOverhead: 20000 * sim.Nanosecond,
		PerChunk:     1500 * sim.Nanosecond,
		MatchCost:    400 * sim.Nanosecond,
		CollOverhead: 6 * sim.Microsecond,
		CopyPerByte:  15 * sim.Nanosecond,
	}
}

// Config parameterizes the MPI engine.
type Config struct {
	// EagerMax is the largest message sent eagerly; beyond it the
	// rendezvous protocol runs.
	EagerMax int
	// ChunkSize is the channel-interface data packet size.
	ChunkSize int
	// CollChunk is the payload per multicast fast-path message.
	CollChunk int
	// DirectADI models the paper's first §7 future-work direction: an
	// Abstract Device Interface implemented directly on the BillBoard
	// API, removing the Channel Interface layer. Per-call binding costs
	// drop to 60% and per-chunk bookkeeping halves.
	DirectADI bool
	// WaitTimeout bounds blocking waits in virtual time (0 = forever).
	WaitTimeout sim.Duration
	// RndvZeroCopy enables the receiver-posted-window rendezvous path
	// on transports that implement xport.Windowed: the CTS reply
	// carries a data-partition window descriptor and the sender writes
	// payload straight into the receiver's partition through a bounded
	// chunk pipeline. Off (the default), the wire protocol is
	// byte-identical to the legacy sequential rendezvous.
	RndvZeroCopy bool
	// RndvPipelineDepth bounds how many chunks the windowed sender may
	// have in flight on the ring before it waits for the oldest one's
	// drain bound (<= 0 selects the default depth of 2; 1 degenerates
	// to a fully sequential window fill).
	RndvPipelineDepth int
	// Costs is the software cost model.
	Costs Costs
}

// defaultRndvPipelineDepth is the bounded-pipeline depth used when
// Config.RndvPipelineDepth is unset.
const defaultRndvPipelineDepth = 2

// maxWindowNaks bounds the kRNak/kRDone rewrite loop per transfer:
// after this many consecutive whole-window checksum mismatches the
// receiver gives the window up (kRFall) and the payload is resent on
// the sequential kRData path, which rides the billboard's per-message
// recovery machinery. Without the bound, persistent ring loss would
// cycle rewrite-and-renak until the wait timeout.
const maxWindowNaks = 3

// DefaultConfig returns the configuration used for the paper figures.
func DefaultConfig() Config {
	// ChunkSize equals EagerMax: the paper's channel device is a
	// minimal one, mapping MPID_SendChannel onto a single bbp_Send of
	// the whole buffer. With no chunk pipelining, the MESSAGE flag
	// follows the complete payload around the ring and the receiver's
	// I/O-bus read fully serializes behind the wire — which is exactly
	// why the MPI layer's latency slope is steeper than the BBP API's
	// (Figures 1 vs 3).
	return Config{
		EagerMax:    16 << 10,
		ChunkSize:   16 << 10,
		CollChunk:   1024,
		WaitTimeout: 5 * sim.Second,
		Costs:       DefaultCosts(),
	}
}

// envelope is the control-packet header (one per message, plus one per
// rendezvous handshake step).
const (
	kEager = 1
	kRTS   = 2
	kCTS   = 3
	kRData = 4
	// Receiver-posted-window rendezvous kinds (Config.RndvZeroCopy).
	// None of them is ever emitted when the feature is off, so the
	// legacy wire protocol stays byte-identical.
	kCTSW  = 5  // CTS carrying a window descriptor (envWinBytes long)
	kRDone = 6  // sender: window fully written (aux = payload checksum)
	kRNak  = 7  // receiver: checksum mismatch, rewrite the window
	kRAck  = 8  // receiver: payload verified, sender may complete
	kRRej  = 9  // sender: send abandoned, receiver may reclaim the window
	kRFall = 10 // receiver: nak budget spent, resend via sequential kRData

	envBytes = 24
	// envWinBytes is the kCTSW envelope length: the legacy 24 bytes
	// plus the window descriptor (offset and capacity words).
	envWinBytes = 32
	// collMagic prefixes multicast fast-path messages so the engine can
	// distinguish them from envelopes on the same FIFO stream.
	collMagic = 0xC0
	// envCtx is the envelope's context word: MPICH's context id of
	// COMM_WORLD, the only communicator, so every envelope carries it.
	envCtx = 1
)

type envelope struct {
	kind  byte
	tag   int32
	total uint32
	reqID uint32
	aux   uint32 // CTS: receiver-side request id; kRDone: payload checksum
	// Window descriptor, carried only by kCTSW: the partition-relative
	// byte offset of the posted window and its capacity in bytes.
	winOff uint32
	winCap uint32
}

// encodeEnv appends the wire form of e to b: envBytes bytes, or
// envWinBytes for kCTSW.
func encodeEnv(b []byte, e envelope) []byte {
	b = append(b, e.kind, 0, 0, 0)
	b = binary.LittleEndian.AppendUint32(b, envCtx)
	b = binary.LittleEndian.AppendUint32(b, uint32(e.tag))
	b = binary.LittleEndian.AppendUint32(b, e.total)
	b = binary.LittleEndian.AppendUint32(b, e.reqID)
	b = binary.LittleEndian.AppendUint32(b, e.aux)
	if e.kind == kCTSW {
		b = binary.LittleEndian.AppendUint32(b, e.winOff)
		b = binary.LittleEndian.AppendUint32(b, e.winCap)
	}
	return b
}

// decodeEnv is the inverse of encodeEnv. It rejects with ErrProtocol
// every packet encodeEnv cannot produce: a length other than envBytes
// (envWinBytes for kCTSW), an unknown kind, non-zero padding bytes, or
// a context word other than envCtx.
func decodeEnv(b []byte) (envelope, error) {
	if len(b) != envBytes && !(len(b) == envWinBytes && b[0] == kCTSW) {
		return envelope{}, fmt.Errorf("%w: %d-byte control packet", ErrProtocol, len(b))
	}
	if b[0] < kEager || b[0] > kRFall {
		return envelope{}, fmt.Errorf("%w: unknown packet kind %d", ErrProtocol, b[0])
	}
	if b[1]|b[2]|b[3] != 0 {
		return envelope{}, fmt.Errorf("%w: non-zero envelope padding", ErrProtocol)
	}
	if ctx := binary.LittleEndian.Uint32(b[4:]); ctx != envCtx {
		return envelope{}, fmt.Errorf("%w: context %d", ErrProtocol, ctx)
	}
	env := envelope{
		kind:  b[0],
		tag:   int32(binary.LittleEndian.Uint32(b[8:])),
		total: binary.LittleEndian.Uint32(b[12:]),
		reqID: binary.LittleEndian.Uint32(b[16:]),
		aux:   binary.LittleEndian.Uint32(b[20:]),
	}
	if env.kind == kCTSW {
		if len(b) != envWinBytes {
			return envelope{}, fmt.Errorf("%w: %d-byte window CTS", ErrProtocol, len(b))
		}
		env.winOff = binary.LittleEndian.Uint32(b[24:])
		env.winCap = binary.LittleEndian.Uint32(b[28:])
	}
	return env, nil
}

// payloadCheck is the FNV-1a digest the windowed rendezvous uses to
// verify a window's contents: window writes carry no per-chunk
// descriptors or checksums (unlike billboard posts), so kRDone carries
// one digest over the whole payload and a mismatch triggers a kRNak
// rewrite of the window.
func payloadCheck(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// Request is a nonblocking operation handle. A request from Isend or
// Irecv belongs to its caller. Send, Recv, Sendrecv and
// Cart.SendrecvShift make their own and give each back to the engine's
// free list once its wait completes it (Engine.waitFree).
type Request struct {
	isSend bool
	done   bool
	err    error
	status Status

	// Receive state.
	buf  []byte
	src  int // sender rank or AnySource
	tag  int
	comm *Comm

	// Rendezvous-send state.
	data []byte
	dst  int // destination rank
	id   uint32

	// Windowed-rendezvous state (Config.RndvZeroCopy). peerID is the
	// other side's request id — on the receiver the sender's RTS id
	// (addressed by kRNak/kRAck), on the sender the receiver's CTS id
	// (addressed by kRDone). hasWin marks a live window reservation on
	// the receiver, released in handleRDone, on a kRRej/kRFall
	// hand-back, or when the wait is abandoned — immediately if the
	// borrower (winPeer, the sender's world rank) is confirmed dead,
	// otherwise parked as a zombie until the borrower is provably done
	// writing — so an aborted transfer never pins partition space and a
	// release never races a live sender's in-flight window stores. naks
	// counts consecutive kRDone checksum mismatches against
	// maxWindowNaks.
	peerID  uint32
	winOff  int
	winCap  int
	winPeer int
	hasWin  bool
	naks    int
}

// Done reports whether the operation has completed (poll without
// progressing; use Wait or Test to progress).
func (r *Request) Done() bool { return r.done }
