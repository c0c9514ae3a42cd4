// Package tcpip is a deliberately small kernel TCP/IP model ("TCP-lite")
// that runs message-oriented sockets over any xport.Fabric. It exists to
// reproduce the software overhead structure that dominates the baseline
// networks in the paper: system calls, per-segment protocol processing,
// software checksums, user↔kernel copies, interrupts, and windowed flow
// control with cumulative acknowledgements.
//
// Simplifications, documented per the reproduction contract: the
// fabrics are lossless and FIFO, so there is no retransmission, no
// congestion control and no connection handshake (the paper's
// measurements are steady-state ping-pongs on established connections);
// message framing (length-prefixing) is folded into the segment header
// rather than modeled as a byte stream.
//
// Each node runs its protocol stack as a daemon process — the testbed's
// dual-processor SMP boxes allow kernel receive processing to proceed
// while the application computes.
package tcpip

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/xport"
)

// HeaderBytes is the on-wire header per segment: a 20-byte IP header
// plus a 20-byte TCP-lite header.
const HeaderBytes = 40

const (
	kindData = 1
	kindAck  = 2
)

// Config holds the stack's cost model and protocol parameters.
type Config struct {
	// SyscallSend / SyscallRecv are the fixed costs of entering the
	// kernel for a send or receive call.
	SyscallSend sim.Duration
	SyscallRecv sim.Duration
	// StackPerSegmentTx / Rx are the TCP/IP protocol processing costs
	// per segment on each side.
	StackPerSegmentTx sim.Duration
	StackPerSegmentRx sim.Duration
	// CopyPerByte is the user↔kernel copy cost, charged on each side.
	CopyPerByte sim.Duration
	// ChecksumPerByte is the software Internet-checksum cost, charged on
	// each side; zero for fabrics whose NICs checksum in hardware (ATM
	// AAL5).
	ChecksumPerByte sim.Duration
	// DriverTx is the per-segment driver and DMA-posting cost.
	DriverTx sim.Duration
	// InterruptCost is charged per arriving frame before protocol
	// processing.
	InterruptCost sim.Duration
	// WindowBytes bounds unacknowledged in-flight data per peer.
	WindowBytes int
	// AckEveryBytes makes the receiver emit a cumulative ACK once this
	// many new bytes arrived; a completed message always ACKs.
	AckEveryBytes int
	// PollCost is a non-blocking readiness check (FIONREAD-style),
	// charged by TryRecv instead of a full receive syscall.
	PollCost sim.Duration
	// Nagle enables sender-side small-segment coalescing: a sub-MSS
	// segment waits until no data is unacknowledged. The benchmark
	// profiles leave it off (TCP_NODELAY), as latency measurements of
	// the era did; turn it on together with DelayedAck to reproduce the
	// classic request-response stall.
	Nagle bool
	// DelayedAck, when positive, holds back completion ACKs for up to
	// this long in the hope of piggybacking (threshold ACKs still go
	// out immediately).
	DelayedAck sim.Duration
	// MaxMessage bounds one application message.
	MaxMessage int
	// RecvTimeout bounds blocking receives (0 = forever).
	RecvTimeout sim.Duration
}

// FastEthernetProfile returns the cost model for kernel TCP/IP on
// 100 Mb/s Ethernet (software checksums, two copies).
func FastEthernetProfile() Config {
	return Config{
		SyscallSend:       26 * sim.Microsecond,
		SyscallRecv:       24 * sim.Microsecond,
		StackPerSegmentTx: 21 * sim.Microsecond,
		StackPerSegmentRx: 21 * sim.Microsecond,
		CopyPerByte:       15 * sim.Nanosecond,
		ChecksumPerByte:   10 * sim.Nanosecond,
		DriverTx:          8 * sim.Microsecond,
		InterruptCost:     17 * sim.Microsecond,
		WindowBytes:       64 << 10,
		AckEveryBytes:     4096,
		PollCost:          3 * sim.Microsecond,
		MaxMessage:        1 << 20,
		RecvTimeout:       5 * sim.Second,
	}
}

// ATMProfile returns the cost model for IP-over-ATM: AAL5 CRC in
// hardware (no software checksum) but a heavier driver and interrupt
// path than Ethernet.
func ATMProfile() Config {
	c := FastEthernetProfile()
	c.ChecksumPerByte = 0
	c.DriverTx = 16 * sim.Microsecond
	c.InterruptCost = 26 * sim.Microsecond
	c.StackPerSegmentRx = 24 * sim.Microsecond
	return c
}

// MyrinetProfile returns the cost model for kernel TCP/IP over the
// Myrinet driver.
func MyrinetProfile() Config {
	c := FastEthernetProfile()
	c.DriverTx = 12 * sim.Microsecond
	c.InterruptCost = 15 * sim.Microsecond
	return c
}

// Errors returned by sockets.
var (
	ErrTimeout   = errors.New("tcpip: operation timed out")
	ErrTooLarge  = errors.New("tcpip: message exceeds MaxMessage")
	ErrTruncated = errors.New("tcpip: receive buffer smaller than message")
	ErrBadRank   = errors.New("tcpip: bad peer rank")
)

// header is the TCP-lite segment header.
type header struct {
	kind  byte
	msgID uint32
	off   uint32
	total uint32
	ack   uint32 // cumulative payload bytes acknowledged (kindAck)
}

// encodeHeader writes the segment h carrying payload into buf, grown
// when it is too short, and returns the frame.
func encodeHeader(buf []byte, h header, payload []byte) []byte {
	n := HeaderBytes + len(payload)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	f := buf[:n]
	clear(f[:HeaderBytes])
	f[0] = h.kind
	binary.LittleEndian.PutUint32(f[4:], h.msgID)
	binary.LittleEndian.PutUint32(f[8:], h.off)
	binary.LittleEndian.PutUint32(f[12:], h.total)
	binary.LittleEndian.PutUint32(f[16:], h.ack)
	copy(f[HeaderBytes:], payload)
	return f
}

func decodeHeader(f []byte) (header, []byte, error) {
	if len(f) < HeaderBytes {
		return header{}, nil, fmt.Errorf("tcpip: %d-byte frame shorter than header", len(f))
	}
	h := header{
		kind:  f[0],
		msgID: binary.LittleEndian.Uint32(f[4:]),
		off:   binary.LittleEndian.Uint32(f[8:]),
		total: binary.LittleEndian.Uint32(f[12:]),
		ack:   binary.LittleEndian.Uint32(f[16:]),
	}
	return h, f[HeaderBytes:], nil
}

// Stats counts socket activity.
type Stats struct {
	MsgsSent     int64
	MsgsRecv     int64
	SegmentsSent int64
	SegmentsRecv int64
	AcksSent     int64
	AcksRecv     int64
	BytesSent    int64
	BytesRecv    int64
}

var _ xport.Endpoint = (*Stack)(nil)
