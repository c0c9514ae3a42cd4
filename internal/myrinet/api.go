package myrinet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/xport"
)

// APIConfig holds the host-side costs of the vendor user-level API.
// MyriAPI of the era still crossed the kernel for some operations and
// staged data through NIC SRAM, so its small-message latency is tens of
// microseconds even though the wire is fast — exactly the regime in
// which Figure 2 shows SCRAMNet winning below ≈500 bytes.
type APIConfig struct {
	// SendOverhead is the fixed host cost of posting one send.
	SendOverhead sim.Duration
	// RecvOverhead is the fixed host cost of completing one receive.
	RecvOverhead sim.Duration
	// CopyPerByte is the host↔NIC-SRAM staging cost per byte, charged
	// on each side.
	CopyPerByte sim.Duration
	// PollCost is one receive-poll of the NIC status across the bus.
	PollCost sim.Duration
	// RecvTimeout bounds blocking receives (0 = forever).
	RecvTimeout sim.Duration
}

// DefaultAPIConfig returns costs calibrated to an ≈85 µs one-way
// short-message latency (DESIGN.md §5).
func DefaultAPIConfig() APIConfig {
	return APIConfig{
		SendOverhead: 38 * sim.Microsecond,
		RecvOverhead: 38 * sim.Microsecond,
		CopyPerByte:  10 * sim.Nanosecond,
		PollCost:     900 * sim.Nanosecond,
		RecvTimeout:  5 * sim.Second,
	}
}

// ErrTimeout is returned when a blocking API receive exceeds the
// configured timeout.
var ErrTimeout = errors.New("myrinet: receive timed out")

// ErrBadRank is returned at once, before any cost is charged, when a
// send names a destination or a receive a source that is outside the
// world or the caller itself.
var ErrBadRank = errors.New("myrinet: bad peer rank")

// fragHdr is the per-packet framing the API library prepends so that
// messages longer than one network packet reassemble at the receiver:
// message id, fragment offset, total length (4 bytes each, little
// endian).
const fragHdr = 12

// API is the per-node native interface; it implements xport.Endpoint.
// It talks to the SAN through the xport.Fabric interface so that fault
// injection layers can interpose transparently.
type API struct {
	net    xport.Fabric
	cfg    APIConfig
	rank   int
	nextID []uint32
	in     *xport.Inbox
	// frame is the one buffer Send writes each fragment into; the
	// fabric copies it in Transmit (xport.Fabric).
	frame []byte
	// pollers are Sweep's pollers over the API's probe step.
	pollers *xport.Pollers
}

// OpenAPI attaches the native API on node rank. The node must not also
// run an IP stack on the same NIC in this model.
func OpenAPI(net xport.Fabric, rank int, cfg APIConfig) *API {
	a := &API{
		net:    net,
		cfg:    cfg,
		rank:   rank,
		nextID: make([]uint32, net.Nodes()),
		in:     xport.NewInbox(net.Nodes()),
		frame:  make([]byte, net.MTU()),
	}
	a.pollers = xport.NewPollers(rank, net.Nodes(), nil, a)
	net.SetHandler(rank, func(src int, frame []byte) {
		le := binary.LittleEndian
		a.in.Add(src, le.Uint32(frame[0:]), int(le.Uint32(frame[4:])), int(le.Uint32(frame[8:])), frame[fragHdr:])
	})
	return a
}

// Rank returns this endpoint's node number.
func (a *API) Rank() int { return a.rank }

// Procs returns the node count.
func (a *API) Procs() int { return a.net.Nodes() }

// MaxMessage returns the largest message the API library accepts;
// longer messages are fragmented across packets transparently.
func (a *API) MaxMessage() int { return 1 << 20 }

// NativeMcast reports false: Myrinet multicast is sender-looped.
func (a *API) NativeMcast() bool { return false }

// Send stages data into NIC SRAM and injects it, fragmenting at the
// packet limit.
func (a *API) Send(p *sim.Proc, dst int, data []byte) error {
	if !a.peer(dst) {
		return ErrBadRank
	}
	if len(data) > a.MaxMessage() {
		return fmt.Errorf("myrinet: %d bytes exceeds message limit %d", len(data), a.MaxMessage())
	}
	p.Delay(a.cfg.SendOverhead + sim.Duration(len(data))*a.cfg.CopyPerByte)
	id := a.nextID[dst]
	a.nextID[dst]++
	maxPayload := a.net.MTU() - fragHdr
	off := 0
	for {
		m := len(data) - off
		if m > maxPayload {
			m = maxPayload
		}
		frame := a.frame[:fragHdr+m]
		le := binary.LittleEndian
		le.PutUint32(frame[0:], id)
		le.PutUint32(frame[4:], uint32(off))
		le.PutUint32(frame[8:], uint32(len(data)))
		copy(frame[fragHdr:], data[off:off+m])
		a.net.Transmit(a.rank, dst, frame)
		off += m
		if off >= len(data) {
			return nil
		}
	}
}

// Mcast loops Send over the destinations (no hardware replication).
func (a *API) Mcast(p *sim.Proc, dsts []int, data []byte) error {
	if !xport.ValidMcast(a.rank, a.Procs(), dsts) {
		return ErrBadRank
	}
	return xport.LoopMcast(p, dsts, data, a.Send)
}

// peer reports whether r names another process of the world.
func (a *API) peer(r int) bool { return r != a.rank && r >= 0 && r < a.Procs() }

// complete copies message m, just popped from the inbox, into buf and
// hands m back to the inbox.
func (a *API) complete(p *sim.Proc, m []byte, buf []byte) (int, error) {
	defer a.in.Release(m)
	if len(m) > len(buf) {
		return 0, fmt.Errorf("myrinet: %d-byte message into %d-byte buffer", len(m), len(buf))
	}
	p.Delay(a.cfg.RecvOverhead + sim.Duration(len(m))*a.cfg.CopyPerByte)
	copy(buf, m)
	return len(m), nil
}

// Recv blocks (polling the NIC) for the next message from src.
func (a *API) Recv(p *sim.Proc, src int, buf []byte) (int, error) {
	if !a.peer(src) {
		return 0, ErrBadRank
	}
	_, n, err := a.recv(p, src, buf)
	return n, err
}

// TryRecv polls once for a message from src.
func (a *API) TryRecv(p *sim.Proc, src int, buf []byte) (int, bool, error) {
	m, ok, err := a.poll(p, src)
	if !ok {
		return 0, false, err
	}
	n, err := a.complete(p, m, buf)
	return n, err == nil, err
}

// TryTake is TryRecv that hands over the inbox's own message buffer
// (xport.Taker), at TryRecv's charge for the copy.
func (a *API) TryTake(p *sim.Proc, src int, bufs *xport.Buffers) ([]byte, bool, error) {
	m, ok, err := a.poll(p, src)
	if !ok {
		return nil, false, err
	}
	return a.take(p, m, bufs), true, nil
}

// take charges the completion of message m, just popped from the inbox,
// and hands m over. The inbox takes one of bufs' buffers in exchange,
// none when bufs is empty, so the message is copied once on the host and
// one pool warms up instead of two.
func (a *API) take(p *sim.Proc, m []byte, bufs *xport.Buffers) []byte {
	p.Delay(a.cfg.RecvOverhead + sim.Duration(len(m))*a.cfg.CopyPerByte)
	if spare := bufs.Get(0); cap(spare) > 0 {
		a.in.Release(spare)
	}
	return m
}

// probe is poll as an xport.Probe step: issue is a PollCost timer, and
// land sees a completed message from the sender in the inbox without
// popping it.
type probe struct {
	a      *API
	land   func(seen bool)
	landFn func() // landed, bound once
	src    int
}

// Probe returns a probe step over TryTake (xport.Prober).
func (a *API) Probe(land func(seen bool)) xport.Probe {
	pr := &probe{a: a, land: land}
	pr.landFn = pr.landed
	return pr
}

// Issue charges one receive-poll of the NIC as a kernel event, as poll's
// Delay does (xport.Probe).
func (pr *probe) Issue(p *sim.Proc, src int) {
	pr.src = src
	if d := pr.a.cfg.PollCost; d > 0 {
		p.Kernel().AfterKind(d, sim.KindProc, pr.landFn)
		return
	}
	pr.landed()
}

// landed is the poll's land: it sees a message from the sender.
func (pr *probe) landed() { pr.land(pr.a.in.Ready(pr.src)) }

// Take pops the message the probe saw and takes it as TryTake does
// (xport.Probe).
func (pr *probe) Take(p *sim.Proc, src int, bufs *xport.Buffers) ([]byte, bool, error) {
	m, ok := pr.a.in.Pop(src)
	if !ok {
		return nil, false, nil
	}
	return pr.a.take(p, m, bufs), true, nil
}

// Sweep is xport.LoopSweep over TryRecv (xport.Sweeper): a poller runs
// its idle polls, so the process runs only for a poll that finds a
// message.
func (a *API) Sweep(p *sim.Proc, from int, buf []byte, stop func() bool) (src, n int, err error) {
	w := a.pollers.Get()
	defer a.pollers.Put(w)
	w.Start(p, 0, a.Procs(), from, stop, -1)
	if src, _ = w.Wait(); src < 0 {
		return -1, 0, nil
	}
	m, _ := a.in.Pop(src)
	n, err = a.complete(p, m, buf)
	return src, n, err
}

// poll charges one receive-poll of the NIC and pops the oldest message
// from src that has completed by then, if any.
func (a *API) poll(p *sim.Proc, src int) ([]byte, bool, error) {
	if !a.peer(src) {
		return nil, false, ErrBadRank
	}
	p.Delay(a.cfg.PollCost)
	m, ok := a.in.Pop(src)
	return m, ok, nil
}

// RecvAny blocks for the next message from any source, round-robin.
func (a *API) RecvAny(p *sim.Proc, buf []byte) (src, n int, err error) {
	return a.recv(p, -1, buf)
}

// recv is the blocking receive behind Recv and RecvAny: it polls the
// NIC for the next message from src, or from any source when src < 0.
// It is not a sweep over the probe step: it pops before it charges
// PollCost, where a probe charges first, and RecvAny takes PopAny's own
// round-robin rather than a sweep's rank order, so neither charges what
// a sweep would.
func (a *API) recv(p *sim.Proc, src int, buf []byte) (int, int, error) {
	deadline := sim.Time(-1)
	if a.cfg.RecvTimeout > 0 {
		deadline = p.Now().Add(a.cfg.RecvTimeout)
	}
	for {
		from, m, ok := src, []byte(nil), false
		if src < 0 {
			from, m, ok = a.in.PopAny()
		} else {
			m, ok = a.in.Pop(src)
		}
		if ok {
			n, err := a.complete(p, m, buf)
			return from, n, err
		}
		p.Delay(a.cfg.PollCost)
		if deadline >= 0 && p.Now() > deadline {
			return 0, 0, ErrTimeout
		}
	}
}

var (
	_ xport.Endpoint = (*API)(nil)
	_ xport.Taker    = (*API)(nil)
	_ xport.Prober   = (*API)(nil)
	_ xport.Sweeper  = (*API)(nil)
)
