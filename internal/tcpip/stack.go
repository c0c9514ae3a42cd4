package tcpip

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/xport"
)

// Stack is one node's TCP-lite instance plus its message socket; it
// implements xport.Endpoint.
type Stack struct {
	k    *sim.Kernel
	fab  xport.Fabric
	cfg  Config
	node int

	rxFrames *sim.Queue[frameIn]
	peers    []*peer
	in       *xport.Inbox
	rxWake   *sim.Cond
	stats    Stats
	// rxBufs holds the copies of arrived frames: the handler copies each
	// frame into one (the fabric's slice is valid only during the
	// handler) and kernelLoop hands it back once it has processed the
	// frame. txFrame is the buffer every outgoing segment is encoded
	// into; the fabric copies it in Transmit.
	rxBufs  xport.Buffers
	txFrame []byte
}

type frameIn struct {
	src   int
	frame []byte
}

// peer is per-remote-node connection state.
type peer struct {
	// Transmit side.
	nextMsgID uint32
	sentBytes uint32 // cumulative payload bytes sent
	ackdBytes uint32 // cumulative payload bytes acknowledged by the peer
	txWake    *sim.Cond

	// Receive side (reassembly is the Stack's Inbox).
	rcvdBytes   uint32 // cumulative payload bytes received
	lastAckSent uint32
	ackTimer    *sim.Timer
}

// NewStack attaches a TCP-lite stack to node on fab and starts its
// kernel daemon.
func NewStack(k *sim.Kernel, fab xport.Fabric, node int, cfg Config) *Stack {
	s := &Stack{
		k:        k,
		fab:      fab,
		cfg:      cfg,
		node:     node,
		rxFrames: sim.NewQueue[frameIn](k),
		in:       xport.NewInbox(fab.Nodes()),
		rxWake:   sim.NewCond(k),
	}
	for i := 0; i < fab.Nodes(); i++ {
		s.peers = append(s.peers, &peer{txWake: sim.NewCond(k)})
	}
	fab.SetHandler(node, func(src int, frame []byte) {
		buf := s.rxBufs.Get(len(frame))
		copy(buf, frame)
		s.rxFrames.Push(frameIn{src, buf})
	})
	k.SpawnDaemon(fmt.Sprintf("tcpip-%d", node), s.kernelLoop)
	return s
}

// kernelLoop is the node's softirq context: it takes interrupts, runs
// per-segment protocol processing, reassembles messages, and emits
// cumulative ACKs.
func (s *Stack) kernelLoop(p *sim.Proc) {
	for {
		in := s.rxFrames.Pop(p)
		p.Delay(s.cfg.InterruptCost)
		s.handle(p, in)
		s.rxBufs.Put(in.frame)
	}
}

// handle runs the protocol processing of one arrived frame.
func (s *Stack) handle(p *sim.Proc, in frameIn) {
	h, payload, err := decodeHeader(in.frame)
	if err != nil {
		return // malformed frame: drop
	}
	pr := s.peers[in.src]
	switch h.kind {
	case kindAck:
		s.stats.AcksRecv++
		p.Delay(s.cfg.StackPerSegmentRx / 2) // ACK processing is cheaper
		if int32(h.ack-pr.ackdBytes) > 0 {
			pr.ackdBytes = h.ack
			pr.txWake.Broadcast()
		}
	case kindData:
		s.stats.SegmentsRecv++
		p.Delay(s.cfg.StackPerSegmentRx + sim.Duration(len(payload))*s.cfg.ChecksumPerByte)
		pr.rcvdBytes += uint32(len(payload))
		if s.in.Add(in.src, h.msgID, int(h.off), int(h.total), payload) {
			s.rxWake.Broadcast()
		}
		// Cumulative ACK policy. Threshold crossings ACK at once
		// (they clock the window open). Beyond that, every byte is
		// eventually acknowledged: immediately when DelayedAck is
		// zero, else within the delayed-ACK timeout — TCP's
		// guarantee that a Nagle'd sender can never starve.
		overThreshold := pr.rcvdBytes-pr.lastAckSent >= uint32(s.cfg.AckEveryBytes)
		switch {
		case overThreshold:
			s.sendAck(in.src, pr)
		case pr.rcvdBytes == pr.lastAckSent:
			// Nothing outstanding (duplicate application of an
			// already-acked range cannot happen on a FIFO fabric).
		case s.cfg.DelayedAck <= 0:
			s.sendAck(in.src, pr)
		case pr.ackTimer == nil:
			src := in.src
			pr.ackTimer = s.k.Timer(s.cfg.DelayedAck, sim.KindFabric, func() {
				pr.ackTimer = nil
				s.sendAck(src, pr)
			})
		}
	}
}

// sendAck emits a cumulative ACK to peer src, canceling any pending
// delayed-ACK timer.
func (s *Stack) sendAck(src int, pr *peer) {
	if pr.ackTimer != nil {
		pr.ackTimer.Stop()
		pr.ackTimer = nil
	}
	pr.lastAckSent = pr.rcvdBytes
	s.stats.AcksSent++
	s.txFrame = encodeHeader(s.txFrame, header{kind: kindAck, ack: pr.rcvdBytes}, nil)
	s.fab.Transmit(s.node, src, s.txFrame)
}

// Rank returns this stack's node number.
func (s *Stack) Rank() int { return s.node }

// Procs returns the node count.
func (s *Stack) Procs() int { return s.fab.Nodes() }

// MaxMessage returns the largest application message.
func (s *Stack) MaxMessage() int { return s.cfg.MaxMessage }

// NativeMcast reports false: IP-level multicast is not modeled; MPI over
// TCP loops over point-to-point sends, as MPICH does.
func (s *Stack) NativeMcast() bool { return false }

// Stats returns a copy of the socket counters.
func (s *Stack) Stats() Stats { return s.stats }

// mss returns the payload bytes per segment.
func (s *Stack) mss() int { return s.fab.MTU() - HeaderBytes }

// Send transmits data to dst, segmenting at the fabric MTU and blocking
// (in virtual time) on the flow-control window.
func (s *Stack) Send(p *sim.Proc, dst int, data []byte) error {
	if dst == s.node || dst < 0 || dst >= s.Procs() {
		return ErrBadRank
	}
	if len(data) > s.cfg.MaxMessage {
		return ErrTooLarge
	}
	pr := s.peers[dst]
	p.Delay(s.cfg.SyscallSend)
	msgID := pr.nextMsgID
	pr.nextMsgID++
	total := len(data)
	off := 0
	for {
		seg := total - off
		if seg > s.mss() {
			seg = s.mss()
		}
		// Window: block until in-flight bytes fit.
		for pr.sentBytes-pr.ackdBytes+uint32(seg) > uint32(s.cfg.WindowBytes) {
			pr.txWake.Wait(p)
		}
		// Nagle: a small segment may not leave while data is in flight.
		if s.cfg.Nagle && seg < s.mss() {
			for pr.sentBytes != pr.ackdBytes {
				pr.txWake.Wait(p)
			}
		}
		p.Delay(s.cfg.StackPerSegmentTx +
			sim.Duration(seg)*(s.cfg.CopyPerByte+s.cfg.ChecksumPerByte) +
			s.cfg.DriverTx)
		h := header{kind: kindData, msgID: msgID, off: uint32(off), total: uint32(total)}
		s.txFrame = encodeHeader(s.txFrame, h, data[off:off+seg])
		s.fab.Transmit(s.node, dst, s.txFrame)
		pr.sentBytes += uint32(seg)
		s.stats.SegmentsSent++
		off += seg
		if off >= total {
			break
		}
	}
	s.stats.MsgsSent++
	s.stats.BytesSent += int64(total)
	return nil
}

// Mcast loops over Send: no replication below the socket layer.
func (s *Stack) Mcast(p *sim.Proc, dsts []int, data []byte) error {
	if !xport.ValidMcast(s.node, s.Procs(), dsts) {
		return ErrBadRank
	}
	return xport.LoopMcast(p, dsts, data, s.Send)
}

// deliver copies message m, just popped from the inbox, into buf and
// hands m back to the inbox.
func (s *Stack) deliver(p *sim.Proc, m []byte, buf []byte) (int, error) {
	defer s.in.Release(m)
	if len(m) > len(buf) {
		return 0, ErrTruncated
	}
	p.Delay(sim.Duration(len(m)) * s.cfg.CopyPerByte)
	copy(buf, m)
	s.stats.MsgsRecv++
	s.stats.BytesRecv += int64(len(m))
	return len(m), nil
}

// Recv blocks for the next message from src.
func (s *Stack) Recv(p *sim.Proc, src int, buf []byte) (int, error) {
	if src == s.node || src < 0 || src >= s.Procs() {
		return 0, ErrBadRank
	}
	_, n, err := s.recv(p, src, buf)
	return n, err
}

// TryRecv checks once, without blocking, for a message from src. It
// charges only a readiness-poll cost; the copy-out still costs a full
// delivery when a message is present.
func (s *Stack) TryRecv(p *sim.Proc, src int, buf []byte) (int, bool, error) {
	if src == s.node || src < 0 || src >= s.Procs() {
		return 0, false, ErrBadRank
	}
	p.Delay(s.cfg.PollCost)
	if m, ok := s.in.Pop(src); ok {
		n, err := s.deliver(p, m, buf)
		return n, err == nil, err
	}
	return 0, false, nil
}

// RecvAny blocks for the next message from any source, round-robin.
func (s *Stack) RecvAny(p *sim.Proc, buf []byte) (src, n int, err error) {
	return s.recv(p, -1, buf)
}

// recv is the blocking receive behind Recv and RecvAny: one socket
// call that waits for the next message from src, or from any source
// when src < 0.
func (s *Stack) recv(p *sim.Proc, src int, buf []byte) (int, int, error) {
	p.Delay(s.cfg.SyscallRecv)
	deadline := sim.Time(-1)
	if s.cfg.RecvTimeout > 0 {
		deadline = p.Now().Add(s.cfg.RecvTimeout)
	}
	for {
		from, m, ok := src, []byte(nil), false
		if src < 0 {
			from, m, ok = s.in.PopAny()
		} else {
			m, ok = s.in.Pop(src)
		}
		if ok {
			n, err := s.deliver(p, m, buf)
			return from, n, err
		}
		if deadline >= 0 {
			if p.Now() >= deadline || !s.rxWake.WaitTimeout(p, deadline.Sub(p.Now())) {
				return 0, 0, ErrTimeout
			}
		} else {
			s.rxWake.Wait(p)
		}
	}
}
