package mpi

import (
	"bytes"
	"fmt"

	"repro/internal/liveness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xport"
)

// Engine is one process's ADI instance: matching queues, the progress
// loop, and the eager/rendezvous protocols over the channel interface.
type Engine struct {
	ep  xport.Endpoint
	cfg Config

	nextReq   uint32
	free      []*Request // recycled requests (newRequest, waitFree)
	posted    []*Request
	unexpect  []*inMsg
	pendSends map[uint32]*Request
	pendRecvs map[uint32]*Request
	// collQ[src] holds multicast fast-path messages that surfaced in
	// the general progress loop before the collective call consumed
	// them (a rank running ahead into its next collective).
	collQ [][][]byte

	// live is the transport's membership view when it runs a failure
	// detector (liveness.Provider); nil otherwise. Blocking paths
	// consult it so a dead peer produces a DeadPeerError within the
	// detector's confirmation window instead of a hang or an
	// ErrTimeout-after-5s.
	live liveness.View

	// partView is the transport's declared-partition view when it runs
	// the ring-cut partition machinery (liveness.PartitionView); nil
	// otherwise. A declared partition outranks per-peer Dead verdicts:
	// far-side peers are unreachable, not dead, so blocking paths
	// surface a PartitionError instead of DeadPeerError and the
	// dead-peer reclaim paths leave their state alone until the heal.
	partView liveness.PartitionView

	// wnd is the transport's receiver-posted-window extension, set only
	// when Config.RndvZeroCopy is on AND the endpoint implements
	// xport.Windowed (the BillBoard Protocol on SCRAMNet). nil keeps
	// every rendezvous on the legacy sequential path.
	wnd xport.Windowed

	// stream is the transport's in-network collective extension, set
	// when the endpoint implements xport.StreamReducer with a non-zero
	// vector capacity (the BillBoard Protocol with Config.Stream). nil
	// keeps Allreduce on the software tree.
	stream xport.StreamReducer

	// zombies holds the windows of abandoned receives whose borrower
	// was still alive at abandon time, keyed by the receive request id.
	// Releasing such a window immediately would hand single-writer
	// ownership of the words to a new owner while the sender may be
	// mid-writeWindowed; instead the reservation is kept until the
	// sender's late kRDone/kRRej proves the transfer is over
	// (reapZombie) or the failure detector confirms the sender dead
	// (sweepZombies).
	zombies map[uint32]zombieWin

	// sweep is the transport's xport.Sweeper, or xport.LoopSweep over
	// its TryRecv when it has none: progress's one way to poll the peers.
	sweep func(p *sim.Proc, from int, buf []byte, stop func() bool) (src, n int, err error)
	// freeStops are the waitStops no wait holds (wait).
	freeStops []*waitStop

	scratch []byte
	// envBufs holds the buffers control envelopes are encoded into: a
	// free list, not one buffer, since Send may block in virtual time
	// while it still reads data (flow control, PIO charges), and
	// another process of this engine can then send its own envelope.
	envBufs xport.Buffers
	stats   EngineStats
	im      engInstruments
}

// engInstruments are the engine's gauges, keyed by its world rank
// (nil = disabled no-ops). Gauges describe instantaneous state, so they
// have no EngineStats twin; each Max() is a high-water mark.
type engInstruments struct {
	unexpDepth    *metrics.Gauge // mpi.unexpected_depth
	pipelineDepth *metrics.Gauge // mpi.pipeline_depth: the windowed sender's in-flight chunks
}

// setMetrics binds the engine's EngineStats to m under its world rank
// and installs its gauges (nil uninstalls the gauges).
func (e *Engine) setMetrics(m *metrics.Registry) {
	rank := e.ep.Rank()
	m.Bind("mpi.eager_sent", rank, &e.stats.EagerSent)
	m.Bind("mpi.rndv_sent", rank, &e.stats.RndvSent)
	m.Bind("mpi.received", rank, &e.stats.Received)
	m.Bind("mpi.unexpected_msgs", rank, &e.stats.UnexpectedMsgs)
	m.Bind("mpi.chunks_sent", rank, &e.stats.ChunksSent)
	m.Bind("mpi.rndv_zero_copy", rank, &e.stats.RndvZeroCopy)
	m.Bind("mpi.window_stalls", rank, &e.stats.WindowStalls)
	m.Bind("mpi.stream_allreduces", rank, &e.stats.StreamAllreduces)
	m.Bind("mpi.stream_fallbacks", rank, &e.stats.StreamFallbacks)
	m.Bind("mpi.nic_barriers", rank, &e.stats.NICBarriers)
	m.Bind("mpi.coll_replans", rank, &e.stats.CollReplans)
	m.Bind("mpi.partition_errors", rank, &e.stats.PartitionErrors)
	e.im = engInstruments{
		unexpDepth:    m.Gauge("mpi.unexpected_depth", rank),
		pipelineDepth: m.Gauge("mpi.pipeline_depth", rank),
	}
}

// EngineStats counts protocol activity. setMetrics binds each field to
// the mpi.* counter named beside it, so the two are one count.
type EngineStats struct {
	EagerSent      int64
	RndvSent       int64
	Received       int64
	UnexpectedMsgs int64
	ChunksSent     int64
	// RndvZeroCopy counts rendezvous transfers that went through a
	// receiver-posted window; WindowStalls counts the times the
	// windowed sender's bounded pipeline actually waited for a chunk's
	// ring drain before writing the next one (the mpi.rndv_zero_copy /
	// mpi.window_stalls counters).
	RndvZeroCopy int64
	WindowStalls int64
	// StreamAllreduces counts Allreduce rounds completed by the
	// in-network fast path; StreamFallbacks the rounds that degraded to
	// the software tree after the transport declined on suspicion, loss
	// or timeout (mpi.stream_allreduces / mpi.stream_fallbacks).
	StreamAllreduces int64
	StreamFallbacks  int64
	// NICBarriers counts barriers completed as a NIC-combined 1-lane
	// BAND round (mpi.nic_barriers); CollReplans counts the times a
	// collective root observed a changed non-empty suspect set and cut
	// a new release-tree plan epoch (mpi.coll_replans). See select.go.
	NICBarriers int64
	CollReplans int64
	// PartitionErrors counts operations abandoned with a PartitionError
	// because the transport declared a ring partition: a minority
	// fence, or a majority operation naming an unreachable peer
	// (mpi.partition_errors).
	PartitionErrors int64
}

// zombieWin is a posted window whose receive was abandoned while the
// borrowing sender was (as far as the detector knows) still alive.
type zombieWin struct {
	off, cap int
	peer     int // world rank of the borrowing sender
}

// inMsg is an arrived-but-unmatched message: a fully staged eager
// payload, or a rendezvous request awaiting a matching receive.
type inMsg struct {
	env  envelope
	src  int    // world rank
	data []byte // staged eager payload (nil for RTS)
}

// newEngine wraps transport endpoint ep.
func newEngine(ep xport.Endpoint, cfg Config) *Engine {
	if cfg.DirectADI {
		cfg.Costs.SendOverhead = cfg.Costs.SendOverhead * 6 / 10
		cfg.Costs.RecvOverhead = cfg.Costs.RecvOverhead * 6 / 10
		cfg.Costs.PerChunk /= 2
	}
	if cfg.RndvPipelineDepth <= 0 {
		cfg.RndvPipelineDepth = defaultRndvPipelineDepth
	}
	e := &Engine{
		ep:        ep,
		cfg:       cfg,
		pendSends: map[uint32]*Request{},
		pendRecvs: map[uint32]*Request{},
		zombies:   map[uint32]zombieWin{},
		collQ:     make([][][]byte, ep.Procs()),
		scratch:   make([]byte, maxInt(cfg.CollChunk+8, envWinBytes)),
	}
	if cfg.ChunkSize <= 0 {
		panic("mpi: ChunkSize must be positive")
	}
	if lp, ok := ep.(liveness.Provider); ok {
		e.live = lp.Liveness()
	}
	if pv, ok := ep.(liveness.PartitionView); ok {
		e.partView = pv
	}
	if cfg.RndvZeroCopy {
		if w, ok := ep.(xport.Windowed); ok {
			e.wnd = w
		}
	}
	if sr, ok := ep.(xport.StreamReducer); ok && sr.StreamMax() > 0 {
		e.stream = sr
	}
	if sw, ok := ep.(xport.Sweeper); ok {
		e.sweep = sw.Sweep
	} else {
		e.sweep = func(p *sim.Proc, from int, buf []byte, stop func() bool) (int, int, error) {
			return xport.LoopSweep(p, ep, from, buf, stop)
		}
	}
	return e
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// handleRaw dispatches one arrived transport message: an envelope or a
// multicast fast-path message (data chunks are always drained
// synchronously behind their envelope on the same FIFO stream, so they
// never surface here).
func (e *Engine) handleRaw(p *sim.Proc, src int, raw []byte) {
	if _, _, _, ok := parseColl(raw); ok {
		e.collQ[src] = append(e.collQ[src], append([]byte(nil), raw...))
		return
	}
	env, err := decodeEnv(raw)
	if err != nil {
		panic(err)
	}
	p.Delay(e.cfg.Costs.MatchCost)
	switch env.kind {
	case kEager:
		e.handleEager(p, src, env)
	case kRTS:
		e.handleRTS(p, src, env)
	case kCTS:
		e.handleCTS(p, src, env)
	case kRData:
		e.handleRData(p, src, env)
	case kCTSW:
		e.handleCTSW(p, src, env)
	case kRDone:
		e.handleRDone(p, src, env)
	case kRNak:
		e.handleRNak(p, src, env)
	case kRAck:
		e.handleRAck(p, src, env)
	case kRRej:
		e.handleRRej(p, src, env)
	case kRFall:
		e.handleRFall(p, src, env)
	}
}

func (e *Engine) handleEager(p *sim.Proc, src int, env envelope) {
	if req := e.matchPosted(env, src); req != nil {
		if int(env.total) > len(req.buf) {
			e.drainDiscard(p, src, int(env.total))
			e.complete(req, src, env, ErrTruncated)
			return
		}
		e.drainInto(p, src, req.buf[:env.total])
		e.complete(req, src, env, nil)
		return
	}
	// Unexpected: stage the payload, pay the extra copy when matched.
	stage := make([]byte, env.total)
	e.drainInto(p, src, stage)
	e.unexpect = append(e.unexpect, &inMsg{env: env, src: src, data: stage})
	e.stats.UnexpectedMsgs++
	e.im.unexpDepth.Set(int64(len(e.unexpect)))
}

func (e *Engine) handleRTS(p *sim.Proc, src int, env envelope) {
	if req := e.matchPosted(env, src); req != nil {
		e.sendCTS(p, src, env, req)
		return
	}
	e.unexpect = append(e.unexpect, &inMsg{env: env, src: src})
	e.stats.UnexpectedMsgs++
	e.im.unexpDepth.Set(int64(len(e.unexpect)))
}

// sendCTS registers req to receive the rendezvous data and tells the
// sender to go ahead. With the zero-copy path enabled it first tries
// to post a window covering the whole payload in this receiver's data
// partition; on success the reply is a kCTSW carrying the window
// descriptor, and the sender writes payload straight into the window.
// Truncation, a zero-length payload, a reservation failure, or a
// transport without windows all fall back to the plain kCTS and the
// sequential kRData protocol — the sender never has to guess: the CTS
// kind itself is the agreement.
func (e *Engine) sendCTS(p *sim.Proc, src int, rts envelope, req *Request) {
	if int(rts.total) > len(req.buf) {
		// Still must clear the protocol: accept and discard.
		req.err = ErrTruncated
	}
	id := e.nextReq
	e.nextReq++
	e.pendRecvs[id] = req
	req.id = id
	req.peerID = rts.reqID
	req.status = Status{Source: src, Tag: int(rts.tag), Len: int(rts.total)}
	if e.wnd != nil && req.err == nil && rts.total > 0 {
		if off, ok := e.wnd.ReserveWindow(p, src, int(rts.total)); ok {
			req.winOff, req.winCap, req.hasWin = off, int(rts.total), true
			req.winPeer = src
			cts := envelope{kind: kCTSW, tag: rts.tag, total: rts.total,
				reqID: rts.reqID, aux: id, winOff: uint32(off), winCap: rts.total}
			e.sendControl(p, src, cts)
			return
		}
	}
	cts := envelope{kind: kCTS, tag: rts.tag, total: rts.total, reqID: rts.reqID, aux: id}
	e.sendControl(p, src, cts)
}

func (e *Engine) handleCTS(p *sim.Proc, src int, env envelope) {
	req := e.pendSends[env.reqID]
	if req == nil {
		// The send was abandoned (timeout) before the go-ahead arrived;
		// a late CTS is benign. The receiver pins nothing on the
		// sequential path, so its own wait bounds the non-delivery.
		return
	}
	delete(e.pendSends, env.reqID)
	hdr := envelope{kind: kRData, tag: env.tag, total: uint32(len(req.data)), reqID: env.aux}
	e.sendControl(p, src, hdr)
	e.sendChunks(p, req.dst, req.data)
	req.done = true
}

// handleCTSW is the windowed sender's go-ahead: write the payload into
// the advertised window through the bounded pipeline, then announce
// completion with kRDone. The request stays in pendSends — it
// completes only when the receiver's kRAck confirms the payload
// checksum, because window writes carry none of the billboard's
// per-message recovery machinery and a lossy ring can corrupt the
// window silently.
func (e *Engine) handleCTSW(p *sim.Proc, src int, env envelope) {
	req := e.pendSends[env.reqID]
	if req == nil {
		// The send was abandoned (timeout) before the window grant
		// arrived. Unlike the sequential case the receiver is pinning a
		// window for us, so reject explicitly: nothing will ever be
		// written into it and the receiver may reclaim it at once.
		rej := envelope{kind: kRRej, tag: env.tag, total: env.total, reqID: env.aux}
		e.trySendControl(p, src, rej)
		return
	}
	if e.wnd == nil {
		panic(fmt.Sprintf("mpi: window CTS from %d on a transport without windows", src))
	}
	if int(env.winCap) < len(req.data) {
		panic(fmt.Sprintf("mpi: %d-byte window CTS for a %d-byte send", env.winCap, len(req.data)))
	}
	req.peerID = env.aux
	req.winOff, req.winCap = int(env.winOff), int(env.winCap)
	e.writeWindowed(p, src, req)
	e.stats.RndvZeroCopy++
	done := envelope{kind: kRDone, tag: env.tag, total: uint32(len(req.data)),
		reqID: req.peerID, aux: payloadCheck(req.data)}
	e.trySendControl(p, src, done)
}

// writeWindowed fills the receiver's posted window through a bounded
// pipeline: up to Config.RndvPipelineDepth chunks may be in flight on
// the ring before the sender waits for the oldest chunk's drain bound,
// overlapping each chunk's DMA setup and bus burst with its
// predecessors' ring circulation. Correctness never depends on the
// bound — the kRDone control message rides the same per-sender FIFO
// stream behind the window data — so the wait is pure pacing, and each
// actual wait is counted as a window stall.
func (e *Engine) writeWindowed(p *sim.Proc, dst int, req *Request) {
	data := req.data
	inflight := make([]sim.Time, 0, e.cfg.RndvPipelineDepth)
	for off := 0; off < len(data); {
		m := minInt(len(data)-off, e.cfg.ChunkSize)
		if len(inflight) >= e.cfg.RndvPipelineDepth {
			if t := inflight[0]; t > p.Now() {
				p.Delay(t.Sub(p.Now()))
				e.stats.WindowStalls++
			}
			inflight = inflight[1:]
			e.im.pipelineDepth.Set(int64(len(inflight)))
		}
		p.Delay(e.cfg.Costs.PerChunk)
		bound := e.wnd.WriteWindow(p, dst, req.winOff+off, data[off:off+m])
		inflight = append(inflight, bound)
		e.im.pipelineDepth.Set(int64(len(inflight)))
		e.stats.ChunksSent++
		off += m
	}
	// The fill is over: whatever is still circulating drains without the
	// sender tracking it, so the instantaneous depth is back to zero
	// (Max() keeps the high-water mark).
	e.im.pipelineDepth.Set(0)
}

// handleRDone is the receiver's end of a windowed transfer: read the
// window back (one local burst), verify the checksum, release the
// window and acknowledge. A mismatch means ring packets carrying
// window data were lost; the receiver keeps the window posted and
// sends kRNak, and the sender rewrites the whole window and announces
// again — at most maxWindowNaks times, after which the receiver gives
// the window up (kRFall) and the payload is resent sequentially.
func (e *Engine) handleRDone(p *sim.Proc, src int, env envelope) {
	req := e.pendRecvs[env.reqID]
	if req == nil {
		// The receive was abandoned (timeout) mid-transfer. The kRDone
		// proves the sender has finished writing, so the parked window
		// can finally be reclaimed; no ack — the payload was never
		// delivered to the application, and the sender's own wait
		// bounds its non-completion.
		e.reapZombie(env.reqID)
		return
	}
	if !req.hasWin || int(env.total) > req.winCap || int(env.total) > len(req.buf) {
		panic(fmt.Sprintf("mpi: RDONE total=%d does not fit request window (cap=%d posted=%v)", env.total, req.winCap, req.hasWin))
	}
	n := int(env.total)
	e.wnd.ReadWindow(p, req.winOff, req.buf[:n])
	if payloadCheck(req.buf[:n]) != env.aux {
		req.naks++
		if req.naks < maxWindowNaks {
			nak := envelope{kind: kRNak, tag: env.tag, total: env.total, reqID: req.peerID, aux: env.reqID}
			e.trySendControl(p, src, nak)
			return
		}
		// Persistent corruption: rewriting the unprotected window is
		// not converging, so fall back to the sequential kRData path,
		// which rides the billboard's own recovery machinery. The
		// kRDone in hand proves the sender is not mid-write, so the
		// release cannot race its stores; the request stays in
		// pendRecvs to match the kRData announcement.
		e.wnd.ReleaseWindow(req.winOff, req.winCap)
		req.hasWin = false
		fall := envelope{kind: kRFall, tag: env.tag, total: env.total, reqID: req.peerID, aux: env.reqID}
		e.trySendControl(p, src, fall)
		return
	}
	e.wnd.ReleaseWindow(req.winOff, req.winCap)
	req.hasWin = false
	delete(e.pendRecvs, env.reqID)
	// The payload is delivered even if the ack cannot reach a sender
	// that died after writing it — exactly-once holds locally.
	ack := envelope{kind: kRAck, tag: env.tag, total: env.total, reqID: req.peerID, aux: env.reqID}
	e.trySendControl(p, src, ack)
	req.done = true
	e.stats.Received++
}

// handleRNak rewrites the whole window and re-announces. The request
// may already be gone if the wait was abandoned (dead peer, timeout);
// then there is nothing to repair — the receiver's own abandonment
// reclaims the window.
func (e *Engine) handleRNak(p *sim.Proc, src int, env envelope) {
	req := e.pendSends[env.reqID]
	if req == nil {
		return
	}
	e.writeWindowed(p, src, req)
	done := envelope{kind: kRDone, tag: env.tag, total: uint32(len(req.data)),
		reqID: req.peerID, aux: payloadCheck(req.data)}
	e.trySendControl(p, src, done)
}

// handleRAck completes a windowed send: the receiver has verified the
// payload, so the data reference can be dropped.
func (e *Engine) handleRAck(p *sim.Proc, src int, env envelope) {
	req := e.pendSends[env.reqID]
	if req == nil {
		return
	}
	delete(e.pendSends, env.reqID)
	req.done = true
}

// handleRRej is the sender's refusal of a window grant: its send was
// abandoned before the kCTSW arrived, so the window will never be
// written and the receiver can take ownership back immediately. The
// receive request itself stays pending — its own wait bounds the
// non-delivery — but it no longer pins partition space.
func (e *Engine) handleRRej(p *sim.Proc, src int, env envelope) {
	req := e.pendRecvs[env.reqID]
	if req == nil {
		e.reapZombie(env.reqID)
		return
	}
	delete(e.pendRecvs, env.reqID)
	if req.hasWin && e.wnd != nil {
		e.wnd.ReleaseWindow(req.winOff, req.winCap)
		req.hasWin = false
	}
}

// handleRFall is the receiver's verdict that the window rewrite loop
// is not converging (maxWindowNaks consecutive checksum mismatches):
// it has released the window, and the sender must deliver the payload
// through the sequential kRData path instead, exactly as a plain kCTS
// would have. The request may already be gone if the wait was
// abandoned; then the transfer stays undelivered and both waits bound
// the failure.
func (e *Engine) handleRFall(p *sim.Proc, src int, env envelope) {
	req := e.pendSends[env.reqID]
	if req == nil {
		return
	}
	hdr := envelope{kind: kRData, tag: env.tag, total: uint32(len(req.data)), reqID: req.peerID}
	if !e.trySendControl(p, src, hdr) {
		// Receiver unreachable (fenced mid-protocol): leave the request
		// pending so the sender's wait surfaces the death or timeout.
		return
	}
	delete(e.pendSends, env.reqID)
	e.sendChunks(p, req.dst, req.data)
	req.done = true
}

func (e *Engine) handleRData(p *sim.Proc, src int, env envelope) {
	req := e.pendRecvs[env.reqID]
	if req == nil {
		// The receive was abandoned (timeout) after granting the CTS.
		// The payload chunks are already behind this announcement on
		// the same FIFO stream, so they must be drained to keep the
		// stream parseable — then discarded.
		e.drainDiscard(p, src, int(env.total))
		return
	}
	delete(e.pendRecvs, env.reqID)
	if req.err != nil { // truncation already flagged at CTS time
		e.drainDiscard(p, src, int(env.total))
	} else {
		e.drainInto(p, src, req.buf[:env.total])
	}
	req.done = true
	e.stats.Received++
}

// drainInto receives exactly len(buf) bytes of data chunks from src,
// directly into buf (the zero-copy path for matched receives).
func (e *Engine) drainInto(p *sim.Proc, src int, buf []byte) {
	for off := 0; off < len(buf); {
		m := len(buf) - off
		if m > e.cfg.ChunkSize {
			m = e.cfg.ChunkSize
		}
		p.Delay(e.cfg.Costs.PerChunk)
		n, err := e.ep.Recv(p, src, buf[off:off+m])
		if err != nil || n != m {
			panic(fmt.Sprintf("mpi: chunk drain from %d: n=%d want=%d err=%v", src, n, m, err))
		}
		off += m
	}
}

func (e *Engine) drainDiscard(p *sim.Proc, src int, total int) {
	tmp := make([]byte, minInt(total, e.cfg.ChunkSize))
	for off := 0; off < total; {
		m := minInt(total-off, e.cfg.ChunkSize)
		p.Delay(e.cfg.Costs.PerChunk)
		if _, err := e.ep.Recv(p, src, tmp[:m]); err != nil {
			panic(err)
		}
		off += m
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// sendControl transmits one envelope packet. A transport refusal is a
// protocol bug — except under a declared partition, where the fence can
// race an operation's own partition check; then the packet is dropped
// exactly as the severed fiber would have dropped it, and the caller's
// blocking wait surfaces the PartitionError.
func (e *Engine) sendControl(p *sim.Proc, dstWorld int, env envelope) {
	if err := e.sendEnv(p, dstWorld, env); err != nil {
		if part, ok := e.partition(); ok && (part.Minority || part.Unreachable(dstWorld)) {
			return
		}
		panic(fmt.Sprintf("mpi: control send to %d: %v", dstWorld, err))
	}
}

// trySendControl transmits one envelope packet, tolerating a transport
// refusal. The windowed rendezvous notices (kRDone, kRNak, kRAck) use
// it because either end can leave the membership mid-transfer: the
// caller just leaves its request pending and the blocked wait on each
// side surfaces the death within the detector's confirmation window —
// abandoning the request is what reclaims any posted window.
func (e *Engine) trySendControl(p *sim.Proc, dstWorld int, env envelope) bool {
	return e.sendEnv(p, dstWorld, env) == nil
}

// sendEnv encodes env into a buffer from envBufs and sends it. Send
// reads data only until it returns, so the buffer goes back at once.
func (e *Engine) sendEnv(p *sim.Proc, dstWorld int, env envelope) error {
	b := encodeEnv(e.envBufs.Get(envWinBytes)[:0], env)
	defer e.envBufs.Put(b)
	return e.ep.Send(p, dstWorld, b)
}

// sendChunks streams data to dstWorld in channel-size pieces.
func (e *Engine) sendChunks(p *sim.Proc, dstWorld int, data []byte) {
	for off := 0; off < len(data); {
		m := minInt(len(data)-off, e.cfg.ChunkSize)
		p.Delay(e.cfg.Costs.PerChunk)
		if err := e.ep.Send(p, dstWorld, data[off:off+m]); err != nil {
			panic(fmt.Sprintf("mpi: chunk send to %d: %v", dstWorld, err))
		}
		e.stats.ChunksSent++
		off += m
	}
}

// matches is the one source/tag matching rule: whether receive req
// accepts a message with envelope env from rank src.
func (req *Request) matches(env envelope, src int) bool {
	return (req.src == AnySource || req.src == src) &&
		(req.tag == AnyTag || req.tag == int(env.tag))
}

// matchPosted removes and returns the first posted receive matching env.
func (e *Engine) matchPosted(env envelope, src int) *Request {
	for i, req := range e.posted {
		if req.matches(env, src) {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			return req
		}
	}
	return nil
}

// matchUnexpected removes and returns the earliest unexpected message
// matching a newly posted receive.
func (e *Engine) matchUnexpected(req *Request) *inMsg {
	for i, m := range e.unexpect {
		if req.matches(m.env, m.src) {
			e.unexpect = append(e.unexpect[:i], e.unexpect[i+1:]...)
			return m
		}
	}
	return nil
}

func (e *Engine) complete(req *Request, src int, env envelope, err error) {
	req.status = Status{Source: src, Tag: int(env.tag), Len: int(env.total)}
	req.err = err
	req.done = true
	e.stats.Received++
}

// peerDead reports a confirmed-dead verdict about world. A verdict
// about a peer on the far side of a declared partition does not count:
// the peer is unreachable, not dead, so window/zombie reclaim must wait
// for the heal (fenced surfaces those peers as PartitionError).
func (e *Engine) peerDead(world int) bool {
	if e.live == nil || world < 0 || world == e.ep.Rank() || e.live.State(world) != liveness.Dead {
		return false
	}
	if part, ok := e.partition(); ok && part.Unreachable(world) {
		return false
	}
	return true
}

// deadIn returns the first of ranks [0, size) confirmed dead, or -1.
func (e *Engine) deadIn(size int) int {
	if e.live == nil {
		return -1
	}
	for r := 0; r < size; r++ {
		if e.peerDead(r) {
			return r
		}
	}
	return -1
}

// unreachableIn reports whether part cuts off any of ranks [0, size).
func unreachableIn(part liveness.PartitionInfo, size int) bool {
	for r := 0; r < size; r++ {
		if part.Unreachable(r) {
			return true
		}
	}
	return false
}

// partition returns the transport's declared ring partition, if any.
func (e *Engine) partition() (liveness.PartitionInfo, bool) {
	if e.partView == nil {
		return liveness.PartitionInfo{}, false
	}
	return e.partView.Partition()
}

// partitionErr counts and builds the error for an operation fenced by
// part. Callers decide whether part applies (minority side, or a
// majority operation naming an unreachable peer); only a process that
// is about to return the error calls it.
func (e *Engine) partitionErr(part liveness.PartitionInfo) error {
	e.stats.PartitionErrors++
	return &PartitionError{Minority: part.Minority, Peers: append([]int(nil), part.Peers...)}
}

// fenced decides whether req is fenced by a declared partition, and
// returns that partition: everything on the minority side, and any
// majority operation that depends on an unreachable peer (a send or
// specific receive naming one, or a group operation spanning one). It is
// false when no partition is declared or req only touches the quorum.
// It changes no state, so a stop predicate may call it.
func (e *Engine) fenced(req *Request) (liveness.PartitionInfo, bool) {
	part, ok := e.partition()
	if !ok || part.Minority {
		return part, ok
	}
	if req.isSend {
		return part, part.Unreachable(req.dst)
	}
	c := req.comm
	if c == nil {
		return part, false
	}
	// A specific-source receive is judged by its named peer alone when
	// the operation was planned around this partition: user
	// point-to-point always is (it names exactly one peer), and an
	// internal-tag tree receive is when the comm's plan generation
	// matches the partition (a majority quorum collective — its tree
	// deliberately spans only reachable members). An internal-tag
	// receive under a *stale* plan belongs to a collective that
	// straddled the declaration: its tree spans everyone, so it is
	// abandoned group-wide — otherwise a rank gathered behind a fenced
	// peer would sit out WaitTimeout instead of failing fast.
	if req.src != AnySource && (req.tag >= 0 || bytes.Equal(c.lastPlanMask, c.rankMask(part.Unreachable))) {
		return part, part.Unreachable(req.src)
	}
	return part, unreachableIn(part, c.Size())
}

// deadPeer returns the confirmed-dead peer that keeps req from
// completing, or -1. A send or a specific-source user receive depends on
// exactly one peer; an AnySource receive or an internal-tag (collective
// tree) operation is abandoned when any group member dies, because the
// collective as a whole can never complete — failing fast here is what
// turns a would-be distributed hang into an error on every survivor. It
// changes no state.
func (e *Engine) deadPeer(req *Request) int {
	if e.live == nil {
		return -1
	}
	if req.isSend {
		if e.peerDead(req.dst) {
			return req.dst
		}
		return -1
	}
	c := req.comm
	if c == nil {
		return -1
	}
	if req.src != AnySource && req.tag >= 0 {
		if e.peerDead(req.src) {
			return req.src
		}
		return -1
	}
	return e.deadIn(c.Size())
}

// checkDead returns the error that ends a wait on req which can no
// longer complete under the current membership view, or nil. A declared
// partition is checked first: an unreachable peer must surface as
// PartitionError, never as the terminal DeadPeerError.
func (e *Engine) checkDead(req *Request) error {
	if part, ok := e.fenced(req); ok {
		return e.partitionErr(part)
	}
	if r := e.deadPeer(req); r >= 0 {
		return &DeadPeerError{Rank: r}
	}
	return nil
}

// progress is the engine's one progress loop, behind wait and Test: it
// sweeps the peers (xport.LoopSweep, or the transport's Sweeper) and
// handles each message it finds, until stop ends a sweep at its wrap
// past the last peer. stop must change no state: a Sweeper may call it
// outside the process.
func (e *Engine) progress(p *sim.Proc, stop func() bool) {
	if len(e.zombies) > 0 {
		e.sweepZombies()
	}
	for from := 0; ; {
		src, n, err := e.sweep(p, from, e.scratch, stop)
		if err != nil {
			panic(fmt.Sprintf("mpi: transport error polling rank %d: %v", src, err))
		}
		if src < 0 {
			return
		}
		e.handleRaw(p, src, e.scratch[:n])
		from = src + 1
	}
}

// stopAtWrap ends a progress loop at its first wrap: one sweep, as Test
// makes.
func stopAtWrap() bool { return true }

// waitStop is the state of one wait's stop predicate. fn is its method
// stops, bound once when the engine first makes the waitStop, so a wait
// allocates nothing for its predicate; the engine keeps a free list of
// them, one per process waiting at once.
type waitStop struct {
	e        *Engine
	p        *sim.Proc
	req      *Request
	deadline sim.Time
	fn       func() bool
}

// stops reports whether the wait must look at its request between
// sweeps: it completed, zombie windows wait to be swept, it can no
// longer complete, or its deadline has passed.
func (w *waitStop) stops() bool {
	e := w.e
	if w.req.done || len(e.zombies) > 0 || (w.deadline >= 0 && w.p.Now() > w.deadline) {
		return true
	}
	_, fenced := e.fenced(w.req)
	return fenced || e.deadPeer(w.req) >= 0
}

// wait progresses until req completes or the wait timeout expires (a
// guard against protocol bugs spinning the simulation forever). With a
// liveness view, waiting on a confirmed-dead peer fails in bounded time
// instead; anything already delivered completes first (progress runs
// before the verdict check).
func (e *Engine) wait(p *sim.Proc, req *Request) (Status, error) {
	var w *waitStop
	if n := len(e.freeStops); n > 0 {
		w = e.freeStops[n-1]
		e.freeStops = e.freeStops[:n-1]
	} else {
		w = &waitStop{e: e}
		w.fn = w.stops
	}
	defer func() {
		w.p, w.req = nil, nil
		e.freeStops = append(e.freeStops, w)
	}()
	w.p, w.req, w.deadline = p, req, sim.Time(-1)
	if e.cfg.WaitTimeout > 0 {
		w.deadline = p.Now().Add(e.cfg.WaitTimeout)
	}
	for !req.done {
		e.progress(p, w.fn)
		if req.done {
			break
		}
		if err := e.checkDead(req); err != nil {
			e.abandon(req)
			return Status{}, err
		}
		if w.deadline >= 0 && p.Now() > w.deadline {
			e.abandon(req)
			return Status{}, ErrTimeout
		}
	}
	return req.status, req.err
}

// newRequest returns a request holding r, reusing one from the free
// list when there is one.
func (e *Engine) newRequest(r Request) *Request {
	var req *Request
	if n := len(e.free); n > 0 {
		req = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		req = new(Request)
	}
	*req = r
	return req
}

// waitFree is wait for a request that a blocking call made for itself:
// once the wait completes it, the request is in no protocol table
// (posted, pendSends, pendRecvs) and goes back on the free list. A
// request whose wait abandoned it (timeout, dead peer, partition) is
// never reused: a late control packet or a handler still draining
// into it must not find a new operation in its place.
func (e *Engine) waitFree(p *sim.Proc, req *Request) (Status, error) {
	st, err := e.wait(p, req)
	if req.done {
		*req = Request{}
		e.free = append(e.free, req)
	}
	return st, err
}

// abandon tears down a request whose wait ended without completion
// (dead peer or timeout): its protocol-table entries are dropped so a
// late control packet for it is ignored rather than mis-matched, and
// any window it holds is reclaimed — an aborted rendezvous must not
// pin receiver buffer space, mirroring the dead-peer reclaim in the
// billboard's collector. Reclaim is immediate only when the borrowing
// sender is confirmed dead (a fenced card's writes reach no live
// bank); with a live borrower possibly mid-writeWindowed, releasing
// now would re-lend the words under its stores, so the window is
// parked as a zombie until the sender's late kRDone/kRRej proves the
// transfer over, or the detector confirms the sender dead.
func (e *Engine) abandon(req *Request) {
	if req.hasWin && e.wnd != nil {
		if e.peerDead(req.winPeer) {
			e.wnd.ReleaseWindow(req.winOff, req.winCap)
		} else {
			e.zombies[req.id] = zombieWin{off: req.winOff, cap: req.winCap, peer: req.winPeer}
		}
		req.hasWin = false
	}
	if req.isSend {
		if e.pendSends[req.id] == req {
			delete(e.pendSends, req.id)
		}
		return
	}
	if e.pendRecvs[req.id] == req {
		delete(e.pendRecvs, req.id)
	}
	for i, r := range e.posted {
		if r == req {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			break
		}
	}
}

// reapZombie releases the zombie window parked for an abandoned
// receive, if any: a late kRDone (the borrower finished writing) or
// kRRej (it never will) makes the release race-free.
func (e *Engine) reapZombie(id uint32) {
	if z, ok := e.zombies[id]; ok {
		e.wnd.ReleaseWindow(z.off, z.cap)
		delete(e.zombies, id)
	}
}

// sweepZombies reclaims zombie windows whose borrower the failure
// detector has since confirmed dead: the fenced card's writes reach no
// live bank, so handing the words back cannot race anything.
func (e *Engine) sweepZombies() {
	for id, z := range e.zombies {
		if e.peerDead(z.peer) {
			e.wnd.ReleaseWindow(z.off, z.cap)
			delete(e.zombies, id)
		}
	}
}
