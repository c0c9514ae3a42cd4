// Package core implements the BillBoard Protocol (BBP), the paper's
// primary contribution: a user-level, zero-copy, lock-free message
// passing protocol for SCRAMNet replicated shared memory (§3).
//
// The SCRAMNet memory is divided equally among the participating
// processes. Each process's partition holds a control partition —
// MESSAGE toggle flags (set by senders), ACK toggle flags (set by
// receivers), and buffer descriptors (offset/length/sequence, written by
// the owner) — followed by a data partition of message buffers.
//
// A send "posts the message on a billboard": the sender allocates a
// buffer in its own data partition, writes the message and a descriptor,
// and toggles a MESSAGE flag bit in each receiver's control partition.
// Because every SCRAMNet word is written by exactly one process, no
// locks are ever needed, and because the data partition is visible to
// every node, multicast costs one extra flag-word write per extra
// receiver — a single-step multicast, unlike point-to-point binomial
// trees.
//
// Receivers poll their MESSAGE flag words, diff them against a shadow
// copy to find newly posted buffers, read the descriptor and the data
// straight into the user buffer, and toggle an ACK flag bit in the
// sender's control partition. Senders garbage-collect buffers whose ACK
// toggles from every addressed receiver match the MESSAGE toggles —
// which is attempted only when an allocation fails, as in the paper.
//
// The five-call API of [8] — bbp_init, bbp_Send, bbp_Recv, bbp_Mcast,
// bbp_MsgAvail — maps to New/Attach, Endpoint.Send, Endpoint.Recv,
// Endpoint.Mcast and Endpoint.MsgAvail; TryRecv, RecvAny and Bcast are
// convenience extensions, and interrupt-driven receive (the paper's §7
// "future work") is available behind Config.InterruptDriven.
package core

import (
	"errors"
	"fmt"

	"repro/internal/liveness"
	"repro/internal/metrics"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/trace"
)

// MaxProcs bounds the number of BBP processes at the SCRAMNet ring's
// own 256-node address limit. Flag words scale per-peer (MESSAGE/ACK
// flags are one 32-bit toggle word per peer with one bit per buffer
// slot — the 32 bound lives on Config.Buffers, not here), and the
// layout validation rejects any rank count whose per-process partition
// would fall under the 256-byte data floor for the configured bank
// size. Hierarchies that address more than 256 hosts are ROADMAP item
// 4.
const MaxProcs = 256

// descWords is the portion of a descriptor actually transferred:
// offset, length, sequence. The base protocol needs nothing more —
// its per-receiver MESSAGE flag words carry the addressing. The retry
// extension adds the destination mask and an integrity checksum over
// all of it: its receivers detect by scanning every descriptor of a
// sender (the flag word is just a post counter), so without the mask a
// scan could adopt a slot addressed to a different receiver whose
// sequence happens to fit this receiver's delivery window.
const (
	descWords      = 3
	descWordsRetry = 5
	descSize       = 20
)

// Costs are the software-path CPU costs charged by the protocol,
// separate from the bus and wire costs charged by the hardware models.
type Costs struct {
	// SendSetup covers argument checks, buffer allocation bookkeeping
	// and descriptor marshalling on the send side.
	SendSetup sim.Duration
	// RecvBookkeeping covers descriptor decode, pending-queue insertion
	// and shadow-flag update per received message.
	RecvBookkeeping sim.Duration
	// PollOverhead is the per-iteration loop cost of polling, on top of
	// the PIO flag read itself.
	PollOverhead sim.Duration
	// GCPass is the fixed software cost of one garbage-collection sweep,
	// on top of the ACK-word PIO reads.
	GCPass sim.Duration
	// AllocRetryDelay is how long a sender backs off when the data
	// partition is exhausted even after GC.
	AllocRetryDelay sim.Duration
}

// DefaultCosts returns the calibrated software costs (DESIGN.md §5).
func DefaultCosts() Costs {
	return Costs{
		SendSetup:       250 * sim.Nanosecond,
		RecvBookkeeping: 300 * sim.Nanosecond,
		PollOverhead:    100 * sim.Nanosecond,
		GCPass:          500 * sim.Nanosecond,
		AllocRetryDelay: 2 * sim.Microsecond,
	}
}

// Config parameterizes a BBP system.
type Config struct {
	// Buffers is the number of message buffer slots per process (1..32).
	Buffers int
	// Thresholds groups the PIO-vs-DMA protocol-switch knobs; its
	// Validate method is the one documented entry point for checking
	// them (New calls it).
	Thresholds Thresholds
	// BurstPoll selects the receive-side poll-aggregation strategy
	// (default BurstAuto: wide flag-region reads whenever the bus cost
	// model says they beat the per-word probes they replace).
	BurstPoll BurstMode
	// RecvTimeout bounds blocking receives and allocation stalls in
	// virtual time; 0 means wait forever. A finite default keeps a
	// protocol bug from spinning the simulation indefinitely.
	RecvTimeout sim.Duration
	// InterruptDriven makes senders set the SCRAMNet interrupt bit on
	// MESSAGE flag writes and receivers sleep on the interrupt instead
	// of polling (§7 future work; ablated in the benchmarks).
	InterruptDriven bool
	// Retry enables the bounded-retransmission extension for lossy
	// rings. The base protocol (and the paper's hardware) assumes the
	// ring never drops writes; the zero value keeps that behavior.
	Retry RetryConfig
	// Liveness enables heartbeat-based membership: every node publishes
	// a (beat, incarnation) pair in the single-writer heartbeat table
	// and runs a failure detector over its replica of it (DESIGN.md
	// §11). Off by default — the table and its periodic bus traffic
	// would shift the calibrated fault-free figures.
	Liveness liveness.Config
	// Stream enables the in-network streaming-allreduce extension: a
	// global stream region is carved out of the replicated memory and
	// every endpoint installs a spin.Reducer at its ring transit point,
	// so a reduction's vector is combined as it circulates instead of
	// being shuffled through a software tree (DESIGN.md §13). Requires a
	// flat ring (handlers do not cross hierarchy bridges).
	Stream StreamConfig
	// Costs are the software path costs.
	Costs Costs
}

// StreamConfig parameterizes the in-network streaming-allreduce
// extension (Config.Stream).
type StreamConfig struct {
	// Enabled turns the extension on. Off by default: the stream region
	// shrinks every data partition, which would shift the calibrated
	// figures.
	Enabled bool
}

// DefaultStreamMax is the stream-region vector capacity: the largest
// vector one streaming round can carry (a multiple of 4, since the ring
// combines 32-bit lanes).
const DefaultStreamMax = 256

// Thresholds are the message lengths at or above which data crosses the
// I/O bus by DMA instead of PIO, per direction. They differ because
// posted PIO writes are ~5x cheaper than PIO reads on the testbed's
// PCI, so DMA pays off far earlier on the receive side. Set them above
// MaxMessage for a PIO-only endpoint (the minimal MPICH channel device
// does this).
type Thresholds struct {
	SendDMA int
	RecvDMA int
	// Adaptive drives the receive threshold from live bus-cost
	// observations (the endpoint's own poll reads and payload drains)
	// instead of the RecvDMA constant, which remains the starting
	// point. On an uncontended default-cost bus it converges on the
	// measured 20 B crossover (E7); under bus contention the inflated
	// read cost pulls it down. The current value is published as the
	// bbp.recv_dma_threshold_bytes gauge (adaptive.go).
	Adaptive bool
}

// Validate rejects negative thresholds.
func (t Thresholds) Validate() error {
	if t.SendDMA < 0 || t.RecvDMA < 0 {
		return fmt.Errorf("bbp: negative DMA threshold (send %d, recv %d)", t.SendDMA, t.RecvDMA)
	}
	return nil
}

// BurstMode selects how receivers read MESSAGE flags while polling.
type BurstMode int

const (
	// BurstAuto (the default) aggregates a poll into one wide read of
	// the receiver's whole contiguous flag region whenever the bus cost
	// model says the burst is cheaper than the per-word probes it
	// replaces, and keeps the single 650 ns word probe otherwise (a
	// focused poll of one sender on a small base-protocol ring).
	BurstAuto BurstMode = iota
	// BurstOff forces the pre-aggregation per-word path everywhere.
	// Kept for A/B measurement (the E9 figure) and the equivalence
	// tests.
	BurstOff
	// BurstOn forces the wide read even where the cost model prefers
	// per-word probes.
	BurstOn
)

// RetryConfig parameterizes BBP's graceful-degradation extension: a
// per-endpoint daemon that retransmits posted-but-unacknowledged
// buffers with exponential backoff. Retransmission rewrites the data,
// the descriptor and the *same* MESSAGE toggle values, so a receiver
// that already saw the post observes no flag change — retries are
// idempotent and delivery stays exactly-once. The reserved fourth
// descriptor word carries a checksum over (offset, length, sequence,
// payload) so receivers can reject torn or stale descriptors and wait
// for the retransmission instead (PROTOCOL.md "Fault model").
type RetryConfig struct {
	// Enabled turns the extension on. Off by default: it adds a
	// descriptor word and background ACK polling, which would shift the
	// calibrated fault-free figures.
	Enabled bool
	// Timeout is how long a posted buffer may go unacknowledged before
	// its first retransmission; it doubles on every subsequent attempt.
	Timeout sim.Duration
	// MaxRetries bounds retransmissions per message. When exhausted the
	// buffer is forcibly reclaimed and Stats.RetryFailures incremented —
	// the receiver is presumed dead.
	MaxRetries int
}

// DefaultRetryConfig returns the retry tuning used by the fault-sweep
// experiment: first retransmit after 200µs, up to 8 attempts (last
// backoff ~25ms), enough to ride out every scripted loss window the
// test suite uses.
func DefaultRetryConfig() RetryConfig {
	return RetryConfig{Enabled: true, Timeout: 200 * sim.Microsecond, MaxRetries: 8}
}

// DefaultConfig returns the configuration used for the paper figures.
func DefaultConfig() Config {
	return Config{
		Buffers: 16,
		Thresholds: Thresholds{
			SendDMA: 128,
			// E7's recv-DMA crossover sweep measured DMA overtaking PIO
			// reads at 20 B on the default bus (EXPERIMENTS.md), not the
			// 64 B this default used to be; 20 B is also what the
			// adaptive estimator converges on, and stays the fallback
			// when adaptation is disabled.
			RecvDMA: 20,
		},
		RecvTimeout: 5 * sim.Second,
		Costs:       DefaultCosts(),
	}
}

// Protocol errors.
var (
	ErrTooLarge  = errors.New("bbp: message exceeds data partition capacity")
	ErrTimeout   = errors.New("bbp: operation timed out")
	ErrTruncated = errors.New("bbp: receive buffer smaller than message")
	ErrBadRank   = errors.New("bbp: destination rank out of range or self")
	// ErrFenced rejects a new send on the minority side of a declared
	// ring partition: the quorum is on the far arc, and publishing new
	// state that the majority cannot see would split-brain the
	// billboard. Existing retry slots keep retransmitting (their
	// delivery resumes when the ring heals); only new posts fence.
	ErrFenced = errors.New("bbp: send fenced: node is on the minority side of a ring partition")
)

// layout computes the SCRAMNet memory map. All processes share the same
// arithmetic, so no layout information ever crosses the network.
//
// The base protocol keeps one ACK toggle word per (sender, receiver)
// pair. The retry extension instead keeps one ACK word per (sender,
// receiver, buffer slot) — ackWords is the per-pair word count — so a
// receiver can acknowledge the exact sequence it consumed from each
// slot (see ackWrite in recv.go for why per-pair words are ambiguous
// once writes can be lost). It also adds one MIN-UNACKED word per
// (sender, receiver) pair, through which the sender publishes the
// smallest sequence addressed to that receiver it is still
// retransmitting; the receiver holds delivery of later sequences
// until the gap resolves, preserving per-stream FIFO order across
// repairs (see popPending).
type layout struct {
	nprocs   int
	buffers  int
	ackWords int
	retry    bool
	hbBytes  int // global single-writer heartbeat table ahead of the partitions (0 when liveness is off)
	strMax   int // stream-region vector capacity in bytes (0 when Config.Stream is off)
	strBytes int // global streaming-allreduce region after the heartbeat table (0 when off)
	ackBase  int // partition-relative offset of the ACK region
	descBase int // partition-relative offset of the descriptor region
	partSize int
	ctrlSize int
	dataSize int
}

func newLayout(nprocs, buffers, ackWords, memBytes int, retry, hb bool, strMax int) (layout, error) {
	l := layout{nprocs: nprocs, buffers: buffers, ackWords: ackWords, retry: retry}
	if hb {
		// One (beat, incarnation) word pair per node, each pair written
		// only by its owner — the same single-writer-per-word discipline
		// as the MESSAGE flags, placed once globally instead of fanned
		// out per partition so a detector reads every peer in one
		// contiguous burst and a publisher pays one pair write total.
		l.hbBytes = (hbSlotSize*nprocs + 63) &^ 63
	}
	if strMax > 0 {
		// The streaming-allreduce region keeps the global single-writer
		// discipline word by word: a contribution area plus an arrival
		// word per node (each written only by its owner), then the
		// initiator-owned control block — header word, mask word, the
		// circulating vector, the done word and the published result.
		l.strMax = strMax
		l.strBytes = (nprocs*(strMax+4) + 16 + 2*strMax + 63) &^ 63
	}
	l.partSize = ((memBytes - l.hbBytes - l.strBytes) / nprocs) &^ 63
	l.ackBase = 4 * nprocs // MESSAGE flag words
	if retry {
		l.ackBase += 4 * nprocs // MIN-UNACKED words
	}
	l.descBase = l.ackBase + 4*nprocs*ackWords
	l.ctrlSize = (l.descBase + descSize*buffers + 63) &^ 63
	l.dataSize = l.partSize - l.ctrlSize
	if l.dataSize < 256 {
		return l, fmt.Errorf("bbp: %d bytes of SCRAMNet memory leaves only %d data bytes per process", memBytes, l.dataSize)
	}
	return l, nil
}

func (l *layout) base(i int) int        { return l.hbBytes + l.strBytes + i*l.partSize }
func (l *layout) msgFlags(i, s int) int { return l.base(i) + 4*s }
func (l *layout) minUn(i, s int) int    { return l.base(i) + 4*l.nprocs + 4*s }
func (l *layout) ackFlags(i, r int) int { return l.base(i) + l.ackBase + 4*l.ackWords*r }
func (l *layout) ackSlot(i, r, b int) int {
	return l.ackFlags(i, r) + 4*b
}
func (l *layout) desc(i, b int) int      { return l.base(i) + l.descBase + descSize*b }
func (l *layout) dataBase(i int) int     { return l.base(i) + l.ctrlSize }
func (l *layout) dataOff(i, rel int) int { return l.dataBase(i) + rel }

// Stream-region accessors (meaningful only when strBytes > 0). The
// region sits between the heartbeat table and the partitions:
// per-node contribution areas, per-node arrival words (contiguous, so
// the initiator reads all of them in one burst), then the
// initiator-owned control block.
func (l *layout) strContrib(i int) int { return l.hbBytes + i*l.strMax }
func (l *layout) strArrival(i int) int { return l.hbBytes + l.nprocs*l.strMax + 4*i }
func (l *layout) strCtl() int          { return l.hbBytes + l.nprocs*(l.strMax+4) }
func (l *layout) strHdr() int          { return l.strCtl() }
func (l *layout) strCtr() int          { return l.strCtl() + 4 }
func (l *layout) strVec() int          { return l.strCtl() + 8 }
func (l *layout) strDone() int         { return l.strCtl() + 8 + l.strMax }
func (l *layout) strResult() int       { return l.strCtl() + 12 + l.strMax }

// hbSlotSize is the per-node heartbeat table entry: beat word +
// incarnation word.
const hbSlotSize = 8

// hbBeat/hbInc address node i's heartbeat pair in the global table.
// Both words are written only by node i.
func (l *layout) hbBeat(i int) int { return hbSlotSize * i }
func (l *layout) hbInc(i int) int  { return hbSlotSize*i + 4 }

// RingNetwork is the replicated-memory hardware the protocol runs on: a
// flat SCRAMNet ring (*scramnet.Network) or a bridged ring-of-rings
// (*scramnet.Hierarchy).
type RingNetwork interface {
	Kernel() *sim.Kernel
	Nodes() int
	NIC(i int) *scramnet.NIC
	MemBytes() int
}

// System is one BBP deployment over a SCRAMNet topology: one process
// per host (bbp_init).
type System struct {
	net     RingNetwork
	cfg     Config
	lay     layout
	eps     []*Endpoint
	tracer  *trace.Recorder
	metrics *metrics.Registry
	// hbWake is the shared heartbeat tick broadcast: one observer timer
	// per System wakes every endpoint's liveness daemon, so n daemons
	// cost one kernel event per period and the ticker stops itself when
	// only observers remain (see armHbTicker). hbTick is heartbeat,
	// bound once so that rearming the ticker allocates nothing.
	hbWake *sim.Cond
	hbTick func()
}

// New divides the replicated memory among the hosts and prepares one
// endpoint slot per host. Observability is wired at construction via
// functional options (WithTracer, WithMetrics) — there is no
// half-initialized window in which endpoints exist without their
// instruments.
func New(net RingNetwork, cfg Config, opts ...Option) (*System, error) {
	n := net.Nodes()
	if n > MaxProcs {
		return nil, fmt.Errorf("bbp: %d processes exceeds MaxProcs %d", n, MaxProcs)
	}
	if cfg.Buffers < 1 || cfg.Buffers > 32 {
		return nil, fmt.Errorf("bbp: Buffers %d outside 1..32", cfg.Buffers)
	}
	if err := cfg.Thresholds.Validate(); err != nil {
		return nil, err
	}
	if cfg.BurstPoll < BurstAuto || cfg.BurstPoll > BurstOn {
		return nil, fmt.Errorf("bbp: unknown BurstPoll mode %d", cfg.BurstPoll)
	}
	if cfg.Retry.Enabled && (cfg.Retry.Timeout <= 0 || cfg.Retry.MaxRetries < 1) {
		return nil, fmt.Errorf("bbp: Retry enabled with Timeout %v MaxRetries %d (both must be positive)",
			cfg.Retry.Timeout, cfg.Retry.MaxRetries)
	}
	if err := cfg.Liveness.Validate(); err != nil {
		return nil, err
	}
	strMax := 0
	if cfg.Stream.Enabled {
		strMax = DefaultStreamMax
		// The combining-counter word carries a participation count in
		// its low 24 bits and the round tag in the high 8
		// (spin.CounterWord): every rank the ring can address fits, so
		// Stream scales to the full 256-node ring limit and beyond.
		if n >= spin.CounterRanks {
			return nil, fmt.Errorf("bbp: Stream supports fewer than %d processes (the combining counter shares a word with the round tag), got %d", spin.CounterRanks, n)
		}
		// In-network handlers run at one ring's transit points; a
		// hierarchy bridge re-injects packets with a new origin, which
		// would re-run handlers and break the one-revolution semantics.
		if _, flat := net.(*scramnet.Network); !flat {
			return nil, fmt.Errorf("bbp: Stream requires a flat ring, not %T", net)
		}
	}
	ackWords := 1
	if cfg.Retry.Enabled {
		ackWords = cfg.Buffers
	}
	lay, err := newLayout(n, cfg.Buffers, ackWords, net.MemBytes(), cfg.Retry.Enabled, cfg.Liveness.Enabled, strMax)
	if err != nil {
		return nil, err
	}
	s := &System{net: net, cfg: cfg, lay: lay, eps: make([]*Endpoint, n)}
	for _, o := range opts {
		o(s)
	}
	if cfg.Liveness.Enabled {
		s.hbWake = sim.NewCond(net.Kernel())
		s.hbTick = s.heartbeat
		s.armHbTicker()
	}
	return s, nil
}

// Network returns the underlying ring topology.
func (s *System) Network() RingNetwork { return s.net }

// Config returns the protocol configuration.
func (s *System) Config() Config { return s.cfg }

// Procs returns the number of participating processes.
func (s *System) Procs() int { return s.lay.nprocs }

// MaxMessage returns the largest message a single buffer can carry.
func (s *System) MaxMessage() int { return s.lay.dataSize }

// Attach binds the BBP endpoint for ring node `rank` (each node attaches
// exactly once).
func (s *System) Attach(rank int) (*Endpoint, error) {
	if rank < 0 || rank >= s.lay.nprocs {
		return nil, ErrBadRank
	}
	if s.eps[rank] != nil {
		return nil, fmt.Errorf("bbp: rank %d already attached", rank)
	}
	e := &Endpoint{
		sys:        s,
		me:         rank,
		nic:        s.net.NIC(rank),
		outToggles: make([]uint32, s.lay.nprocs),
		lastSeen:   make([]uint32, s.lay.nprocs),
		ackOut:     make([]uint32, s.lay.nprocs),
		minUnOut:   make([]uint32, s.lay.nprocs),
		pending:    make([][]message, s.lay.nprocs),
		rescan:     make([]bool, s.lay.nprocs),
		minUnIn:    make([]uint32, s.lay.nprocs),
		lastDeliv:  make([]uint32, s.lay.nprocs),
		alloc:      newAllocator(s.lay.dataSize),
		retryWake:  sim.NewCond(s.net.Kernel()),
	}
	for b := s.cfg.Buffers - 1; b >= 0; b-- {
		e.freeSlots = append(e.freeSlots, b)
	}
	e.live = make([]liveBuf, s.cfg.Buffers)
	e.slotSeq = make([][]uint32, s.lay.nprocs)
	for i := range e.slotSeq {
		e.slotSeq[i] = make([]uint32, s.cfg.Buffers)
	}
	if s.cfg.InterruptDriven {
		e.intrWake = sim.NewCond(s.net.Kernel())
		e.nic.EnableInterrupts(true, func(off int) { e.intrWake.Broadcast() })
	}
	if s.cfg.Stream.Enabled {
		e.initStream()
	}
	if s.cfg.Retry.Enabled {
		s.net.Kernel().SpawnDaemon(fmt.Sprintf("bbp-retry-%d", rank), e.retryLoop)
	}
	if s.cfg.Liveness.Enabled {
		e.initLiveness()
		s.net.Kernel().SpawnDaemon(fmt.Sprintf("bbp-hb-%d", rank), e.hbLoop)
	}
	e.initPollPlan()
	e.initAdaptive()
	e.setMetrics(s.metrics)
	s.eps[rank] = e
	return e, nil
}

// Stats counts protocol-level activity on one endpoint. It is the only
// store of these counts: setMetrics and initLiveness bind each field to
// its bbp.* or liveness.* counter.
type Stats struct {
	Sent      int64
	McastSent int64
	Received  int64
	BytesSent int64
	BytesRecv int64
	Polls     int64
	// PollWords counts flag/floor words fetched while polling, whatever
	// the transaction shape; BurstPolls/BurstPollWords count the subset
	// moved by wide reads (so per-word full-round-trip poll reads are
	// PollWords − BurstPollWords).
	PollWords      int64
	BurstPolls     int64
	BurstPollWords int64
	ReAcks         int64 // retransmitted posts re-acknowledged without redelivery
	GCPasses       int64
	AllocRetries   int64
	// Retry-extension counters (zero unless Config.Retry.Enabled).
	Retransmits   int64 // buffers rewritten after an unacknowledged timeout
	RetryFailures int64 // buffers reclaimed with MaxRetries exhausted
	ChecksumDrops int64 // descriptors rejected by the receiver pending retry
	StaleDescs    int64 // flag toggles whose descriptor was stale or torn
	// Liveness counters (zero unless Config.Liveness.Enabled).
	DeadPeerReclaims int64 // (buffer, receiver) ACK obligations abandoned because the detector confirmed the receiver dead
	FencedSends      int64 // posts rejected with ErrFenced on the minority side of a partition
	// Streaming-allreduce counters (zero unless Config.Stream.Enabled).
	StreamRounds    int64 // fast-path rounds attempted (gating declines not counted)
	StreamFallbacks int64 // rounds degraded to the caller's tree path (suspicion, loss, or timeout)
}
