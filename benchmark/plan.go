package main

import (
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/sim"
)

// The input plan of a run is a pure function of (workload, seed, size):
// the workload code sees only the generated messages and collectives.
// The generator is the benchmark's own SplitMix64, so plans never move
// when the simulator's random streams change.
//
// Draws are stratified: every size, kind and destination class occurs
// in a fixed proportion, and think times and inter-arrival gaps take
// one value from each of n equal-probability strata. The seed decides
// the order and the values within the strata, so it varies the
// interleaving and poll phases while the offered load of a plan stays
// the same. That keeps seed-to-seed spread small enough to gate on.

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return finalize(r.s)
}

func finalize(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) shuffle(v []int) {
	for i := len(v) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		v[i], v[j] = v[j], v[i]
	}
}

// even returns n draws from [0, k), each value occurring n/k times
// (the remainder going to the lowest values), in seeded order.
func (r *rng) even(n, k int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i % k
	}
	r.shuffle(v)
	return v
}

// strata returns n uniform values in [0, 1), one in each interval
// [i/n, (i+1)/n), in seeded order.
func (r *rng) strata(n int) []float64 {
	idx := r.even(n, n)
	u := make([]float64, n)
	for i, s := range idx {
		u[i] = (float64(s) + r.float()) / float64(n)
	}
	return u
}

// mix hashes three words into one; payload contents derive from it.
func mix(a, b, c uint64) uint64 {
	return finalize(a ^ finalize(b+0x632BE59BD9B4E019) ^ finalize(c+0x85157AF5))
}

// maxThink bounds the think time a closed-loop client spends before
// each op, and a ping-pong server before its reply. Both are drawn at
// nanosecond resolution, so they spread ops over the poll phase and
// latency percentiles vary continuously with the seed.
const maxThink = 2 * sim.Microsecond

func thinks(r *rng, n int) []sim.Duration {
	d := make([]sim.Duration, n)
	for i, u := range r.strata(n) {
		d[i] = sim.Duration(u * float64(maxThink))
	}
	return d
}

// msg is one planned point-to-point post: a unicast or a multicast.
type msg struct {
	dsts []int
	size int
	gap  sim.Duration // closed loop: think time before the op
	work sim.Duration // ping-pong: the server's time to produce its reply
	due  sim.Time     // open loop: when the generator should post it
}

type collKind uint8

const (
	barrier collKind = iota
	bcast
	allreduceNIC  // fits the NIC stream region
	allreduceTree // larger than StreamMax: the software tree
	numCollKinds
)

func (k collKind) String() string {
	return [...]string{"barrier", "bcast", "allreduce-nic", "allreduce-tree"}[k]
}

// coll is one planned collective with each rank's entry skew.
type coll struct {
	kind  collKind
	root  int
	size  int
	think []sim.Duration
}

// plan is everything a workload run consumes.
type plan struct {
	seed  uint64
	nodes int
	sends [][]msg // per sender, in post order
	colls []coll
}

// ops is the number of planned ops: one per collective and one per
// (message, destination) delivery.
func (pl *plan) ops() int {
	n := len(pl.colls)
	for _, ms := range pl.sends {
		for _, m := range ms {
			n += len(m.dsts)
		}
	}
	return n
}

// Sizes drawn by the workloads.
var (
	smallSizes  = []int{0, 4, 16, 32, 64}
	bulkSizes   = []int{16 << 10, 32 << 10, 64 << 10}
	incastSizes = []int{4, 64, 256, 1024}
)

const (
	bcastBytes     = 256
	allredNICBytes = 64
	allredBytes    = 512
	incastSink     = 0
	incastMcast    = 0.10 // share of messages multicast
	incastFanout   = 3
)

// closedLoop gives each of the first senders n messages to sender+2,
// with sizes drawn evenly from sizes.
func closedLoop(r *rng, n, senders int, sizes []int) *plan {
	pl := &plan{nodes: 4, sends: make([][]msg, 4)}
	for s := 0; s < senders; s++ {
		gaps := thinks(r, n)
		for i, k := range r.even(n, len(sizes)) {
			pl.sends[s] = append(pl.sends[s], msg{dsts: []int{s + 2}, size: sizes[k], gap: gaps[i]})
		}
	}
	return pl
}

// genPingPong: clients 0 and 1 each make n round trips with servers 2
// and 3 on the paper's 4-node ring.
func genPingPong(r *rng, n int, _ float64) *plan {
	pl := closedLoop(r, n, 2, smallSizes)
	for s := 0; s < 2; s++ {
		for i, d := range thinks(r, n) {
			pl.sends[s][i].work = d
		}
	}
	return pl
}

// genBulk: streams 0→2 and 1→3 each send n large messages.
func genBulk(r *rng, n int, _ float64) *plan { return closedLoop(r, n, 2, bulkSizes) }

// genCollectives: n collectives on 8 ranks, each kind a quarter of
// them, the broadcast root rotating over the ranks.
func genCollectives(r *rng, n int, _ float64) *plan {
	pl := &plan{nodes: 8}
	skew := make([][]sim.Duration, pl.nodes)
	for k := range skew {
		skew[k] = thinks(r, n)
	}
	roots := 0
	for i, k := range r.even(n, int(numCollKinds)) {
		c := coll{kind: collKind(k), think: make([]sim.Duration, pl.nodes)}
		switch c.kind {
		case bcast:
			c.size, c.root = bcastBytes, roots%pl.nodes
			roots++
		case allreduceNIC:
			c.size = allredNICBytes
		case allreduceTree:
			c.size = allredBytes
		}
		for k := range c.think {
			c.think[k] = skew[k][i]
		}
		pl.colls = append(pl.colls, c)
	}
	return pl
}

// Destination classes of the open-loop workload.
const (
	toOther = iota
	toSink
	toGroup
)

// genIncast: every one of 8 ranks posts n messages with exponential
// inter-arrival gaps of mean 1/rate (rate per virtual second). A tenth
// of each sender's messages are multicasts; half of a non-sink sender's
// unicasts go to the sink.
func genIncast(r *rng, n int, rate float64) *plan {
	pl := &plan{nodes: 8, sends: make([][]msg, 8)}
	mcasts := int(math.Round(incastMcast * float64(n)))
	for s := 0; s < pl.nodes; s++ {
		class := make([]int, n)
		for i := range class {
			switch {
			case i < mcasts:
				class[i] = toGroup
			case s != incastSink && (i-mcasts)%2 == 0:
				class[i] = toSink
			}
		}
		r.shuffle(class)
		sizes := r.even(n, len(incastSizes))
		var t sim.Time
		for i, u := range r.strata(n) {
			t += sim.Time(-math.Log(1-u) * float64(sim.Second) / rate)
			m := msg{due: t, size: incastSizes[sizes[i]]}
			switch class[i] {
			case toGroup:
				m.dsts = pickOthers(r, pl.nodes, incastFanout, s)
			case toSink:
				m.dsts = []int{incastSink}
			default:
				m.dsts = pickOthers(r, pl.nodes, 1, s, incastSink)
			}
			pl.sends[s] = append(pl.sends[s], m)
		}
	}
	return pl
}

// pickOthers draws k distinct ranks in [0, nodes) outside excl, in
// ascending order.
func pickOthers(r *rng, nodes, k int, excl ...int) []int {
	var pool []int
next:
	for i := 0; i < nodes; i++ {
		for _, x := range excl {
			if i == x {
				continue next
			}
		}
		pool = append(pool, i)
	}
	for j := 0; j < k; j++ {
		i := j + r.intn(len(pool)-j)
		pool[j], pool[i] = pool[i], pool[j]
	}
	out := pool[:k]
	sort.Ints(out)
	return out
}

// fill writes message seq of src: a pure function of (seed, src, seq).
func fill(b []byte, seed uint64, src, seq int) {
	x := mix(seed, uint64(src), uint64(seq))
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], x)
		x += 0x9E3779B97F4A7C15
	}
	for ; i < len(b); i++ {
		b[i] = byte(x >> (8 * (i % 8)))
	}
}

// matches reports whether b holds exactly message seq of src.
func matches(b []byte, seed uint64, src, seq int) bool {
	x := mix(seed, uint64(src), uint64(seq))
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != x {
			return false
		}
		x += 0x9E3779B97F4A7C15
	}
	for ; i < len(b); i++ {
		if b[i] != byte(x>>(8*(i%8))) {
			return false
		}
	}
	return true
}

// lane is rank's contribution to lane j of collective op: the
// allreduce inputs, so the expected sum has a closed form.
func lane(seed uint64, rank, op, j int) uint32 {
	return uint32(mix(seed, uint64(rank)<<32|uint64(j), uint64(op)))
}
