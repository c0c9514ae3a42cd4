package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/liveness"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xport"
)

// workload is one benchmark input family. ops is its default size: the
// round trips per client, the messages per stream or per sender, or
// the collectives of one round. rate is the open loop's offered load
// per sender, in messages per virtual second.
type workload struct {
	name string
	why  string
	ops  int
	rate float64
	gen  func(r *rng, n int, rate float64) *plan
	opts func() cluster.Options
	mpi  bool
	run  func(tb *testbed, pl *plan, r *round)
}

var workloads = []workload{
	{
		name: "pingpong_small",
		why:  "closed loop, 2 BBP ping-pong pairs on the 4-node ring, 0-64 B: per-message descriptor, flag and poll cost; no MPI, DMA or rendezvous",
		ops:  4000,
		gen:  genPingPong,
		opts: func() cluster.Options { return cluster.Options{Nodes: 4, Net: cluster.SCRAMNet} },
		run:  runPingPong,
	},
	{
		name: "bulk_hybrid",
		why:  "closed loop, 2 MPI streams of 16-64 KiB over the SCRAMNet+Myrinet hybrid: rendezvous, router and fabric with the ring data path idle",
		ops:  800,
		gen:  genBulk,
		opts: func() cluster.Options { return cluster.Options{Nodes: 4, Net: cluster.Hybrid} },
		mpi:  true,
		run:  runBulk,
	},
	{
		name: "collectives8",
		why:  "closed loop, 8 MPI ranks over SCRAMNet with the NIC stream: Auto-selected barrier, bcast and allreduce, NIC and tree paths",
		ops:  1000,
		gen:  genCollectives,
		opts: func() cluster.Options {
			bbp := core.DefaultConfig()
			bbp.Stream.Enabled = true
			return cluster.Options{Nodes: 8, Net: cluster.SCRAMNet, BBP: &bbp}
		},
		mpi: true,
		run: runCollectives,
	},
	{
		name: "incast_open",
		why:  "open loop, Poisson BBP posts from 8 nodes at half the knee rate, half to one sink, 10% multicast, retry and liveness on: many writers and a hot receiver",
		ops:  1000,
		rate: 500,
		gen:  genIncast,
		opts: func() cluster.Options {
			// The retry timeout sits well above the ~250 µs one-way time
			// of a 1 KiB post; the 200 µs default would retransmit every
			// one of them spuriously.
			bbp := core.DefaultConfig()
			bbp.Retry = core.RetryConfig{Enabled: true, Timeout: 2 * sim.Millisecond, MaxRetries: 8}
			live := liveness.DefaultConfig()
			return cluster.Options{Nodes: 8, Net: cluster.SCRAMNet, BBP: &bbp, Liveness: &live}
		},
		run: runIncast,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newPlan generates the workload's inputs for seed; n and rate <= 0
// select the defaults.
func newPlan(w *workload, seed uint64, n int, rate float64) *plan {
	if n <= 0 {
		n = w.ops
	}
	if rate <= 0 {
		rate = w.rate
	}
	var name uint64
	for _, c := range w.name {
		name = name*31 + uint64(c)
	}
	pl := w.gen(&rng{s: mix(seed, name, uint64(n))}, n, rate)
	pl.seed = seed
	return pl
}

// testbed is one built cluster with what the workload drives: eps are
// the cluster's endpoints, wrapped in the timing decorator when traced.
type testbed struct {
	k     *sim.Kernel
	c     *cluster.Cluster
	eps   []xport.Endpoint
	world *mpi.World
	reg   *metrics.Registry
	prof  *sim.Profiler
	tr    *tracer
	pc    pacer
}

// build assembles the testbed for pl. The caller closes it.
func build(w *workload, pl *plan, traced bool, keepSpans int) (*testbed, error) {
	tb := &testbed{k: sim.NewKernel()}
	opts := w.opts()
	if traced {
		tb.reg, tb.prof, tb.tr = metrics.New(), sim.NewProfiler(), newTracer(keepSpans)
		opts.Metrics, opts.Profiler = tb.reg, tb.prof
	}
	c, err := cluster.New(tb.k, opts)
	if err != nil {
		tb.close()
		return nil, err
	}
	tb.c, tb.eps = c, c.Endpoints
	if traced {
		tb.eps = make([]xport.Endpoint, len(c.Endpoints))
		for i, ep := range c.Endpoints {
			if tb.eps[i], err = decorate(ep, tb.tr); err != nil {
				tb.close()
				return nil, err
			}
		}
	}
	if w.mpi {
		tb.world = mpi.NewWorld(tb.eps, mpi.DefaultConfig())
		if traced {
			tb.world.SetMetrics(tb.reg)
		}
	}
	return tb, nil
}

// close stops every simulated process. Kernel.Close only unwinds a
// process that has started, so the kernel first runs to time zero,
// which starts the daemons of a testbed that never ran.
func (tb *testbed) close() {
	tb.k.RunUntil(0)
	tb.k.Close()
}

// startOp is called by a simulated process as it starts op: it names
// the op for the tracer and lets the pacer sample the host's speed.
func (tb *testbed) startOp(p *sim.Proc, op int) {
	tb.tr.setOp(p, op)
	tb.pc.pace()
}

// round is one execution of a plan: its virtual-time samples and the
// outcome of the output checks.
type round struct {
	lat         []float64 // µs per completed op
	lag         []float64 // µs each open-loop post ran behind its due time
	payload     int64     // payload bytes of completed ops
	first, last sim.Time  // earliest op start, latest op end
	done        int       // ops completed with verified output
	corrupt     int       // deliveries with a wrong payload, length or order
	errs        []error
}

func (r *round) complete(start, end sim.Time, latUs float64, bytes int) {
	if r.done == 0 || start < r.first {
		r.first = start
	}
	if end > r.last {
		r.last = end
	}
	r.lat = append(r.lat, latUs)
	r.payload += int64(bytes)
	r.done++
}

// check counts a failed output check; it returns ok.
func (r *round) check(ok bool) bool {
	if !ok {
		r.corrupt++
	}
	return ok
}

func (r *round) fail(err error) {
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err)
	}
}

func us(d sim.Duration) float64 { return float64(d) / 1e3 }

// execute runs pl on tb to completion. Planned ops that did not
// complete, including those stranded by a deadlock, count as failed.
func execute(w *workload, pl *plan, tb *testbed) *round {
	r := &round{}
	w.run(tb, pl, r)
	if err := tb.k.Run(); err != nil {
		r.fail(err)
	}
	return r
}

const maxSmall = 64

// runPingPong: each client times Send to its server plus Recv of the
// reply; one op is one round trip less the server's planned work before
// replying, reported halved as the one-way latency.
func runPingPong(tb *testbed, pl *plan, r *round) {
	for c := 0; c < 2; c++ {
		srv, ms, base := c+2, pl.sends[c], c*len(pl.sends[0])
		cep, sep := tb.eps[c], tb.eps[srv]
		tb.k.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			out, in := make([]byte, maxSmall), make([]byte, maxSmall+1)
			for i, m := range ms {
				p.Delay(m.gap)
				tb.startOp(p, base+i)
				fill(out[:m.size], pl.seed, c, i)
				t0 := p.Now()
				if err := cep.Send(p, srv, out[:m.size]); err != nil {
					r.fail(err)
					return
				}
				n, err := cep.Recv(p, srv, in)
				if err != nil {
					r.fail(err)
					return
				}
				t1 := p.Now()
				if r.check(n == m.size && matches(in[:n], pl.seed, srv, i)) {
					r.complete(t0, t1, us(t1.Sub(t0)-m.work)/2, 2*m.size)
				}
				tb.tr.opSpan(c, base+i, "roundtrip", t0, t1)
			}
		})
		tb.k.Spawn(fmt.Sprintf("server%d", srv), func(p *sim.Proc) {
			out, in := make([]byte, maxSmall), make([]byte, maxSmall+1)
			for i, m := range ms {
				tb.startOp(p, base+i)
				n, err := sep.Recv(p, c, in)
				if err != nil {
					r.fail(err)
					return
				}
				r.check(n == m.size && matches(in[:n], pl.seed, c, i))
				p.Delay(m.work)
				fill(out[:m.size], pl.seed, srv, i)
				if err := sep.Send(p, c, out[:m.size]); err != nil {
					r.fail(err)
					return
				}
			}
		})
	}
}

const maxBulk = 64 << 10

// runBulk: one op is one MPI message, timed from the start of Send on
// the sender to the return of Recv on the receiver.
func runBulk(tb *testbed, pl *plan, r *round) {
	for s := 0; s < 2; s++ {
		dst, ms, base := s+2, pl.sends[s], s*len(pl.sends[0])
		start := make([]sim.Time, len(ms))
		tb.k.Spawn(fmt.Sprintf("rank%d", s), func(p *sim.Proc) {
			c, buf := tb.world.Comm(s), make([]byte, maxBulk)
			for i, m := range ms {
				p.Delay(m.gap)
				tb.startOp(p, base+i)
				fill(buf[:m.size], pl.seed, s, i)
				start[i] = p.Now()
				tb.tr.begin(p, s, layerMPI, "send", 0)
				err := c.Send(p, dst, 0, buf[:m.size])
				tb.tr.end(p)
				if err != nil {
					r.fail(err)
					return
				}
			}
		})
		tb.k.Spawn(fmt.Sprintf("rank%d", dst), func(p *sim.Proc) {
			c, buf := tb.world.Comm(dst), make([]byte, maxBulk)
			for i, m := range ms {
				tb.startOp(p, base+i)
				tb.tr.begin(p, dst, layerMPI, "recv", 0)
				st, err := c.Recv(p, s, 0, buf)
				tb.tr.end(p)
				if err != nil {
					r.fail(err)
					return
				}
				if r.check(st.Len == m.size && matches(buf[:st.Len], pl.seed, s, i)) {
					r.complete(start[i], p.Now(), us(p.Now().Sub(start[i])), m.size)
				}
				tb.tr.opSpan(dst, base+i, "message", start[i], p.Now())
			}
		})
	}
}

// runCollectives: one op is one collective, timed from the first
// rank's entry to the last rank's exit.
func runCollectives(tb *testbed, pl *plan, r *round) {
	n := len(pl.colls)
	entry, exit := make([]sim.Time, n), make([]sim.Time, n)
	entered, left, bad := make([]int, n), make([]int, n), make([]bool, n)
	for rank := 0; rank < pl.nodes; rank++ {
		tb.k.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			c := tb.world.Comm(rank)
			in, out := make([]byte, allredBytes), make([]byte, allredBytes)
			for i, op := range pl.colls {
				p.Delay(op.think[rank])
				tb.startOp(p, i)
				if t := p.Now(); entered[i] == 0 || t < entry[i] {
					entry[i] = t
				}
				entered[i]++
				tb.tr.begin(p, rank, layerMPI, op.kind.String(), 0)
				ok, err := collective(p, c, pl.seed, i, op, in, out)
				tb.tr.end(p)
				if err != nil {
					r.fail(fmt.Errorf("rank %d %v #%d: %w", rank, op.kind, i, err))
					return
				}
				bad[i] = bad[i] || !ok
				if t := p.Now(); t > exit[i] {
					exit[i] = t
				}
				if left[i]++; left[i] < pl.nodes {
					continue
				}
				if r.check(!bad[i]) {
					r.complete(entry[i], exit[i], us(exit[i].Sub(entry[i])), op.size)
				}
				tb.tr.opSpan(rank, i, op.kind.String(), entry[i], exit[i])
			}
		})
	}
}

// collective runs op as collective number i on c and checks its result:
// a broadcast against the root's payload, an allreduce against the
// closed-form lane sums.
func collective(p *sim.Proc, c *mpi.Comm, seed uint64, i int, op coll, in, out []byte) (bool, error) {
	switch op.kind {
	case barrier:
		return true, c.Barrier(p)
	case bcast:
		b := in[:op.size]
		if c.Rank() == op.root {
			fill(b, seed, op.root, i)
		}
		if err := c.Bcast(p, op.root, b); err != nil {
			return false, err
		}
		return matches(b, seed, op.root, i), nil
	}
	send, recv := in[:op.size], out[:op.size]
	for j := 0; j < op.size/4; j++ {
		binary.LittleEndian.PutUint32(send[4*j:], lane(seed, c.Rank(), i, j))
	}
	if err := c.Allreduce(p, mpi.SumU32, send, recv); err != nil {
		return false, err
	}
	for j := 0; j < op.size/4; j++ {
		var want uint32
		for rank := 0; rank < c.Size(); rank++ {
			want += lane(seed, rank, i, j)
		}
		if binary.LittleEndian.Uint32(recv[4*j:]) != want {
			return false, nil
		}
	}
	return true, nil
}

const (
	maxIncast = 1024
	// pollGap is how often an idle open-loop node checks for mail.
	pollGap = 10 * sim.Microsecond
	// drainLimit is how long after the last planned post a node keeps
	// waiting for mail. Deliveries still missing then count as failed;
	// without the limit a lost message would keep its receiver polling
	// forever. It is over 100 times the p99 latency at the knee.
	drainLimit = 200 * sim.Millisecond
)

// runIncast: every node runs one event loop. It posts each planned
// message at its due time, receives whenever bbp_MsgAvail reports mail,
// and otherwise sleeps until its next poll or due time. One op is one
// delivery, timed from the message's due time, so a late generator
// shows in the latency; how late each post ran is the generator lag.
func runIncast(tb *testbed, pl *plan, r *round) {
	var deadline sim.Time
	for _, ms := range pl.sends {
		if n := len(ms); n > 0 && ms[n-1].due > deadline {
			deadline = ms[n-1].due
		}
	}
	deadline = deadline.Add(drainLimit)
	// expect[d][s] lists the indices of s's messages addressed to d, in
	// post order: per-stream FIFO delivery must follow it exactly.
	expect := make([][][]int, pl.nodes)
	for d := range expect {
		expect[d] = make([][]int, pl.nodes)
	}
	for s, ms := range pl.sends {
		for i, m := range ms {
			for _, d := range m.dsts {
				expect[d][s] = append(expect[d][s], i)
			}
		}
	}
	for node := 0; node < pl.nodes; node++ {
		ep := tb.eps[node]
		av, ok := ep.(availer)
		if !ok {
			r.fail(fmt.Errorf("incast_open: endpoint %T has no MsgAvail", ep))
			return
		}
		want := 0
		for _, idx := range expect[node] {
			want += len(idx)
		}
		tb.k.Spawn(fmt.Sprintf("node%d", node), func(p *sim.Proc) {
			ms := pl.sends[node]
			out, in := make([]byte, maxIncast), make([]byte, maxIncast+1)
			next := make([]int, pl.nodes)
			sent, got := 0, 0
			for sent < len(ms) || got < want && p.Now() < deadline {
				if sent < len(ms) && p.Now() >= ms[sent].due {
					m := ms[sent]
					tb.startOp(p, msgOp(pl, node, sent))
					r.lag = append(r.lag, us(p.Now().Sub(m.due)))
					fill(out[:m.size], pl.seed, node, sent)
					var err error
					if len(m.dsts) == 1 {
						err = ep.Send(p, m.dsts[0], out[:m.size])
					} else {
						err = ep.Mcast(p, m.dsts, out[:m.size])
					}
					if err != nil {
						r.fail(err)
						return
					}
					sent++
					continue
				}
				if got == want || !av.MsgAvail(p) {
					wait := pollGap
					if got == want || sent < len(ms) && ms[sent].due.Sub(p.Now()) < wait {
						wait = ms[sent].due.Sub(p.Now())
					}
					if wait > 0 {
						p.Delay(wait)
					}
					continue
				}
				src, nb, err := ep.RecvAny(p, in)
				if err != nil {
					r.fail(err)
					return
				}
				got++
				if !r.check(next[src] < len(expect[node][src])) {
					continue
				}
				i := expect[node][src][next[src]]
				next[src]++
				m := pl.sends[src][i]
				if r.check(nb == m.size && matches(in[:nb], pl.seed, src, i)) {
					r.complete(m.due, p.Now(), us(p.Now().Sub(m.due)), m.size)
				}
				tb.tr.opSpan(node, msgOp(pl, src, i), "delivery", m.due, p.Now())
			}
		})
	}
}

// msgOp numbers message i of src across all senders.
func msgOp(pl *plan, src, i int) int {
	for s := 0; s < src; s++ {
		i += len(pl.sends[s])
	}
	return i
}
