package hybrid_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hybrid"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/xport"
)

// This battery runs each MPI scenario twice over the hybrid router: once
// with the router's xport.Sweeper, whose poller runs the idle probes of
// a progress sweep, and once with it hidden, so that the engine loops
// TryRecv (xport.LoopSweep). The two must be indistinguishable: same
// clock, same executed events, the same BBP, router and MPI counters,
// and every operation completing at the same time with the same result.

// hideSweep is a router endpoint with only xport.Sweeper hidden: the
// Sweep field shadows the promoted method, while every other method,
// the liveness and partition views included, is promoted as it is.
type hideSweep struct {
	*hybrid.Endpoint
	Sweep struct{}
}

// hybridRun is what one run of a scenario showed.
type hybridRun struct {
	now      sim.Time
	executed int64
	bbp      []core.Stats
	hyb      []hybrid.Stats
	eng      []mpi.EngineStats
	log      []string // each rank's completions in order: op, time, result
}

type hybridScenario struct {
	name   string
	nodes  int
	bbp    func(c *core.Config)
	live   bool
	faults *fault.Script // applied to the ring only
	mcfg   func(c *mpi.Config)
	// want is text the completions must show, so that a scenario meant
	// to end a wait with an error does.
	want string
	// body runs on every rank; low is the rank's BBP endpoint, for raw
	// frames the router must discard.
	body func(p *sim.Proc, c *mpi.Comm, low xport.Endpoint, note func(op string, err error))
	// check looks at the run's router counters, so that a scenario meant
	// to exercise a path does.
	check func(t *testing.T, r hybridRun)
}

// hybridWorld builds nodes router endpoints with cfg over a SCRAMNet
// cluster with bbp, live and faults (the ring's fault script) and an
// unfaulted Myrinet SAN, as TestProactiveFailoverOnSuspicion does.
func hybridWorld(t *testing.T, k *sim.Kernel, nodes int, cfg hybrid.Config, bbp core.Config, live bool, faults *fault.Script) ([]xport.Endpoint, []*hybrid.Endpoint) {
	t.Helper()
	opts := cluster.Options{Nodes: nodes, Net: cluster.SCRAMNet, BBP: &bbp, Faults: faults}
	if live {
		lcfg := liveness.DefaultConfig()
		opts.Liveness = &lcfg
	}
	low, err := cluster.New(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	san, err := xport.NewSwitch(k, myrinet.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*hybrid.Endpoint, nodes)
	for i := range eps {
		high := myrinet.OpenAPI(san, i, myrinet.DefaultAPIConfig())
		if eps[i], err = hybrid.New(low.Endpoints[i], high, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return low.Endpoints, eps
}

func runHybridScenario(t *testing.T, sc hybridScenario, generic bool) hybridRun {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	bbp := core.DefaultConfig()
	if sc.bbp != nil {
		sc.bbp(&bbp)
	}
	lows, routers := hybridWorld(t, k, sc.nodes, hybrid.DefaultConfig(), bbp, sc.live, sc.faults)
	eps := make([]xport.Endpoint, sc.nodes)
	for i, ep := range routers {
		eps[i] = ep
		if generic {
			eps[i] = hideSweep{Endpoint: ep}
		}
	}
	mcfg := mpi.DefaultConfig()
	if sc.mcfg != nil {
		sc.mcfg(&mcfg)
	}
	w := mpi.NewWorld(eps, mcfg)
	logs := make([][]string, sc.nodes)
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		me := cm.Rank()
		sc.body(p, cm, lows[me], func(op string, err error) {
			logs[me] = append(logs[me], fmt.Sprintf("rank %d %s at %v: %v", me, op, p.Now(), err))
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	r := hybridRun{now: k.Now(), executed: k.Executed()}
	for i, ep := range routers {
		r.bbp = append(r.bbp, lows[i].(*core.Endpoint).Stats())
		r.hyb = append(r.hyb, ep.Stats())
		r.eng = append(r.eng, w.Engine(i).Stats())
		r.log = append(r.log, logs[i]...)
	}
	return r
}

// exchange has every rank receive len(sizes) messages from its left
// neighbour while it sends as many to its right one, each rank starting
// a little later than the one before.
func exchange(sizes ...int) func(p *sim.Proc, c *mpi.Comm, low xport.Endpoint, note func(string, error)) {
	return func(p *sim.Proc, c *mpi.Comm, _ xport.Endpoint, note func(string, error)) {
		me, n := c.Rank(), c.Size()
		p.Delay(sim.Duration(me) * 3 * sim.Microsecond)
		for i, size := range sizes {
			buf := make([]byte, size)
			req, err := c.Irecv(p, (me+n-1)%n, i, buf)
			if err != nil {
				note("irecv", err)
				return
			}
			note("send", c.Send(p, (me+1)%n, i, bytes.Repeat([]byte{byte(me + i)}, size)))
			st, err := c.Wait(p, req)
			note(fmt.Sprintf("wait len=%d sum=%d", st.Len, sum(buf)), err)
		}
	}
}

// burstThenRecv has every rank send all of sizes to its right neighbour
// back to back, eager, before it receives as many from its left one: a
// small message routed over the ring overtakes the larger one before
// it on the SAN, and the router holds it.
func burstThenRecv(sizes ...int) func(p *sim.Proc, c *mpi.Comm, low xport.Endpoint, note func(string, error)) {
	return func(p *sim.Proc, c *mpi.Comm, _ xport.Endpoint, note func(string, error)) {
		me, n := c.Rank(), c.Size()
		for i, size := range sizes {
			note("send", c.Send(p, (me+1)%n, i, bytes.Repeat([]byte{byte(me + i)}, size)))
		}
		for i, size := range sizes {
			buf := make([]byte, size)
			st, err := c.Recv(p, (me+n-1)%n, i, buf)
			note(fmt.Sprintf("recv len=%d sum=%d", st.Len, sum(buf)), err)
		}
	}
}

func sum(b []byte) int {
	s := 0
	for _, v := range b {
		s += int(v)
	}
	return s
}

func hybridScenarios() []hybridScenario {
	retry := func(c *core.Config) { c.Retry = core.DefaultRetryConfig() }
	kill := func(node int) *fault.Script {
		return &fault.Script{Seed: 9, Actions: []fault.Action{
			{At: sim.Time(0).Add(sim.Millisecond), Kind: fault.NodeFail, Node: node},
		}}
	}
	return []hybridScenario{
		{name: "eager", nodes: 4, body: exchange(0, 4, 64, 300, 1000, 9000)},
		{name: "rendezvous", nodes: 4, body: exchange(20<<10, 32<<10, 64<<10)},
		{name: "reorder", nodes: 3, body: burstThenRecv(1000, 8, 2000, 16, 600, 4),
			check: func(t *testing.T, r hybridRun) {
				// The small messages must have crossed the ring, to
				// overtake the larger ones on the SAN.
				if r.bbp[1].Received == 0 {
					t.Error("nothing crossed the ring")
				}
			}},
		{name: "retry burst", nodes: 4, bbp: func(c *core.Config) {
			retry(c)
			c.BurstPoll = core.BurstOn
		}, body: exchange(8, 700, 20<<10)},
		{name: "retry word", nodes: 4, bbp: func(c *core.Config) {
			retry(c)
			c.BurstPoll = core.BurstOff
		}, body: exchange(8, 700, 20<<10)},
		{name: "loss window", nodes: 4, bbp: retry,
			faults: &fault.Script{Seed: 2, Actions: []fault.Action{
				{At: sim.Time(0).Add(20 * sim.Microsecond), Kind: fault.LossStart, Rate: 0.1},
				{At: sim.Time(0).Add(400 * sim.Microsecond), Kind: fault.LossStop},
			}},
			body: exchange(8, 64, 100, 200, 300, 20<<10),
			check: func(t *testing.T, r hybridRun) {
				drops := int64(0)
				for _, st := range r.bbp {
					drops += st.ChecksumDrops + st.Retransmits
				}
				if drops == 0 {
					t.Error("the loss window caused no checksum drop or retransmission")
				}
			}},
		{name: "runts and duplicates", nodes: 3,
			body: func(p *sim.Proc, c *mpi.Comm, low xport.Endpoint, note func(string, error)) {
				exchange(8, 20<<10)(p, c, low, note)
				if c.Rank() == 0 {
					// Raw ring frames under the router: a runt, and a
					// stale sequence number 0 the stream has moved past.
					note("runt", low.Send(p, 1, []byte{1, 2}))
					note("duplicate", low.Send(p, 1, []byte{0, 0, 0, 0, 7}))
				}
				exchange(16, 32<<10)(p, c, low, note)
			},
			check: func(t *testing.T, r hybridRun) {
				if r.hyb[1].SubErrors == 0 || r.hyb[1].Duplicates == 0 {
					t.Errorf("rank 1 router stats %+v: want a runt and a duplicate", r.hyb[1])
				}
			}},
		{name: "failover", nodes: 4, bbp: retry, live: true, faults: kill(3),
			mcfg: func(c *mpi.Config) { c.WaitTimeout = 50 * sim.Millisecond },
			body: func(p *sim.Proc, c *mpi.Comm, low xport.Endpoint, note func(string, error)) {
				// Rank 3's ring card is bypassed at 1 ms while its SAN
				// link stays up: small sends to it move to the SAN.
				for round := 0; round < 4; round++ {
					exchange(8, 64, 20<<10)(p, c, low, note)
					p.Delay(700 * sim.Microsecond)
				}
			},
			check: func(t *testing.T, r hybridRun) {
				if r.hyb[2].ProactiveFailovers+r.hyb[2].Failovers == 0 {
					t.Errorf("rank 2 router stats %+v: want a failover", r.hyb[2])
				}
			}},
		{name: "dead peer", nodes: 4, bbp: retry, live: true, want: "confirmed dead",
			faults: kill(3),
			mcfg:   func(c *mpi.Config) { c.WaitTimeout = 100 * sim.Millisecond },
			body: func(p *sim.Proc, c *mpi.Comm, low xport.Endpoint, note func(string, error)) {
				switch c.Rank() {
				case 0, 1:
					_, err := c.Recv(p, 3, 5, make([]byte, 8))
					note("recv", err)
				case 2:
					_, err := c.Recv(p, 0, 6, make([]byte, 8))
					note("recv", err)
				}
			}},
		{name: "test", nodes: 3, body: func(p *sim.Proc, c *mpi.Comm, low xport.Endpoint, note func(string, error)) {
			buf := make([]byte, 2000)
			switch c.Rank() {
			case 0:
				req, err := c.Irecv(p, 2, 1, buf)
				if err != nil {
					note("irecv", err)
					return
				}
				for {
					done, _, err := c.Test(p, req)
					if done || err != nil {
						note("test", err)
						return
					}
					p.Delay(2 * sim.Microsecond)
				}
			case 2:
				p.Delay(60 * sim.Microsecond)
				note("send", c.Send(p, 0, 1, buf))
			}
		}},
	}
}

// TestSweepMatchesLoopSweep is the differential battery for the
// router's Sweeper.
func TestSweepMatchesLoopSweep(t *testing.T) {
	for _, sc := range hybridScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			fast, generic := runHybridScenario(t, sc, false), runHybridScenario(t, sc, true)
			if all := strings.Join(fast.log, "\n"); all == "" || !strings.Contains(all, sc.want) {
				t.Fatalf("completions %q, want some with %q", fast.log, sc.want)
			}
			if !reflect.DeepEqual(fast.log, generic.log) {
				t.Fatalf("completions differ:\nsweeper: %q\ngeneric: %q", fast.log, generic.log)
			}
			if fast.now != generic.now || fast.executed != generic.executed {
				t.Fatalf("clock/events: sweeper %v/%d, generic %v/%d", fast.now, fast.executed, generic.now, generic.executed)
			}
			for i := range fast.bbp {
				if !reflect.DeepEqual(fast.bbp[i], generic.bbp[i]) {
					t.Fatalf("rank %d BBP stats:\nsweeper %+v\ngeneric %+v", i, fast.bbp[i], generic.bbp[i])
				}
				if fast.hyb[i] != generic.hyb[i] {
					t.Fatalf("rank %d router stats:\nsweeper %+v\ngeneric %+v", i, fast.hyb[i], generic.hyb[i])
				}
				if fast.eng[i] != generic.eng[i] {
					t.Fatalf("rank %d MPI stats:\nsweeper %+v\ngeneric %+v", i, fast.eng[i], generic.eng[i])
				}
			}
			if sc.check != nil {
				sc.check(t, fast)
			}
		})
	}
}

// TestSweepAllocs gates the Sweeper's steady state: once warm, MPI
// exchanges through the router's Sweep (64 B eager and 32 KiB
// rendezvous, each way between two ranks) allocate nothing, since the
// pollers and their probe steps are bound once and reused.
func TestSweepAllocs(t *testing.T) {
	k, c := world(t, 2)
	defer k.Close()
	if _, ok := c.Endpoints[0].(xport.Sweeper); !ok {
		t.Fatal("the router is not an xport.Sweeper")
	}
	w := mpi.NewWorld(c.Endpoints, mpi.DefaultConfig())
	done := 0
	var resume []func()
	for i := 0; i < 2; i++ {
		cm := w.Comm(i)
		small, large := make([]byte, 64), make([]byte, 32<<10)
		rsmall, rlarge := make([]byte, 64), make([]byte, 32<<10)
		resume = append(resume, k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			for {
				p.Park()
				for _, b := range [][2][]byte{{small, rsmall}, {large, rlarge}} {
					if _, err := cm.Sendrecv(p, 1-i, 1, b[0], 1-i, 1, b[1]); err != nil {
						t.Error(err)
						return
					}
				}
				done++
			}
		}).Resume)
	}
	round := func() {
		for _, r := range resume {
			k.At(k.Now(), r)
		}
		k.RunFor(5 * sim.Millisecond)
	}
	const warm = 10
	for i := 0; i < warm; i++ {
		round()
	}
	twenty := func() {
		for i := 0; i < 20; i++ {
			round()
		}
	}
	if allocs := testing.AllocsPerRun(1, twenty); allocs != 0 {
		t.Fatalf("twenty rounds of eager and rendezvous exchanges allocate %v times, want 0", allocs)
	}
	if want := 2 * (warm + 40); done != want {
		t.Fatalf("%d rank rounds completed, want %d", done, want)
	}
}
