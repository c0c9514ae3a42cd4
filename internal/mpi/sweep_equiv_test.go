package mpi_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xport"
)

// This battery runs each scenario twice over BBP: once with the
// endpoint's xport.Sweeper, whose poller runs the idle polls of a
// progress sweep, and once with it hidden, so that the engine loops
// TryRecv (xport.LoopSweep). The two must be indistinguishable: same
// clock, same executed events, same BBP and MPI counters, and every
// operation completing at the same time with the same result.

// hideSweep is a BBP endpoint with only xport.Sweeper hidden: the Sweep
// field shadows the promoted method, while every other method, the
// optional extensions included, is promoted as it is.
type hideSweep struct {
	*core.Endpoint
	Sweep struct{}
}

// sweepRun is what one run of a scenario showed.
type sweepRun struct {
	now      sim.Time
	executed int64
	bbp      []core.Stats
	eng      []mpi.EngineStats
	log      []string // each rank's completions in order: op, time, result
}

type sweepScenario struct {
	name   string
	nodes  int
	stream bool // the NIC stream extension (NIC collectives)
	retry  bool
	live   bool
	faults *fault.Script
	mcfg   func(c *mpi.Config)
	// want is text the completions must show, so that a scenario meant
	// to end a wait with an error does.
	want string
	// body runs on every rank; note records the completion of op.
	body func(p *sim.Proc, c *mpi.Comm, note func(op string, err error))
}

func runSweepScenario(t *testing.T, sc sweepScenario, generic bool) sweepRun {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	bbp := core.DefaultConfig()
	bbp.Stream.Enabled = sc.stream
	if sc.retry {
		bbp.Retry = core.DefaultRetryConfig()
	}
	opts := cluster.Options{Nodes: sc.nodes, Net: cluster.SCRAMNet, BBP: &bbp, PIOOnlyBBP: !sc.stream, Faults: sc.faults}
	if sc.live {
		live := liveness.DefaultConfig()
		opts.Liveness = &live
	}
	c, err := cluster.New(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]xport.Endpoint, len(c.Endpoints))
	for i, ep := range c.Endpoints {
		eps[i] = ep
		if generic {
			eps[i] = hideSweep{Endpoint: ep.(*core.Endpoint)}
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
		sc.body(p, cm, func(op string, err error) {
			logs[me] = append(logs[me], fmt.Sprintf("rank %d %s at %v: %v", me, op, p.Now(), err))
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	r := sweepRun{now: k.Now(), executed: k.Executed()}
	for i, ep := range c.Endpoints {
		r.bbp = append(r.bbp, ep.(*core.Endpoint).Stats())
		r.eng = append(r.eng, w.Engine(i).Stats())
		r.log = append(r.log, logs[i]...)
	}
	return r
}

// ringExchange has every rank receive len(sizes) messages from its left
// neighbour while it sends as many to its right one, each rank starting
// a little later than the one before.
func ringExchange(sizes ...int) func(p *sim.Proc, c *mpi.Comm, note func(string, error)) {
	return func(p *sim.Proc, c *mpi.Comm, note func(string, error)) {
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
			note(fmt.Sprintf("wait len=%d", st.Len), err)
		}
	}
}

func sweepScenarios() []sweepScenario {
	quick := func(c *mpi.Config) { c.WaitTimeout = 300 * sim.Microsecond }
	return []sweepScenario{
		{name: "eager", nodes: 4, body: ringExchange(0, 4, 64, 1000)},
		{name: "rendezvous", nodes: 4, body: ringExchange(20<<10, 40<<10)},
		{name: "rendezvous-retry", nodes: 3, retry: true, body: ringExchange(64, 20<<10)},
		{name: "test", nodes: 4, body: func(p *sim.Proc, c *mpi.Comm, note func(string, error)) {
			buf := make([]byte, 64)
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
		{name: "tree", nodes: 5, body: func(p *sim.Proc, c *mpi.Comm, note func(string, error)) {
			tree := mpi.WithAlgorithm(mpi.Tree)
			p.Delay(sim.Duration(c.Rank()) * sim.Microsecond)
			note("barrier", c.Barrier(p, tree))
			note("bcast", c.Bcast(p, 2, make([]byte, 256), tree))
			note("allreduce", c.Allreduce(p, mpi.SumU32, make([]byte, 512), make([]byte, 512), tree))
		}},
		{name: "mcast", nodes: 5, body: func(p *sim.Proc, c *mpi.Comm, note func(string, error)) {
			mc := mpi.WithAlgorithm(mpi.Mcast)
			p.Delay(sim.Duration(c.Rank()) * sim.Microsecond)
			note("barrier", c.Barrier(p, mc))
			note("bcast", c.Bcast(p, 1, make([]byte, 256), mc))
		}},
		{name: "nic", nodes: 8, stream: true, body: func(p *sim.Proc, c *mpi.Comm, note func(string, error)) {
			p.Delay(sim.Duration(c.Rank()) * sim.Microsecond)
			note("barrier", c.Barrier(p))
			note("allreduce", c.Allreduce(p, mpi.SumU32, make([]byte, 64), make([]byte, 64)))
			note("allreduce-tree", c.Allreduce(p, mpi.SumU32, make([]byte, 512), make([]byte, 512)))
		}},
		{name: "timeout", nodes: 3, mcfg: quick, want: "timed out", body: func(p *sim.Proc, c *mpi.Comm, note func(string, error)) {
			if c.Rank() == 1 {
				_, err := c.Recv(p, 0, 5, make([]byte, 8))
				note("recv", err)
				_, err = c.Recv(p, 2, 5, make([]byte, 8))
				note("recv", err)
			}
		}},
		{name: "dead-peer", nodes: 4, retry: true, live: true, want: "confirmed dead",
			faults: &fault.Script{Seed: 9, Actions: []fault.Action{
				{At: sim.Time(0).Add(sim.Millisecond), Kind: fault.NodeFail, Node: 3},
			}},
			mcfg: func(c *mpi.Config) { c.WaitTimeout = 100 * sim.Millisecond },
			body: func(p *sim.Proc, c *mpi.Comm, note func(string, error)) {
				switch c.Rank() {
				case 0, 1:
					_, err := c.Recv(p, 3, 5, make([]byte, 8))
					note("recv", err)
				case 2:
					_, err := c.Recv(p, 0, 6, make([]byte, 8))
					note("recv", err)
				}
			}},
		{name: "partition", nodes: 5, retry: true, live: true, want: "minority",
			faults: doubleCut(2*sim.Millisecond, 80*sim.Millisecond),
			mcfg:   func(c *mpi.Config) { c.WaitTimeout = 100 * sim.Millisecond },
			body: func(p *sim.Proc, c *mpi.Comm, note func(string, error)) {
				buf := make([]byte, 8)
				switch c.Rank() {
				case 0: // majority, waiting on the minority
					_, err := c.Recv(p, 2, 5, buf)
					note("recv", err)
				case 1: // majority, served by the quorum after the declaration
					_, err := c.Recv(p, 4, 5, buf)
					note("recv", err)
				case 3: // minority
					_, err := c.Recv(p, 0, 5, buf)
					note("recv", err)
				case 4:
					p.Delay(8 * sim.Millisecond)
					note("send", c.Send(p, 1, 5, buf))
				}
			}},
	}
}

// TestSweepMatchesLoopSweep is the differential battery for the BBP
// Sweeper.
func TestSweepMatchesLoopSweep(t *testing.T) {
	for _, sc := range sweepScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			fast, generic := runSweepScenario(t, sc, false), runSweepScenario(t, sc, true)
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
				if fast.eng[i] != generic.eng[i] {
					t.Fatalf("rank %d MPI stats:\nsweeper %+v\ngeneric %+v", i, fast.eng[i], generic.eng[i])
				}
			}
		})
	}
}
