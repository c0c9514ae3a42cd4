package main

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xport"
)

// optional reports which of the interfaces mpi type-asserts ep has.
func optional(ep xport.Endpoint) [5]bool {
	_, win := ep.(xport.Windowed)
	_, str := ep.(xport.StreamReducer)
	_, live := ep.(liveness.Provider)
	_, part := ep.(liveness.PartitionView)
	_, avail := ep.(availer)
	return [5]bool{win, str, live, part, avail}
}

func TestDecoratorForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	stream := core.DefaultConfig()
	stream.Stream.Enabled = true
	live := liveness.DefaultConfig()
	for _, c := range []struct {
		name string
		opts cluster.Options
	}{
		{"plain myrinet api", cluster.Options{Nodes: 2, Net: cluster.MyrinetAPI}},
		{"plain tcp", cluster.Options{Nodes: 2, Net: cluster.FastEthernet}},
		{"bbp", cluster.Options{Nodes: 2, Net: cluster.SCRAMNet}},
		{"bbp stream", cluster.Options{Nodes: 2, Net: cluster.SCRAMNet, BBP: &stream}},
		{"bbp liveness", cluster.Options{Nodes: 2, Net: cluster.SCRAMNet, Liveness: &live}},
		{"hybrid", cluster.Options{Nodes: 2, Net: cluster.Hybrid}},
		{"hybrid liveness", cluster.Options{Nodes: 2, Net: cluster.Hybrid, Liveness: &live}},
	} {
		k := sim.NewKernel()
		cl, err := cluster.New(k, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, ep := range cl.Endpoints {
			d, err := decorate(ep, newTracer(0))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got, want := optional(d), optional(ep); got != want {
				t.Errorf("%s: decorated %T exposes %v, the endpoint %v", c.name, ep, got, want)
			}
			if lp, ok := ep.(liveness.Provider); ok && d.(liveness.Provider).Liveness() != lp.Liveness() {
				t.Errorf("%s: decorated Liveness() is not the endpoint's view", c.name)
			}
			if sr, ok := ep.(xport.StreamReducer); ok && d.(xport.StreamReducer).StreamMax() != sr.StreamMax() {
				t.Errorf("%s: decorated StreamMax differs", c.name)
			}
		}
		k.RunUntil(0)
		k.Close()
	}
}

// windowedOnly has one optional interface and none of the rest: a shape
// no transport has, which the decorator must refuse rather than fake.
type windowedOnly struct {
	xport.Endpoint
	xport.Windowed
}

func TestDecoratorRejectsUnknownShape(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cl, err := cluster.New(k, cluster.Options{Nodes: 2, Net: cluster.MyrinetAPI})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decorate(windowedOnly{Endpoint: cl.Endpoints[0]}, newTracer(0)); err == nil {
		t.Fatal("decorate accepted an endpoint shape it has no wrapper for")
	}
}

// The zero-copy rendezvous engages only when mpi finds xport.Windowed:
// over decorated endpoints the MPI run must take the windowed path and
// replay the undecorated run's virtual timeline exactly.
func TestDecoratedWindowedRendezvousThroughMPI(t *testing.T) {
	run := func(decorated bool) (sim.Time, [2]mpi.EngineStats, *tracer) {
		k := sim.NewKernel()
		defer k.Close()
		cl, err := cluster.New(k, cluster.Options{Nodes: 2, Net: cluster.SCRAMNet})
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(1 << 10)
		eps := cl.Endpoints
		if decorated {
			eps = make([]xport.Endpoint, len(cl.Endpoints))
			for i, ep := range cl.Endpoints {
				if eps[i], err = decorate(ep, tr); err != nil {
					t.Fatal(err)
				}
			}
		}
		cfg := mpi.DefaultConfig()
		cfg.RndvZeroCopy = true
		w := mpi.NewWorld(eps, cfg)
		const n = 48 << 10
		k.Spawn("send", func(p *sim.Proc) {
			data := make([]byte, n)
			fill(data, 1, 0, 0)
			if err := w.Comm(0).Send(p, 1, 0, data); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("recv", func(p *sim.Proc) {
			buf := make([]byte, n)
			if _, err := w.Comm(1).Recv(p, 0, 0, buf); err != nil {
				t.Error(err)
			}
			if !matches(buf, 1, 0, 0) {
				t.Error("rendezvous payload corrupted")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), [2]mpi.EngineStats{w.Engine(0).Stats(), w.Engine(1).Stats()}, tr
	}
	t0, s0, _ := run(false)
	t1, s1, tr := run(true)
	if s0[0].RndvZeroCopy+s0[1].RndvZeroCopy == 0 {
		t.Fatal("the undecorated run did not take the windowed rendezvous")
	}
	if t0 != t1 || s0 != s1 {
		t.Fatalf("decorated run differs: end %v vs %v, stats %+v vs %+v", t1, t0, s1, s0)
	}
	if tr.xportCalls == 0 || tr.xportNs[xSend] == 0 {
		t.Fatal("the decorator recorded no transport calls")
	}
}
