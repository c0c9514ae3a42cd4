package cluster_test

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// run executes one 4-node SCRAMNet ping-pong, optionally instrumented
// and optionally faulted, and returns the one-way latency plus the
// registry's snapshot.
func run(t *testing.T, n int, m *metrics.Registry, script *fault.Script) (float64, metrics.Snapshot) {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, Metrics: m, Faults: script})
	if err != nil {
		t.Fatal(err)
	}
	return bench.PingPong(k, c.Endpoints[0], c.Endpoints[1], n), m.Snapshot()
}

// TestMetricsDeterministicAcrossRuns: two identical simulation runs
// must produce byte-identical snapshot renderings — counters included,
// not just latencies.
func TestMetricsDeterministicAcrossRuns(t *testing.T) {
	var renders [2]bytes.Buffer
	for i := range renders {
		m := metrics.New()
		lat, snap := run(t, 64, m, nil)
		if lat <= 0 {
			t.Fatal("ping-pong returned non-positive latency")
		}
		snap.Render(&renders[i])
		snap.Rollup().Render(&renders[i])
	}
	if !bytes.Equal(renders[0].Bytes(), renders[1].Bytes()) {
		t.Fatalf("identical runs rendered different metrics:\n%s\n---\n%s",
			renders[0].String(), renders[1].String())
	}
}

// TestMetricsChargeNoVirtualTime: an instrumented run must reproduce
// the uninstrumented latency exactly — instruments never call Delay.
func TestMetricsChargeNoVirtualTime(t *testing.T) {
	for _, n := range []int{0, 64, 1024} {
		plain, _ := run(t, n, nil, nil)
		inst, _ := run(t, n, metrics.New(), nil)
		if plain != inst {
			t.Errorf("%d B: instrumented latency %v µs != uninstrumented %v µs", n, inst, plain)
		}
	}
}

// TestMetricsCrossLayerConsistency checks invariants that tie layers
// together: BBP sends equal recvs in a ping-pong, packets applied are
// (nodes-1) times packets injected on a healthy 4-node ring, and every
// layer reported in.
func TestMetricsCrossLayerConsistency(t *testing.T) {
	m := metrics.New()
	_, snap := run(t, 64, m, nil)
	up := snap.Rollup()
	sends, _ := up.Counter("bbp.sends", metrics.NodeGlobal)
	recvs, _ := up.Counter("bbp.recvs", metrics.NodeGlobal)
	if sends == 0 || sends != recvs {
		t.Errorf("bbp sends=%d recvs=%d, want equal and positive", sends, recvs)
	}
	inj, _ := up.Counter("ring.packets_injected", metrics.NodeGlobal)
	app, _ := up.Counter("ring.packets_applied", metrics.NodeGlobal)
	if inj == 0 || app != 3*inj {
		t.Errorf("ring injected=%d applied=%d, want applied = 3*injected", inj, app)
	}
	hops, _ := up.Counter("ring.hops", metrics.NodeGlobal)
	if hops != 4*inj {
		t.Errorf("ring hops=%d, want 4*injected=%d (every packet circles home)", hops, 4*inj)
	}
	reads, _ := up.Counter("pci.pio_read_words", metrics.NodeGlobal)
	writes, _ := up.Counter("pci.pio_write_words", metrics.NodeGlobal)
	if reads == 0 || writes == 0 {
		t.Errorf("pci reads=%d writes=%d, want both positive", reads, writes)
	}
	if reads <= writes {
		t.Errorf("pci reads=%d <= writes=%d; polling reads should dominate (§7)", reads, writes)
	}
	h, ok := up.Histogram("bbp.msg_size_bytes", metrics.NodeGlobal)
	if !ok || h.Count != sends || h.Max != 64 {
		t.Errorf("msg size histogram = %+v, want count=%d max=64", h, sends)
	}
}

// TestMetricsCountInjectedFaults: a scripted node failure and repair
// must surface in the fault and ring counters.
func TestMetricsCountInjectedFaults(t *testing.T) {
	script := &fault.Script{Seed: 7, Actions: []fault.Action{
		{At: sim.Time(0).Add(5 * sim.Microsecond), Kind: fault.NodeFail, Node: 3},
		{At: sim.Time(0).Add(40 * sim.Microsecond), Kind: fault.NodeRepair, Node: 3},
	}}
	m := metrics.New()
	_, snap := run(t, 16, m, script)
	if ev, _ := snap.Counter("fault.injected_events", metrics.NodeGlobal); ev != 2 {
		t.Errorf("fault.injected_events = %d, want 2", ev)
	}
	if v, _ := snap.Counter("fault.injected_node-fail", 3); v != 1 {
		t.Errorf("fault.injected_node-fail node3 = %d, want 1", v)
	}
	if v, _ := snap.Counter("ring.node_fails", metrics.NodeGlobal); v != 1 {
		t.Errorf("ring.node_fails = %d, want 1", v)
	}
	if v, _ := snap.Counter("ring.node_repairs", metrics.NodeGlobal); v != 1 {
		t.Errorf("ring.node_repairs = %d, want 1", v)
	}
}

// TestMetricsMPIWorld wires a registry into an MPI world by hand and
// checks the protocol counters fire, including the eager/rendezvous
// split and the unexpected-queue high-water mark.
func TestMetricsMPIWorld(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	m := metrics.New()
	_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, 4)
	if err != nil {
		t.Fatal(err)
	}
	w.SetMetrics(m)
	small := make([]byte, 16)
	large := make([]byte, 32<<10) // over EagerMax: rendezvous
	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		buf := make([]byte, 33<<10)
		switch c.Rank() {
		case 0:
			// Tag 0 goes out first; rank 1 waits on tag 1, so the tag-0
			// eager message lands in its unexpected queue.
			if err := c.Send(p, 1, 0, small); err != nil {
				t.Error(err)
			}
			if err := c.Send(p, 1, 1, small); err != nil {
				t.Error(err)
			}
			if err := c.Send(p, 1, 2, large); err != nil {
				t.Error(err)
			}
		case 1:
			for _, tag := range []int{1, 0, 2} {
				if _, err := c.Recv(p, 0, tag, buf); err != nil {
					t.Error(err)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	up := snap.Rollup()
	eager, _ := up.Counter("mpi.eager_sent", metrics.NodeGlobal)
	rndv, _ := up.Counter("mpi.rndv_sent", metrics.NodeGlobal)
	recvd, _ := up.Counter("mpi.received", metrics.NodeGlobal)
	if eager != 2 || rndv != 1 || recvd != 3 {
		t.Errorf("mpi eager=%d rndv=%d received=%d, want 2/1/3", eager, rndv, recvd)
	}
	unexp, _ := up.Counter("mpi.unexpected_msgs", metrics.NodeGlobal)
	if unexp == 0 {
		t.Error("expected the delayed receiver to queue unexpected messages")
	}
	depth, ok := up.Gauge("mpi.unexpected_depth", metrics.NodeGlobal)
	if !ok || depth.Max < 1 {
		t.Errorf("unexpected-queue high-water = %+v, want max >= 1", depth)
	}
}

// TestMetricsInstalledAfterTraffic installs a registry on an MPI world
// only after its traffic has run: the bound mpi.* counters must report
// every EngineStats total since the engines were built, not zero.
func TestMetricsInstalledAfterTraffic(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	_, w, err := cluster.NewMPIWorld(k, cluster.SCRAMNet, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		buf := make([]byte, 32<<10)
		for _, data := range [][]byte{make([]byte, 16), buf} { // eager, then rendezvous
			var err error
			if c.Rank() == 0 {
				err = c.Send(p, 1, 0, data)
			} else {
				_, err = c.Recv(p, 0, 0, buf)
			}
			if err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	m := metrics.New()
	w.SetMetrics(m)
	snap := m.Snapshot()
	for r := 0; r < 2; r++ {
		s := w.Engine(r).Stats()
		for _, pair := range []struct {
			name string
			stat int64
		}{
			{"mpi.eager_sent", s.EagerSent},
			{"mpi.rndv_sent", s.RndvSent},
			{"mpi.received", s.Received},
			{"mpi.unexpected_msgs", s.UnexpectedMsgs},
			{"mpi.chunks_sent", s.ChunksSent},
			{"mpi.rndv_zero_copy", s.RndvZeroCopy},
			{"mpi.window_stalls", s.WindowStalls},
			{"mpi.stream_allreduces", s.StreamAllreduces},
			{"mpi.stream_fallbacks", s.StreamFallbacks},
			{"mpi.nic_barriers", s.NICBarriers},
			{"mpi.coll_replans", s.CollReplans},
			{"mpi.partition_errors", s.PartitionErrors},
		} {
			if got, ok := snap.Counter(pair.name, r); !ok || got != pair.stat {
				t.Errorf("rank %d %s = %d (present %v), EngineStats = %d", r, pair.name, got, ok, pair.stat)
			}
		}
		if s.EagerSent+s.RndvSent+s.Received == 0 {
			t.Errorf("rank %d: no MPI traffic counted", r)
		}
	}
}
