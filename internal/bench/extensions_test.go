package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestBandwidthShape(t *testing.T) {
	// §7: "SCRAMNet has low latency, but it does not have high
	// bandwidth" — streaming throughput must plateau at the fixed-mode
	// ring rate while the other networks keep scaling.
	scr := Throughput(cluster.SCRAMNet, 16384, 16)
	if scr < 5.8 || scr > 7.0 {
		t.Errorf("SCRAMNet streaming = %.2f MB/s, want ≈6.5 (ring-limited)", scr)
	}
	fe := Throughput(cluster.FastEthernet, 16384, 16)
	if fe < 9 || fe > 12.6 {
		t.Errorf("Fast Ethernet streaming = %.2f MB/s, want ≈11 (wire-limited)", fe)
	}
	myr := Throughput(cluster.MyrinetAPI, 16384, 16)
	if myr < 40 {
		t.Errorf("Myrinet API streaming = %.2f MB/s, want ≫ SCRAMNet", myr)
	}
	if !(scr < fe && fe < myr) {
		t.Errorf("bandwidth ordering broken: scr=%.1f fe=%.1f myr=%.1f", scr, fe, myr)
	}
}

func TestBandwidthGrowsWithMessageSize(t *testing.T) {
	small := Throughput(cluster.FastEthernet, 256, 16)
	large := Throughput(cluster.FastEthernet, 16384, 16)
	if large <= small {
		t.Errorf("per-message overheads should amortize: %.2f vs %.2f MB/s", small, large)
	}
}

func TestBarrierScalingShape(t *testing.T) {
	mcast, tree := BarrierScaling([]int{2, 8, 16})
	for i := range mcast.X {
		if mcast.Y[i] >= tree.Y[i] {
			t.Errorf("%d nodes: mcast barrier %.1fµs not below tree %.1fµs", mcast.X[i], mcast.Y[i], tree.Y[i])
		}
	}
	// Both grow with size, but the multicast release keeps the gap wide.
	if mcast.Y[2] <= mcast.Y[0] || tree.Y[2] <= tree.Y[0] {
		t.Error("barrier latency should grow with cluster size")
	}
	if ratio := tree.Y[2] / mcast.Y[2]; ratio < 2 {
		t.Errorf("16-node tree/mcast ratio %.1f, want ≥2", ratio)
	}
}

func TestBcastScalingNearFlat(t *testing.T) {
	// The single-step multicast should grow far slower with fanout than
	// the binomial tree (§3: "potentially, all the receivers could
	// receive the multicast message simultaneously").
	mcast, tree := BcastScaling([]int{2, 16}, 256)
	mGrowth := mcast.Y[1] / mcast.Y[0]
	tGrowth := tree.Y[1] / tree.Y[0]
	if mGrowth >= tGrowth {
		t.Errorf("mcast growth %.2fx not below tree growth %.2fx", mGrowth, tGrowth)
	}
	if mGrowth > 2.2 {
		t.Errorf("mcast bcast grew %.2fx from 2 to 16 nodes; should be near-flat", mGrowth)
	}
}

func TestHierarchyPingPongPenaltyBounded(t *testing.T) {
	flat := OneWayAPI(cluster.SCRAMNet, 4)
	hier := HierarchyPingPong(2, 2, 4)
	if hier <= flat {
		t.Errorf("hierarchy latency %.2fµs not above flat %.2fµs", hier, flat)
	}
	if hier > 2.5*flat {
		t.Errorf("hierarchy latency %.2fµs implausibly high (flat %.2fµs)", hier, flat)
	}
	// Deeper hierarchies cost more.
	deep := HierarchyPingPong(4, 4, 4)
	if deep <= hier {
		t.Errorf("4x4 hierarchy %.2fµs not above 2x2 %.2fµs", deep, hier)
	}
}

func TestIncastScalesWithSenders(t *testing.T) {
	one := Incast(cluster.Options{Nodes: 2, Net: cluster.SCRAMNet}, 256)
	many := Incast(cluster.Options{Nodes: 8, Net: cluster.SCRAMNet}, 256)
	if many <= one {
		t.Errorf("7-way incast %.1fµs not above 1-way %.1fµs", many, one)
	}
	// The receiver consumes sequentially: with 7 senders, completion
	// should take several single-message times but benefit from overlap
	// (all messages are already posted on the billboard).
	if many > 7*one {
		t.Errorf("7-way incast %.1fµs worse than fully serialized 7x%.1fµs", many, one)
	}
	feOne := Incast(cluster.Options{Nodes: 2, Net: cluster.FastEthernet}, 256)
	feMany := Incast(cluster.Options{Nodes: 8, Net: cluster.FastEthernet}, 256)
	if feMany <= feOne {
		t.Errorf("FE incast did not scale: %.1f vs %.1f", feMany, feOne)
	}
}

func TestFigureGeneratorsSmoke(t *testing.T) {
	// Every figure generator produces well-formed, positive series for
	// a minimal size axis (full axes are exercised by cmd/figures).
	if testing.Short() {
		t.Skip("figure generation is slow")
	}
	sizes := []int{0, 64}
	check := func(name string, ss []Series, wantSeries int) {
		t.Helper()
		if len(ss) != wantSeries {
			t.Fatalf("%s: %d series, want %d", name, len(ss), wantSeries)
		}
		for _, s := range ss {
			if len(s.X) != len(sizes) || len(s.Y) != len(sizes) {
				t.Fatalf("%s/%s: %d points", name, s.Label, len(s.Y))
			}
			for i, y := range s.Y {
				if y <= 0 {
					t.Fatalf("%s/%s: non-positive latency %f at %d B", name, s.Label, y, s.X[i])
				}
			}
			if s.Y[1] <= s.Y[0] {
				t.Errorf("%s/%s: latency not increasing with size", name, s.Label)
			}
		}
	}
	check("Fig1", Fig1(sizes), 2)
	check("Fig2", Fig2(sizes), 5)
	check("Fig3", Fig3(sizes), 3)
	check("Fig4", Fig4(sizes), 2)
	check("Fig5", Fig5(sizes), 3)
	rows := Fig6()
	if len(rows) != 8 {
		t.Fatalf("Fig6: %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Microus <= 0 {
			t.Fatalf("Fig6 %s/%d: %f µs", r.Config, r.Nodes, r.Microus)
		}
	}
	bw := FigBandwidth([]int{1024})
	if len(bw) != 4 || bw[0].Y[0] <= 0 {
		t.Fatalf("FigBandwidth malformed: %+v", bw)
	}
}

func TestRenderers(t *testing.T) {
	ss := []Series{{Label: "a", X: []int{0, 4}, Y: []float64{1.5, 2.5}}}
	var tbl, csv, scal strings.Builder
	RenderSeries(&tbl, "T", ss)
	if !strings.Contains(tbl.String(), "1.5µs") || !strings.Contains(tbl.String(), "bytes") {
		t.Errorf("table output malformed:\n%s", tbl.String())
	}
	RenderCSV(&csv, ss)
	want := "bytes,a\n0,1.50\n4,2.50\n"
	if csv.String() != want {
		t.Errorf("csv = %q, want %q", csv.String(), want)
	}
	RenderScaling(&scal, "S", ss)
	if !strings.Contains(scal.String(), "nodes") {
		t.Errorf("scaling output malformed:\n%s", scal.String())
	}
	var f6 strings.Builder
	RenderFig6(&f6, []Fig6Row{{"cfg", 3, 12.5}})
	if !strings.Contains(f6.String(), "12.5µs") {
		t.Errorf("fig6 output malformed:\n%s", f6.String())
	}
}

// TestMessageRateIsStreamTime: the rate is the message count over the
// StreamTime of rank 0 streaming to rank Nodes−1 on the same testbed.
func TestMessageRateIsStreamTime(t *testing.T) {
	opts := cluster.Options{Nodes: 4, Net: cluster.SCRAMNet}
	rate := MessageRate(opts, 4, 16)
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := StreamTime(k, c.Endpoints[0], c.Endpoints[3], 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if want := 16 / (float64(elapsed) / 1e9); rate != want {
		t.Errorf("MessageRate = %.3f msg/s, StreamTime gives %.3f", rate, want)
	}
}

// TestMPIBarrierWindow: with one measured round the latency is exactly
// the reported window, more rounds average over a longer one, and an
// instrumented NIC run measures what a bare one does (MPIBarrier
// itself panics unless every barrier of every rank took the NIC path).
func TestMPIBarrierWindow(t *testing.T) {
	bare := cluster.Options{Nodes: 4, Net: cluster.SCRAMNet}
	for _, impl := range []BarrierImpl{BarrierP2P, BarrierNative, BarrierNIC} {
		one := MPIBarrier(bare, impl, 1)
		if one.Start <= 0 || one.End <= one.Start || one.Us != one.End.Sub(one.Start).Microseconds() {
			t.Errorf("impl %d: one round measured %.3fµs over [%v, %v]", impl, one.Us, one.Start, one.End)
		}
		three := MPIBarrier(bare, impl, 3)
		if three.Start != one.Start || three.End <= one.End {
			t.Errorf("impl %d: three rounds span [%v, %v], one round [%v, %v]", impl, three.Start, three.End, one.Start, one.End)
		}
	}
	m := metrics.New()
	instrumented := bare
	instrumented.Metrics = m
	if got, want := MPIBarrier(instrumented, BarrierNIC, 2), MPIBarrier(bare, BarrierNIC, 2); got != want {
		t.Errorf("instrumented NIC barrier %+v, bare %+v", got, want)
	}
	if n, _ := m.Snapshot().Rollup().Counter("pci.busy_ns", metrics.NodeGlobal); n == 0 {
		t.Error("the registry saw no bus time; the options did not reach the testbed")
	}
}
