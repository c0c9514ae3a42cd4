package fault_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/xport"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := fault.GenConfig{
		Horizon:      10 * sim.Millisecond,
		Nodes:        4,
		LossWindows:  3,
		MaxLossRate:  0.5,
		NodeFailures: 2,
		Protect:      []int{0, 1},
	}
	a := fault.Generate(42, cfg)
	b := fault.Generate(42, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different scripts:\n%v\n%v", a, b)
	}
	c := fault.Generate(43, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical scripts: %v", a)
	}
	if len(a.Actions) != 2*cfg.LossWindows+2*cfg.NodeFailures {
		t.Fatalf("got %d actions, want %d", len(a.Actions), 2*cfg.LossWindows+2*cfg.NodeFailures)
	}
	for i, act := range a.Actions {
		if i > 0 && act.At < a.Actions[i-1].At {
			t.Fatalf("actions not time-sorted at %d: %v", i, a)
		}
		if (act.Kind == fault.NodeFail || act.Kind == fault.NodeRepair) && (act.Node == 0 || act.Node == 1) {
			t.Fatalf("protected node failed: %+v", act)
		}
		if act.At > sim.Time(0).Add(2*cfg.Horizon) {
			t.Fatalf("action beyond horizon: %+v", act)
		}
	}
	if a.MaxLoss() <= 0 || a.MaxLoss() > cfg.MaxLossRate {
		t.Fatalf("MaxLoss %v outside (0, %v]", a.MaxLoss(), cfg.MaxLossRate)
	}
}

func TestFlapScript(t *testing.T) {
	period := 2 * sim.Millisecond
	s := fault.Flap(3, period, 4)
	if len(s.Actions) != 8 {
		t.Fatalf("got %d actions, want 8", len(s.Actions))
	}
	for k := 0; k < 4; k++ {
		down, up := s.Actions[2*k], s.Actions[2*k+1]
		wantDown := sim.Time(0).Add(sim.Duration(k+1) * period)
		if down.Kind != fault.NodeFail || down.Node != 3 || down.At != wantDown {
			t.Fatalf("cycle %d fail action wrong: %+v", k, down)
		}
		if up.Kind != fault.NodeRepair || up.Node != 3 || up.At != wantDown.Add(period/2) {
			t.Fatalf("cycle %d repair action wrong: %+v", k, up)
		}
	}
	if s.MaxLoss() != 0 {
		t.Fatalf("flap script opens loss windows: %v", s)
	}
	if !reflect.DeepEqual(s, fault.Flap(3, period, 4)) {
		t.Fatal("Flap is not deterministic")
	}
}

func TestApplyDrivesRing(t *testing.T) {
	k := sim.NewKernel()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet})
	if err != nil {
		t.Fatal(err)
	}
	s := &fault.Script{Seed: 7, Actions: []fault.Action{
		{At: sim.Time(0).Add(1 * sim.Millisecond), Kind: fault.NodeFail, Node: 2},
		{At: sim.Time(0).Add(3 * sim.Millisecond), Kind: fault.NodeRepair, Node: 2},
	}}
	s.Apply(k, fault.Ring(c.Ring), nil, nil)
	k.RunFor(2 * sim.Millisecond)
	if c.Ring.NIC(2).LinkUp() {
		t.Fatal("node 2 not bypassed after NodeFail action")
	}
	k.RunFor(2 * sim.Millisecond)
	if !c.Ring.NIC(2).LinkUp() {
		t.Fatal("node 2 still bypassed after NodeRepair action")
	}
	k.Close()
}

func TestFabricWrapperDropsAndStats(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	san, err := xport.NewSwitch(k, myrinet.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	ff := fault.NewFabric(k, san, 1)
	m := metrics.New()
	ff.SetMetrics(m)
	var got int
	ff.SetHandler(1, func(src int, frame []byte) { got++ })

	send := func() {
		ff.Transmit(0, 1, []byte{1, 2, 3, 4})
		k.Run()
	}
	send()
	if got != 1 || ff.Stats().Forwarded != 1 {
		t.Fatalf("fault-free frame not forwarded: got=%d stats=%+v", got, ff.Stats())
	}
	ff.SetLossRate(1.0)
	send()
	if got != 1 || ff.Stats().DroppedLoss != 1 {
		t.Fatalf("full-loss frame not dropped: got=%d stats=%+v", got, ff.Stats())
	}
	ff.SetLossRate(0)
	ff.FailNode(1)
	send()
	if got != 1 || ff.Stats().DroppedDown != 1 {
		t.Fatalf("frame to failed node not dropped: got=%d stats=%+v", got, ff.Stats())
	}
	ff.RepairNode(1)
	send()
	if got != 2 {
		t.Fatal("frame after repair not delivered")
	}
	// Two more losses make every count distinct (2 forwarded, 1 down,
	// 3 lost); each fault.frames_* counter reads its FabricStats field.
	ff.SetLossRate(1.0)
	send()
	send()
	st, snap := ff.Stats(), m.Snapshot()
	for _, b := range []struct {
		name string
		stat int64
	}{
		{"fault.frames_dropped_loss", st.DroppedLoss},
		{"fault.frames_dropped_down", st.DroppedDown},
		{"fault.frames_forwarded", st.Forwarded},
	} {
		if v, _ := snap.Counter(b.name, metrics.NodeGlobal); v != b.stat {
			t.Errorf("%s = %d, FabricStats = %d (%+v)", b.name, v, b.stat, st)
		}
	}
	if st.DroppedLoss != 3 || st.DroppedDown != 1 || st.Forwarded != 2 {
		t.Errorf("stats = %+v, want 3 lost, 1 down, 2 forwarded", st)
	}
}

// runFaultedBBP drives a fixed workload over a lossy SCRAMNet ring with
// the BBP retry extension enabled and returns the bytes delivered, in
// order, plus the sender's final stats.
func runFaultedBBP(t *testing.T, script *fault.Script) ([]byte, core.Stats) {
	t.Helper()
	k := sim.NewKernel()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, BBP: &bbp, Faults: script})
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 30
	var delivered []byte
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			payload := bytes.Repeat([]byte{byte(i + 1)}, 24)
			if err := c.Endpoints[0].Send(p, 1, payload); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			p.Delay(40 * sim.Microsecond)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		for i := 0; i < msgs; i++ {
			n, err := c.Endpoints[1].Recv(p, 0, buf)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			delivered = append(delivered, buf[:n]...)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return delivered, c.Endpoints[0].(*core.Endpoint).Stats()
}

func TestScriptReplayIsBitIdentical(t *testing.T) {
	script := &fault.Script{Seed: 1234, Actions: []fault.Action{
		{At: sim.Time(0).Add(100 * sim.Microsecond), Kind: fault.LossStart, Rate: 0.15},
		{At: sim.Time(0).Add(600 * sim.Microsecond), Kind: fault.LossStop},
	}}
	a, statsA := runFaultedBBP(t, script)
	b, statsB := runFaultedBBP(t, script)
	if !bytes.Equal(a, b) {
		t.Fatalf("two replays of the same script diverged: %d vs %d bytes", len(a), len(b))
	}
	if statsA != statsB {
		t.Fatalf("replay stats diverged:\n%+v\n%+v", statsA, statsB)
	}
	if statsA.Retransmits == 0 {
		t.Fatalf("loss window injected but no retransmissions occurred: %+v", statsA)
	}
	var want []byte
	for i := 0; i < 30; i++ {
		want = append(want, bytes.Repeat([]byte{byte(i + 1)}, 24)...)
	}
	if !bytes.Equal(a, want) {
		t.Fatalf("delivered bytes differ from the sent workload: got %d bytes, want %d", len(a), len(want))
	}
}

func TestGenerateLinkCuts(t *testing.T) {
	cfg := fault.GenConfig{
		Horizon:      10 * sim.Millisecond,
		Nodes:        4,
		NodeFailures: 2,
		LinkCuts:     3,
	}
	s := fault.Generate(99, cfg)
	if err := s.Validate(); err != nil {
		t.Fatalf("generated script invalid: %v\n%v", err, s)
	}
	cuts, splices := 0, 0
	for _, a := range s.Actions {
		switch a.Kind {
		case fault.LinkCut:
			cuts++
		case fault.LinkSplice:
			splices++
		}
		if (a.Kind == fault.LinkCut || a.Kind == fault.LinkSplice) && (a.Node < 0 || a.Node >= cfg.Nodes) {
			t.Fatalf("segment out of range: %+v", a)
		}
	}
	if cuts != cfg.LinkCuts || splices != cfg.LinkCuts {
		t.Fatalf("got %d cuts / %d splices, want %d each", cuts, splices, cfg.LinkCuts)
	}
	// Adding link cuts must not change the failure schedule the same
	// seed produced without them (seeded tests elsewhere rely on it).
	plain := fault.Generate(99, fault.GenConfig{Horizon: cfg.Horizon, Nodes: cfg.Nodes, NodeFailures: cfg.NodeFailures})
	var fails, wantFails []fault.Action
	for _, a := range s.Actions {
		if a.Kind == fault.NodeFail || a.Kind == fault.NodeRepair {
			fails = append(fails, a)
		}
	}
	wantFails = append(wantFails, plain.Actions...)
	for i := range wantFails {
		if wantFails[i].Kind == fault.LossStart || wantFails[i].Kind == fault.LossStop {
			t.Fatalf("unexpected loss action in failure-only script: %+v", wantFails[i])
		}
	}
	if !reflect.DeepEqual(fails, wantFails) {
		t.Fatalf("link cuts perturbed the failure schedule:\n%v\n%v", fails, wantFails)
	}
}

// TestGenerateAlwaysValid is the ordering property the validator
// enforces at build time: for any seed, Generate's schedules never
// repair before failing, never splice an intact segment, and never
// stack overlapping windows on one target.
func TestGenerateAlwaysValid(t *testing.T) {
	cfg := fault.GenConfig{
		Horizon:      5 * sim.Millisecond,
		Nodes:        5,
		LossWindows:  2,
		MaxLossRate:  0.3,
		NodeFailures: 4,
		LinkCuts:     4,
	}
	for seed := uint64(0); seed < 64; seed++ {
		if err := fault.Generate(seed, cfg).Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestValidateRejectsBadScripts(t *testing.T) {
	at := func(d sim.Duration) sim.Time { return sim.Time(0).Add(d) }
	bad := []fault.Script{
		{Actions: []fault.Action{ // repair before fail
			{At: at(1 * sim.Millisecond), Kind: fault.NodeRepair, Node: 2},
			{At: at(2 * sim.Millisecond), Kind: fault.NodeFail, Node: 2},
		}},
		{Actions: []fault.Action{ // double fail, no repair between
			{At: at(1 * sim.Millisecond), Kind: fault.NodeFail, Node: 1},
			{At: at(2 * sim.Millisecond), Kind: fault.NodeFail, Node: 1},
		}},
		{Actions: []fault.Action{ // splice an intact segment
			{At: at(1 * sim.Millisecond), Kind: fault.LinkSplice, Node: 0},
		}},
		{Actions: []fault.Action{ // double cut of one segment
			{At: at(1 * sim.Millisecond), Kind: fault.LinkCut, Node: 3},
			{At: at(2 * sim.Millisecond), Kind: fault.LinkCut, Node: 3},
		}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad script %d accepted: %v", i, &s)
		}
	}
	good := fault.Script{Actions: []fault.Action{
		{At: at(1 * sim.Millisecond), Kind: fault.LinkCut, Node: 3},
		{At: at(2 * sim.Millisecond), Kind: fault.LinkSplice, Node: 3},
		{At: at(3 * sim.Millisecond), Kind: fault.LinkCut, Node: 3},
		{At: at(4 * sim.Millisecond), Kind: fault.LinkSplice, Node: 3},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("cut/splice cycle rejected: %v", err)
	}
}

func TestScriptStringCoversLinkActions(t *testing.T) {
	s := &fault.Script{Seed: 5, Actions: []fault.Action{
		{At: sim.Time(0).Add(1 * sim.Millisecond), Kind: fault.LinkCut, Node: 2},
		{At: sim.Time(0).Add(2 * sim.Millisecond), Kind: fault.LinkSplice, Node: 2},
	}}
	str := s.String()
	if !strings.Contains(str, "link-cut") || !strings.Contains(str, "link-splice") {
		t.Fatalf("String() misses link actions: %q", str)
	}
	if !strings.Contains(str, "seg 2") {
		t.Fatalf("String() misses the segment number: %q", str)
	}
}

// TestApplyLinkActionsDriveRing checks the LinkTarget plumbing end to
// end on a real ring, and that a fabric (which has no link segments)
// skips the same actions without counting them as injected.
func TestApplyLinkActionsDriveRing(t *testing.T) {
	k := sim.NewKernel()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet})
	if err != nil {
		t.Fatal(err)
	}
	s := &fault.Script{Seed: 7, Actions: []fault.Action{
		{At: sim.Time(0).Add(1 * sim.Millisecond), Kind: fault.LinkCut, Node: 1},
		{At: sim.Time(0).Add(3 * sim.Millisecond), Kind: fault.LinkSplice, Node: 1},
	}}
	s.Apply(k, fault.Ring(c.Ring), nil, nil)
	k.RunFor(2 * sim.Millisecond)
	if !c.Ring.LinkCut(1) {
		t.Fatal("segment 1 not cut after LinkCut action")
	}
	k.RunFor(2 * sim.Millisecond)
	if c.Ring.LinkCut(1) {
		t.Fatal("segment 1 still cut after LinkSplice action")
	}
	k.Close()

	// Fabrics have no ring segments: link actions are skipped.
	k2 := sim.NewKernel()
	defer k2.Close()
	san, err := xport.NewSwitch(k2, myrinet.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	ff := fault.NewFabric(k2, san, 1)
	s.Apply(k2, ff, nil, nil)
	k2.RunFor(5 * sim.Millisecond)
	// Nothing to assert on the fabric beyond not panicking; frames
	// still flow.
	var got int
	ff.SetHandler(1, func(src int, frame []byte) { got++ })
	ff.Transmit(0, 1, []byte{9})
	k2.Run()
	if got != 1 {
		t.Fatal("fabric stopped forwarding after skipped link actions")
	}
}
