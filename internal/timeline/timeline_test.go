package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xport/oracle"
)

// runScripted drives the standard 0→1 message stream on a 4-node
// SCRAMNet cluster under an arbitrary fault script, with tracing and
// snapshot streaming on, and returns the observability artifacts. The
// run is oracle-checked.
func runScripted(t *testing.T, script *fault.Script, messages int) (*trace.Recorder, []metrics.StreamPoint) {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	bbp := core.DefaultConfig()
	bbp.Retry = core.DefaultRetryConfig()
	rec := trace.New()
	reg := metrics.New()
	c, err := cluster.New(k, cluster.Options{
		Nodes: 4, Net: cluster.SCRAMNet, BBP: &bbp, Faults: script,
		Metrics: reg, Trace: rec, SnapshotEvery: 100 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New()
	tx, rx := o.Wrap(c.Endpoints[0]), o.Wrap(c.Endpoints[1])
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < messages; i++ {
			msg := make([]byte, 32)
			msg[0] = byte(i + 1)
			if err := tx.Send(p, 1, msg); err != nil {
				panic(err)
			}
			p.Delay(25 * sim.Microsecond)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 33)
		for i := 0; i < messages; i++ {
			if _, err := rx.Recv(p, 0, buf); err != nil {
				panic(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("scripted run %v: %v", script, err)
	}
	if st, err := o.Check(true); err != nil {
		t.Fatalf("scripted run %v violated delivery: %v (%v)", script, err, st)
	}
	var points []metrics.StreamPoint
	if c.Stream != nil {
		points = c.Stream.Points()
	}
	return rec, points
}

// checkSpanTree asserts the structural invariants of the causal span
// stream: unique span ids, no End without its Begin, every consumed
// message rooted in a post, no orphan ACKs, retransmits hanging off
// their message's post span.
func checkSpanTree(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	if d := rec.Drops(); d != 0 {
		t.Fatalf("unbounded recorder reports %d drops", d)
	}
	begun := map[trace.SpanID]trace.Event{}
	posted := map[uint64]bool{}
	consumed := 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.Begin:
			if e.Span == 0 {
				t.Fatalf("Begin event %q with zero span id", e.Name)
			}
			if _, dup := begun[e.Span]; dup {
				t.Fatalf("span id %d begun twice (%q)", e.Span, e.Name)
			}
			begun[e.Span] = e
			if e.Name == "post" {
				posted[e.Msg] = true
			}
		case trace.End:
			if _, ok := begun[e.Span]; !ok {
				t.Fatalf("End event %q closes span %d that never began", e.Name, e.Span)
			}
		}
	}
	for _, e := range rec.Events() {
		switch e.Name {
		case "consume":
			consumed++
			if !posted[e.Msg] {
				t.Fatalf("consume of msg %d:%d has no post ancestor",
					trace.MsgSender(e.Msg), trace.MsgSeq(e.Msg))
			}
			if b := begun[e.Span]; b.Name != "drain" || b.Msg != e.Msg {
				t.Fatalf("consume closes span %d (%q, msg %d), want this msg's drain", e.Span, b.Name, b.Msg)
			}
		case "ack":
			b, ok := begun[e.Parent]
			if !ok || b.Name != "drain" || b.Msg != e.Msg {
				t.Fatalf("orphan ack: parent span %d (%q) is not msg %d's drain", e.Parent, b.Name, e.Msg)
			}
		case "retransmit":
			if e.Kind != trace.Begin {
				continue
			}
			b, ok := begun[e.Parent]
			if !ok || b.Name != "post" || b.Msg != e.Msg {
				t.Fatalf("retransmit of msg %d not parented under its post span", e.Msg)
			}
			if !posted[e.Msg] {
				t.Fatalf("retransmit of never-posted msg %d", e.Msg)
			}
		}
	}
	if consumed == 0 {
		t.Fatal("run traced no consumes at all")
	}
}

func TestSpanTreeIntegrityUnderFaultBattery(t *testing.T) {
	for _, seed := range []uint64{7, 21, 1999} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			script := fault.Generate(seed, fault.GenConfig{
				Horizon:      2 * sim.Millisecond,
				Nodes:        4,
				LossWindows:  2,
				MaxLossRate:  0.3,
				NodeFailures: 1,
				Protect:      []int{0, 1}, // the communicating pair survives
			})
			rec, points := runScripted(t, script, 20)
			checkSpanTree(t, rec)
			if len(points) < 2 {
				t.Fatalf("snapshot stream captured %d points", len(points))
			}
		})
	}
}

func TestSpanTreeIntegrityFaultFree(t *testing.T) {
	rec, _ := runScripted(t, nil, 10)
	checkSpanTree(t, rec)
	// Fault-free: every message delivered without recovery work.
	for _, b := range Breakdowns(rec.Events()) {
		if !b.Delivered || b.Retransmits != 0 {
			t.Fatalf("fault-free message %d:%d delivered=%v retransmits=%d",
				b.Sender, b.Seq, b.Delivered, b.Retransmits)
		}
		if b.Publish() <= 0 || b.Transit() <= 0 || b.Drain() <= 0 {
			t.Fatalf("degenerate breakdown for %d:%d: %+v", b.Sender, b.Seq, b)
		}
		if b.Publish()+b.Transit()+b.Drain() != b.Total() {
			t.Fatalf("segments do not telescope for %d:%d", b.Sender, b.Seq)
		}
		if !b.AckSeen {
			t.Fatalf("message %d:%d consumed without a traced ack", b.Sender, b.Seq)
		}
	}
}

// TestSnapshotStreamDeterminism is the full-stack version of the unit
// test in internal/metrics: the same seeded fault sweep must serialize
// to byte-identical JSONL, run to run (and under -race via make race).
func TestSnapshotStreamDeterminism(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Rate = 0.10
	run := func() []byte {
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := metrics.WritePointsJSONL(&buf, res.Points); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("sweep produced an empty snapshot stream")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different snapshot JSONL (%d vs %d bytes)", len(a), len(b))
	}
}

func TestCoSpikesFlagsRetryStorm(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Rate = 0.15
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("15% loss produced no co-spike interval; the correlator or the streams broke")
	}
	for _, iv := range res.Intervals {
		if iv.DRetrans <= 0 || iv.DBusyNS <= 0 {
			t.Fatalf("flagged interval without both spikes: %v", iv)
		}
		if iv.To <= iv.From {
			t.Fatalf("degenerate interval %v", iv)
		}
	}
	// Fault-free control: no retransmissions, so nothing to flag.
	cfg.Rate = 0
	ctl, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctl.Intervals) != 0 {
		t.Fatalf("fault-free run flagged %d co-spike intervals", len(ctl.Intervals))
	}
}

// TestRunAnatomyAgreesWithCostModel runs the one anatomy scenario over
// the PIO and DMA paths, multicast, RecvAny and a profiled run, and
// requires the trace, the metrics, Stats() and the cost model to agree
// in every row. The negative row is a capped trace that evicts part of
// the traced message: it must be reported, and the same size with an
// unbounded trace must pass.
func TestRunAnatomyAgreesWithCostModel(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     AnatomyConfig
		evicted bool
	}{
		{name: "4B", cfg: AnatomyConfig{Size: 4}},
		{name: "64B", cfg: AnatomyConfig{Size: 64}},
		{name: "256B-dma", cfg: AnatomyConfig{Size: 256}},
		{name: "mcast", cfg: AnatomyConfig{Size: 4, Mcast: true}},
		{name: "recvany", cfg: AnatomyConfig{Size: 4, RecvAny: true}},
		{name: "mcast-1024B", cfg: AnatomyConfig{Size: 1024, Mcast: true}},
		{name: "profiled", cfg: AnatomyConfig{Size: 4, Profiler: sim.NewProfiler()}},
		{name: "4096B-unbounded", cfg: AnatomyConfig{Size: 4096}},
		{name: "4096B-capped", cfg: AnatomyConfig{Size: 4096, TraceCap: 4096}, evicted: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Nodes = 4
			res, err := RunAnatomy(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.evicted {
				if len(res.Mismatches) == 0 || !strings.Contains(res.Mismatches[0], "evicted") {
					t.Fatalf("capped trace: want the possible-eviction mismatch first, got %v", res.Mismatches)
				}
				return
			}
			if len(res.Mismatches) != 0 {
				t.Fatalf("decomposition disagrees with the cost model: %v", res.Mismatches)
			}
			want := 1
			if tc.cfg.Mcast {
				want = tc.cfg.Nodes - 1
			}
			if len(res.Receivers) != want {
				t.Fatalf("%d receiver breakdowns, want %d", len(res.Receivers), want)
			}
			for i, b := range res.Receivers {
				if b.Receiver != i+1 || b.Total() <= 0 || b.Total() > res.OneWay {
					t.Fatalf("receiver %d: post→consume %s outside (0, one-way %s]", b.Receiver, b.Total(), res.OneWay)
				}
			}
		})
	}
}

// TestRunAnatomyPaperScenario pins the default 4-byte unicast: the
// segments cmd/anatomy prints and the one-way latency they sum into.
func TestRunAnatomyPaperScenario(t *testing.T) {
	res, err := RunAnatomy(AnatomyConfig{Size: 4, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Receivers[0]
	got := []sim.Duration{b.Post.Sub(res.Sent), b.Publish(), b.Transit(), b.Drain(), res.OneWay}
	want := []sim.Duration{250, 750, 5500, 800, 7300}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("setup/publish/transit/drain/one-way = %v, want %v", got, want)
		}
	}
	if res.Model.PublishDerivation != "5 wr × 150ns" || res.Model.DrainDerivation != "1 rd × 650ns + 1 wr × 150ns" {
		t.Fatalf("derivations %q / %q", res.Model.PublishDerivation, res.Model.DrainDerivation)
	}
}

func TestBreakdownsFromSyntheticEvents(t *testing.T) {
	rec := trace.New()
	msg := trace.MsgID(2, 7)
	post := rec.BeginSpan(100, trace.BBP, 2, "post", msg, 0, "")
	rec.Emit(150, trace.BBP, 2, "flag-set", msg, post, "")
	rec.EndSpan(160, trace.BBP, 2, "send-end", post, msg, "")
	rt := rec.BeginSpan(300, trace.BBP, 2, "retransmit", msg, post, "")
	rec.EndSpan(320, trace.BBP, 2, "retransmit-end", rt, msg, "")
	rec.Emit(400, trace.BBP, 3, "detect", msg, 0, "")
	drain := rec.BeginSpan(400, trace.BBP, 3, "drain", msg, 0, "")
	rec.Emit(450, trace.BBP, 3, "ack", msg, drain, "")
	rec.EndSpan(460, trace.BBP, 3, "consume", drain, msg, "")
	bds := Breakdowns(rec.Events())
	if len(bds) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bds))
	}
	b := bds[0]
	if b.Sender != 2 || b.Seq != 7 || b.Receiver != 3 {
		t.Fatalf("identity wrong: %+v", b)
	}
	if b.Publish() != 50 || b.Transit() != 250 || b.Drain() != 60 || b.Total() != 360 {
		t.Fatalf("segments wrong: publish=%d transit=%d drain=%d total=%d",
			b.Publish(), b.Transit(), b.Drain(), b.Total())
	}
	if b.Retransmits != 1 || !b.AckSeen {
		t.Fatalf("recovery accounting wrong: %+v", b)
	}
}

func TestCoSpikesMedianBaseline(t *testing.T) {
	reg := metrics.New()
	mk := func(tns int64, retrans, busy int64) metrics.StreamPoint {
		reg.Counter("bbp.retransmits", 0).Add(retrans - mustCounter(reg, "bbp.retransmits"))
		reg.Counter("pci.busy_ns", 0).Add(busy - mustCounter(reg, "pci.busy_ns"))
		return metrics.StreamPoint{T: tns, Snap: reg.Snapshot()}
	}
	// Four windows: busy grows by 100 each, retransmits only in the
	// third — but its busy growth equals the median, so nothing flags.
	pts := []metrics.StreamPoint{
		mk(0, 0, 0), mk(100, 0, 100), mk(200, 0, 200), mk(300, 1, 300), mk(400, 1, 400),
	}
	if ivs := CoSpikes(pts); len(ivs) != 0 {
		t.Fatalf("median-growth window must not flag, got %v", ivs)
	}
	// Now a genuine storm: retransmits and a 5× busy spike together.
	pts = append(pts, mk(500, 4, 900))
	ivs := CoSpikes(pts)
	if len(ivs) != 1 {
		t.Fatalf("want exactly the storm window, got %v", ivs)
	}
	if ivs[0].From != 400 || ivs[0].To != 500 || ivs[0].DRetrans != 3 || ivs[0].DBusyNS != 500 {
		t.Fatalf("wrong interval: %v", ivs[0])
	}
	if CoSpikes(nil) != nil || CoSpikes(pts[:1]) != nil {
		t.Fatal("degenerate inputs must yield no intervals")
	}
}

func mustCounter(reg *metrics.Registry, name string) int64 {
	v, _ := reg.Snapshot().Counter(name, 0)
	return v
}

func TestChromeTraceExport(t *testing.T) {
	res, err := RunAnatomy(AnatomyConfig{Size: 4, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, res.Rec); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  string         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	spans, instants := 0, 0
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		if e.Tid == "" {
			t.Fatalf("event %q missing tid", e.Name)
		}
		if i > 0 && e.Ts < doc.TraceEvents[i-1].Ts {
			t.Fatal("events not time-sorted")
		}
	}
	if want := len(res.Rec.Spans()); spans != want {
		t.Fatalf("exported %d X events, recorder has %d spans", spans, want)
	}
	if instants == 0 {
		t.Fatal("no instant events exported")
	}
}
