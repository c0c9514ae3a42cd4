package timeline

import (
	"testing"

	"repro/internal/trace"
)

// soakCfg is a soak-length fault-battery sweep: enough messages that a
// capped recorder must evict early history, under a lossy ring so the
// retry machinery exercises the ack/retransmit hops too. The cap sits
// between the 1-in-8 sampled event volume (~10k, which must fit) and
// the unsampled volume (~42k, which must not).
func soakCfg(sampleEvery int) SweepConfig {
	cfg := DefaultSweepConfig()
	cfg.Messages = 200
	cfg.Rate = 0.05
	cfg.TraceCap = 12000
	cfg.SampleEvery = sampleEvery
	return cfg
}

// TestSamplingKeepsCompleteSpanTrees is the PR's acceptance test: on a
// soak-length run where the unsampled recorder has evicted its early
// history (old messages survive only as incomplete breakdowns), the
// sampled recorder retains *complete* span trees for every sampled id
// — including the very first message of the run — and unsampled ids
// are absent by design, not dropped.
func TestSamplingKeepsCompleteSpanTrees(t *testing.T) {
	// Baseline: no sampler. The cap must have evicted early events.
	base, err := RunSweep(soakCfg(0))
	if err != nil {
		t.Fatalf("unsampled sweep: %v", err)
	}
	if base.Rec.Drops() == 0 {
		t.Fatalf("soak too short: unsampled recorder never hit the %d-event cap", soakCfg(0).TraceCap)
	}
	incomplete := 0
	for _, b := range base.Breakdowns {
		if !(b.Posted && b.Flagged && b.Detected && b.Delivered) {
			incomplete++
		}
	}
	if incomplete == 0 {
		t.Fatal("unsampled soak kept every span tree complete; eviction pressure missing")
	}

	// Sampled: every 8th message id. Same workload, same faults.
	const every = 8
	res, err := RunSweep(soakCfg(every))
	if err != nil {
		t.Fatalf("sampled sweep: %v", err)
	}
	rec := res.Rec
	if rec.SamplerDrops() == 0 {
		t.Fatal("sampler filtered nothing")
	}
	if rec.Drops() != 0 {
		t.Errorf("sampled run still evicted %d events by capacity; cap no longer bounds the sampled set", rec.Drops())
	}

	// Every breakdown present must be a sampled id with a complete tree.
	seen := map[uint64]bool{}
	for _, b := range res.Breakdowns {
		seen[b.Msg] = true
		if !rec.Sampled(b.Msg) {
			t.Errorf("unsampled id %d:%d has traced events", b.Sender, b.Seq)
		}
		if !(b.Posted && b.Flagged && b.Detected && b.Delivered) {
			t.Errorf("sampled id %d:%d incomplete: posted=%v flagged=%v detected=%v delivered=%v",
				b.Sender, b.Seq, b.Posted, b.Flagged, b.Detected, b.Delivered)
		}
		if !b.AckSeen {
			t.Errorf("sampled id %d:%d missing its ack hop", b.Sender, b.Seq)
		}
	}
	// The very first message — long evicted in the baseline — is intact,
	// and every sampled data message of the run is present.
	for seq := uint32(1); seq <= uint32(soakCfg(every).Messages); seq += every {
		if !seen[trace.MsgID(0, seq)] {
			t.Errorf("sampled id 0:%d absent from breakdowns", seq)
		}
	}
	// Unsampled ids are cleanly absent: no events, and crucially not
	// reported as capacity casualties.
	for seq := uint32(2); seq <= 16; seq++ {
		id := trace.MsgID(0, seq)
		if (seq-1)%every == 0 {
			continue
		}
		if seen[id] {
			t.Errorf("id 0:%d should be unsampled but appears in breakdowns", seq)
		}
		if rec.MayHaveDroppedMsg(id) {
			t.Errorf("unsampled id 0:%d misreported as capacity-dropped", seq)
		}
	}
	// Spans that were kept are properly terminated.
	for _, sp := range rec.Spans() {
		if sp.Msg != 0 && !sp.Ended {
			t.Errorf("sampled span %d (msg %d:%d, %s) unterminated",
				sp.ID, trace.MsgSender(sp.Msg), trace.MsgSeq(sp.Msg), sp.Name)
		}
	}
}

// TestCoSpikesUnchangedBySampling proves the sampler touches only the
// trace stream: the metrics snapshot stream, and therefore the co-spike
// correlation built from it, is bit-identical with and without sampling.
func TestCoSpikesUnchangedBySampling(t *testing.T) {
	base, err := RunSweep(soakCfg(0))
	if err != nil {
		t.Fatalf("unsampled sweep: %v", err)
	}
	sampled, err := RunSweep(soakCfg(8))
	if err != nil {
		t.Fatalf("sampled sweep: %v", err)
	}
	if base.Point != sampled.Point {
		t.Fatalf("measurement diverged: %+v vs %+v", base.Point, sampled.Point)
	}
	if len(base.Points) != len(sampled.Points) {
		t.Fatalf("snapshot streams diverged: %d vs %d points", len(base.Points), len(sampled.Points))
	}
	bi, si := base.Intervals, sampled.Intervals
	if len(bi) != len(si) {
		t.Fatalf("co-spike intervals diverged: %d vs %d", len(bi), len(si))
	}
	for i := range bi {
		if bi[i] != si[i] {
			t.Errorf("interval %d diverged: %v vs %v", i, bi[i], si[i])
		}
	}
	if len(bi) == 0 {
		t.Log("note: no co-spikes flagged at this rate (comparison still exact)")
	}
}

// TestCoSpikesFlagsLossWindow gives CoSpikes direct coverage: a lossy
// run must flag at least one interval where retries and bus occupancy
// spiked together, and a fault-free run must flag none.
func TestCoSpikesFlagsLossWindow(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Rate = 0.25
	cfg.Messages = 40
	lossy, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("lossy sweep: %v", err)
	}
	if len(lossy.Intervals) == 0 {
		t.Error("25% loss produced no co-spike intervals")
	}
	for _, iv := range lossy.Intervals {
		if iv.DRetrans <= 0 {
			t.Errorf("flagged interval %v has no retransmit growth", iv)
		}
		if iv.To <= iv.From {
			t.Errorf("flagged interval %v has non-positive width", iv)
		}
	}

	clean, err := RunSweep(DefaultSweepConfig())
	if err != nil {
		t.Fatalf("clean sweep: %v", err)
	}
	if len(clean.Intervals) != 0 {
		t.Errorf("fault-free run flagged %d co-spike intervals", len(clean.Intervals))
	}
}
