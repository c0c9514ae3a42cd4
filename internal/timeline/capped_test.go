package timeline

import "testing"

// TestCappedSweepLeavesIncompleteBreakdowns drives the capped recorder
// through RunSweep (TraceCap) on a soak-length lossy run, about 42k
// events into a 12k-event ring: the cap must evict early history, so
// old messages survive only as incomplete breakdowns, and each of
// those must be one the recorder admits it may have dropped.
func TestCappedSweepLeavesIncompleteBreakdowns(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Messages = 200
	cfg.Rate = 0.05
	cfg.TraceCap = 12000
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("capped sweep: %v", err)
	}
	if res.Rec.Drops() == 0 {
		t.Fatalf("soak too short: recorder never hit the %d-event cap", cfg.TraceCap)
	}
	incomplete := 0
	for _, b := range res.Breakdowns {
		if b.Posted && b.Flagged && b.Detected && b.Delivered {
			continue
		}
		incomplete++
		if !res.Rec.MayHaveDroppedMsg(b.Msg) {
			t.Errorf("id %d:%d is incomplete but outside the evicted id range", b.Sender, b.Seq)
		}
	}
	if incomplete == 0 {
		t.Fatal("capped soak kept every span tree complete; eviction pressure missing")
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
