package liveness

import (
	"testing"

	"repro/internal/sim"
)

func testConfig() Config {
	return Config{
		Enabled:      true,
		Period:       100 * sim.Microsecond,
		SuspectAfter: 500 * sim.Microsecond,
		ConfirmAfter: 2500 * sim.Microsecond,
	}
}

// harness drives a detector one heartbeat period at a time, keeping the
// published beat counters across calls so a stalled node really stalls.
type harness struct {
	d     *Detector
	cfg   Config
	now   sim.Time
	beats []uint32
}

func newHarness(d *Detector, cfg Config) *harness {
	return &harness{d: d, cfg: cfg, beats: make([]uint32, d.n)}
}

// feed advances periods ticks, calling beating(node, period) to decide
// which peers' heartbeat words advance that period (nil = all beat).
func (h *harness) feed(periods int, beating func(node, period int) bool) {
	for p := 0; p < periods; p++ {
		h.now = h.now.Add(h.cfg.Period)
		for node := 0; node < h.d.n; node++ {
			if node == h.d.me {
				continue
			}
			if beating == nil || beating(node, p) {
				h.beats[node]++
			}
			h.d.Observe(h.now, node, h.beats[node], 1)
		}
		h.d.Tick(h.now)
	}
}

func TestDetectorStateMachine(t *testing.T) {
	cfg := testConfig()
	d := NewDetector(0, 4, cfg, 0, nil, nil)
	h := newHarness(d, cfg)

	// All beating: everyone stays Alive.
	h.feed(10, nil)
	for n := 1; n < 4; n++ {
		if d.State(n) != Alive {
			t.Fatalf("node %d = %v after steady beats", n, d.State(n))
		}
	}

	// Node 2 goes silent: Alive → Suspect at SuspectAfter, → Dead at
	// ConfirmAfter; nodes 1 and 3 stay Alive throughout.
	silent := func(node, p int) bool { return node != 2 }
	sawSuspect := false
	for p := 0; p < 30 && d.State(2) != Dead; p++ {
		h.feed(1, silent)
		if d.State(2) == Suspect {
			sawSuspect = true
		}
	}
	if !sawSuspect {
		t.Fatal("node 2 never entered Suspect before Dead")
	}
	if d.State(2) != Dead {
		t.Fatal("node 2 never confirmed Dead")
	}
	if d.State(1) != Alive || d.State(3) != Alive {
		t.Fatalf("collateral verdicts: 1=%v 3=%v", d.State(1), d.State(3))
	}
	st := d.Stats()
	if st.Suspects != 1 || st.Confirms != 1 {
		t.Fatalf("stats %+v, want 1 suspect + 1 confirm", st)
	}
}

func TestLateBeatRefutesSuspicion(t *testing.T) {
	cfg := testConfig()
	d := NewDetector(0, 2, cfg, 0, nil, nil)
	h := newHarness(d, cfg)
	h.feed(3, nil)
	// Stall node 1 just past SuspectAfter, then let one beat through.
	h.feed(6, func(node, p int) bool { return false })
	if d.State(1) != Suspect {
		t.Fatalf("node 1 = %v after %v stall", d.State(1), 6*cfg.Period)
	}
	h.feed(1, nil)
	if d.State(1) != Alive {
		t.Fatalf("node 1 = %v after refuting beat", d.State(1))
	}
	st := d.Stats()
	if st.Refutes != 1 || st.Confirms != 0 {
		t.Fatalf("stats %+v, want 1 refute and no confirms", st)
	}
}

func TestIncarnationFencingAndRejoin(t *testing.T) {
	cfg := testConfig()
	d := NewDetector(0, 2, cfg, 0, nil, nil)
	h := newHarness(d, cfg)
	h.feed(3, nil)
	h.feed(30, func(node, p int) bool { return false })
	if d.State(1) != Dead {
		t.Fatalf("node 1 = %v, want dead", d.State(1))
	}

	// Beats at the old incarnation are fenced: still Dead.
	beat := uint32(100)
	for i := 0; i < 5; i++ {
		h.now = h.now.Add(cfg.Period)
		beat++
		d.Observe(h.now, 1, beat, 1)
		d.Tick(h.now)
	}
	if d.State(1) != Dead {
		t.Fatalf("stale incarnation resurrected node 1: %v", d.State(1))
	}
	if d.Stats().FencedBeats == 0 {
		t.Fatal("fenced beats not counted")
	}

	// A strictly higher incarnation rejoins, even with a lower beat.
	h.now = h.now.Add(cfg.Period)
	d.Observe(h.now, 1, 1, 2)
	if d.State(1) != Alive || d.Incarnation(1) != 2 {
		t.Fatalf("rejoin failed: state=%v inc=%d", d.State(1), d.Incarnation(1))
	}
	if d.Stats().Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", d.Stats().Rejoins)
	}

	// Stale replicas of the old incarnation race in afterwards: ignored.
	d.Observe(h.now, 1, 999, 1)
	if d.State(1) != Alive || d.Incarnation(1) != 2 {
		t.Fatalf("stale sample regressed verdict: state=%v inc=%d", d.State(1), d.Incarnation(1))
	}
}

func TestIncarnationWraparound(t *testing.T) {
	if !incLess(^uint32(0), 0) {
		t.Fatal("incarnation comparison does not wrap")
	}
	if incLess(0, ^uint32(0)) {
		t.Fatal("wraparound comparison inverted")
	}
	d := NewDetector(0, 2, testConfig(), 0, nil, nil)
	d.Observe(1, 1, 1, ^uint32(0))
	d.Observe(2, 1, 1, 0) // wrapped: strictly newer
	if d.Incarnation(1) != 0 {
		t.Fatalf("wraparound incarnation rejected: inc=%d", d.Incarnation(1))
	}
}

func TestResetForgetsVerdicts(t *testing.T) {
	cfg := testConfig()
	d := NewDetector(0, 3, cfg, 0, nil, nil)
	h := newHarness(d, cfg)
	h.feed(30, func(node, p int) bool { return false })
	if d.State(1) != Dead || d.State(2) != Dead {
		t.Fatalf("setup: 1=%v 2=%v", d.State(1), d.State(2))
	}
	d.Reset(h.now)
	if d.State(1) != Alive || d.State(2) != Alive {
		t.Fatalf("verdicts survive Reset: 1=%v 2=%v", d.State(1), d.State(2))
	}
	// Stall clocks restarted: nobody re-dies until a full window elapses.
	d.Tick(h.now.Add(cfg.SuspectAfter - 1))
	if d.State(1) != Alive {
		t.Fatal("stall clock not restarted by Reset")
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Enabled: true},
		{Enabled: true, Period: 100, SuspectAfter: 50, ConfirmAfter: 500},
		{Enabled: true, Period: 100, SuspectAfter: 500, ConfirmAfter: 500},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated: %+v", i, c)
		}
	}
}
