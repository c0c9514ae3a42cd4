package core

import (
	"fmt"
	"testing"

	"repro/internal/scramnet"
	"repro/internal/sim"
)

func newRingSystem(t *testing.T, nodes int, cfg Config) (*sim.Kernel, *System, []*Endpoint) {
	t.Helper()
	k := sim.NewKernel()
	net, err := scramnet.New(k, scramnet.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, nodes)
	for i := range eps {
		if eps[i], err = sys.Attach(i); err != nil {
			t.Fatal(err)
		}
	}
	return k, sys, eps
}

func TestThresholdsValidate(t *testing.T) {
	cases := []struct {
		name string
		th   Thresholds
		ok   bool
	}{
		{"defaults", DefaultConfig().Thresholds, true},
		{"zero", Thresholds{}, true},
		{"negative send", Thresholds{SendDMA: -1, RecvDMA: 20}, false},
		{"negative recv", Thresholds{SendDMA: 128, RecvDMA: -20}, false},
		{"adaptive on", Thresholds{RecvDMA: 20, Adaptive: true}, true},
	}
	for _, c := range cases {
		if err := c.th.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	k := sim.NewKernel()
	net, err := scramnet.New(k, scramnet.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Thresholds.RecvDMA = -1
	if _, err := New(net, bad); err == nil {
		t.Error("New accepted a negative RecvDMA threshold")
	}
	bad = DefaultConfig()
	bad.BurstPoll = BurstMode(42)
	if _, err := New(net, bad); err == nil {
		t.Error("New accepted an unknown BurstPoll mode")
	}
}

func TestDefaultRecvDMAMatchesMeasuredCrossover(t *testing.T) {
	// E7 measured the receive-DMA crossover at 20 B; the static default
	// must cite it, not the historical 64.
	if got := DefaultConfig().Thresholds.RecvDMA; got != 20 {
		t.Fatalf("DefaultConfig().Thresholds.RecvDMA = %d, want 20", got)
	}
}

// TestPollPlan pins the Attach-time cost-model decision on the default
// bus: an all-senders sweep bursts on a 4-node base ring (740 ns beats
// 3 × 650 ns), a focused single-sender poll does not (740 ns loses to
// one 650 ns probe) — except under retry, where one probe is already
// two word reads; the forced modes override both ways.
func TestPollPlan(t *testing.T) {
	plan := func(nodes int, mut func(*Config)) (allOK, oneOK bool) {
		cfg := DefaultConfig()
		if mut != nil {
			mut(&cfg)
		}
		_, _, eps := newRingSystem(t, nodes, cfg)
		return eps[0].burstAllOK, eps[0].burstOneOK
	}
	if all, one := plan(4, nil); !all || one {
		t.Errorf("4-node base: burstAllOK=%v burstOneOK=%v, want true/false", all, one)
	}
	if all, one := plan(2, nil); all || one {
		t.Errorf("2-node base: burstAllOK=%v burstOneOK=%v, want false/false (one sender)", all, one)
	}
	if all, one := plan(4, func(c *Config) { c.Retry = DefaultRetryConfig() }); !all || !one {
		t.Errorf("4-node retry: burstAllOK=%v burstOneOK=%v, want true/true (two-word probe)", all, one)
	}
	if all, one := plan(4, func(c *Config) { c.BurstPoll = BurstOff }); all || one {
		t.Errorf("BurstOff: burstAllOK=%v burstOneOK=%v, want false/false", all, one)
	}
	if all, one := plan(2, func(c *Config) { c.BurstPoll = BurstOn }); !all || !one {
		t.Errorf("BurstOn: burstAllOK=%v burstOneOK=%v, want true/true", all, one)
	}
}

// TestBurstPollDetectsAllSenders drives a many-to-one workload through
// the wide-read sweep and checks both delivery and the accounting: all
// messages arrive, every burst is nprocs words, and the per-word poll
// residue is zero.
func TestBurstPollDetectsAllSenders(t *testing.T) {
	const nodes = 8
	cfg := DefaultConfig()
	cfg.BurstPoll = BurstOn
	k, _, eps := newRingSystem(t, nodes, cfg)
	for s := 1; s < nodes; s++ {
		s := s
		k.Spawn(fmt.Sprintf("tx%d", s), func(p *sim.Proc) {
			if err := eps[s].Send(p, 0, []byte{byte(s)}); err != nil {
				t.Error(err)
			}
		})
	}
	got := map[int]byte{}
	k.Spawn("sink", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 1; i < nodes; i++ {
			src, n, err := eps[0].RecvAny(p, buf)
			if err != nil {
				t.Error(err)
				return
			}
			if n != 1 {
				t.Errorf("message from %d has %d bytes, want 1", src, n)
			}
			got[src] = buf[0]
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for s := 1; s < nodes; s++ {
		if got[s] != byte(s) {
			t.Errorf("sender %d: got payload %d", s, got[s])
		}
	}
	st := eps[0].Stats()
	if st.BurstPolls == 0 {
		t.Fatal("BurstOn sink performed no burst polls")
	}
	if st.PollWords != st.BurstPollWords {
		t.Errorf("BurstOn sink has %d poll words but only %d from bursts", st.PollWords, st.BurstPollWords)
	}
	if st.BurstPollWords != st.BurstPolls*int64(nodes) {
		t.Errorf("burst words %d != %d bursts × %d region words", st.BurstPollWords, st.BurstPolls, nodes)
	}
	if st.Received != nodes-1 {
		t.Errorf("received %d, want %d", st.Received, nodes-1)
	}
}

// TestAdaptiveThresholdConverges runs enough receive traffic for the
// estimator to recompute and checks it lands on the 20 B crossover the
// default bus costs imply (E7), published through recvDMAThreshold.
func TestAdaptiveThresholdConverges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Thresholds.RecvDMA = 64 // deliberately wrong starting point
	cfg.Thresholds.Adaptive = true
	k, _, eps := newRingSystem(t, 2, cfg)
	const msgs = 32
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := eps[0].Send(p, 1, make([]byte, 16)); err != nil {
				t.Error(err)
			}
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 32)
		for i := 0; i < msgs; i++ {
			if _, err := eps[1].Recv(p, 0, buf); err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := eps[1].recvDMAThreshold(); got != 20 {
		t.Errorf("adaptive threshold = %d B, want the 20 B crossover", got)
	}
	if eps[1].stats.Received != msgs {
		t.Fatalf("received %d, want %d", eps[1].stats.Received, msgs)
	}
}

// TestAdaptiveDisabledKeepsStaticThreshold guards the fallback path.
func TestAdaptiveDisabledKeepsStaticThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Thresholds.RecvDMA = 48
	_, _, eps := newRingSystem(t, 2, cfg)
	if got := eps[0].recvDMAThreshold(); got != 48 {
		t.Errorf("static threshold = %d, want 48", got)
	}
}
