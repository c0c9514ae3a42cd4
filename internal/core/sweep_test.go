package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/xport"
)

// sweepRing sends takeSizes from nodes 0, 2 and 3 to node 1 of a 4-node
// SCRAMNet cluster built with bbp and script, while node 1 sweeps for
// them with the endpoint's Sweep when fast is set and with
// xport.LoopSweep otherwise. Each sweep stops at the first wrap past a
// deadline 30 µs after it started, and the next one starts just past
// the sender the last one returned. With watch, a second process on
// node 1 polls every sender with MsgAvail every 9 µs, so that messages
// the sweep has not polled for yet become deliverable under it.
func sweepRing(t *testing.T, bbp core.Config, script *fault.Script, watch, fast bool) polledRun {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, BBP: &bbp, Faults: script})
	if err != nil {
		t.Fatal(err)
	}
	rx := c.Endpoints[1].(*core.Endpoint)
	for _, src := range []int{0, 2, 3} {
		tx := c.Endpoints[src]
		k.Spawn(fmt.Sprintf("tx%d", src), func(p *sim.Proc) {
			p.Delay(sim.Duration(src) * 7 * sim.Microsecond)
			for i, n := range takeSizes {
				if err := tx.Send(p, 1, bytes.Repeat([]byte{byte(src<<4 | i)}, n)); err != nil {
					t.Errorf("send %d from %d: %v", i, src, err)
					return
				}
				p.Delay(sim.Duration(10+5*src) * sim.Microsecond)
			}
		})
	}
	var r polledRun
	done := false
	if watch {
		k.Spawn("watch", func(p *sim.Proc) {
			for !done {
				rx.MsgAvail(p)
				p.Delay(9 * sim.Microsecond)
			}
		})
	}
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 16<<10)
		var deadline sim.Time
		stop := func() bool { return p.Now() > deadline }
		for from := 0; len(r.got) < 3*len(takeSizes); {
			deadline = p.Now().Add(30 * sim.Microsecond)
			var src, n int
			var err error
			if fast {
				src, n, err = rx.Sweep(p, from, buf, stop)
			} else {
				src, n, err = xport.LoopSweep(p, rx, from, buf, stop)
			}
			r.calls = append(r.calls, fmt.Sprintf("%v src=%d n=%d err=%v", p.Now(), src, n, err))
			if err != nil {
				t.Errorf("sweep: %v", err)
				return
			}
			from = src + 1
			if src >= 0 {
				r.got = append(r.got, append([]byte(nil), buf[:n]...))
			}
		}
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	r.calls = append(r.calls, fmt.Sprintf("end %v executed=%d", k.Now(), k.Executed()))
	for _, ep := range c.Endpoints {
		r.stats = append(r.stats, ep.(*core.Endpoint).Stats())
	}
	return r
}

// TestSweepMatchesLoopSweep runs one sweeping receiver twice, once with
// the endpoint's Sweep (its poller runs the idle polls) and once with
// xport.LoopSweep over TryRecv: the two must return at the same virtual
// times with the same messages and leave every counter equal, on the
// per-word and burst poll paths, under the retry extension's delivery
// gate, through a loss window whose checksum failures roll detections
// back, and beside a process that detects messages for the sweep.
func TestSweepMatchesLoopSweep(t *testing.T) {
	word := core.DefaultConfig()
	word.BurstPoll = core.BurstOff
	burst := core.DefaultConfig()
	burst.BurstPoll = core.BurstOn
	retry := core.DefaultConfig()
	retry.Retry = core.DefaultRetryConfig()
	retryWord := retry
	retryWord.BurstPoll = core.BurstOff
	lossy := &fault.Script{Seed: 2, Actions: []fault.Action{
		{At: sim.Time(0).Add(20 * sim.Microsecond), Kind: fault.LossStart, Rate: 0.1},
		{At: sim.Time(0).Add(150 * sim.Microsecond), Kind: fault.LossStop},
	}}
	for _, tc := range []struct {
		name   string
		bbp    core.Config
		script *fault.Script
		watch  bool
	}{
		{"default", core.DefaultConfig(), nil, false},
		{"word", word, nil, false},
		{"burst", burst, nil, false},
		{"retry", retry, nil, false},
		{"lossy retry", retry, lossy, false},
		{"lossy retry word", retryWord, lossy, false},
		{"watched", core.DefaultConfig(), nil, true},
		{"watched word", word, nil, true},
		{"watched retry", retry, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, loop := sweepRing(t, tc.bbp, tc.script, tc.watch, true), sweepRing(t, tc.bbp, tc.script, tc.watch, false)
			if len(fast.got) != 3*len(takeSizes) {
				t.Fatalf("Sweep delivered %d messages, want %d", len(fast.got), 3*len(takeSizes))
			}
			if fmt.Sprint(fast.calls) != fmt.Sprint(loop.calls) {
				t.Fatalf("the sweeps returned differently:\nLoopSweep %v\nSweep     %v", loop.calls, fast.calls)
			}
			if fmt.Sprint(fast.got) != fmt.Sprint(loop.got) {
				t.Fatal("the sweeps delivered different payloads")
			}
			if fmt.Sprint(fast.stats) != fmt.Sprint(loop.stats) {
				t.Fatalf("counters differ:\nLoopSweep %+v\nSweep     %+v", loop.stats, fast.stats)
			}
			if tc.script != nil && fast.stats[1].ChecksumDrops == 0 {
				t.Fatal("the loss window caused no checksum drop at the receiver")
			}
		})
	}
}
