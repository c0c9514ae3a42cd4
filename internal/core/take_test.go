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

// takeSizes mixes empty, word-read and DMA-read payloads, and sizes
// that both grow and shrink from one message to the next.
var takeSizes = []int{0, 1, 64, 7, 600, 4000, 12, 2048, 0, 9000, 33}

// polledRun is what a receiver polling one sender saw: every call's
// return, the payloads it got, and each endpoint's counters at the end.
type polledRun struct {
	calls []string
	got   [][]byte
	stats []core.Stats
}

// pollRing sends takeSizes from node 0 to node 1 of a 4-node SCRAMNet
// cluster built with bbp and script, while node 1 polls with TryRecv,
// TryTake or, for "probe", the endpoint's probe step on an xport.Poller
// focused on node 0 that stops at every wrap (one TryTake a receive).
func pollRing(t *testing.T, bbp core.Config, script *fault.Script, how string) polledRun {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, BBP: &bbp, Faults: script})
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := c.Endpoints[0].(*core.Endpoint), c.Endpoints[1].(*core.Endpoint)
	k.Spawn("tx", func(p *sim.Proc) {
		for i, n := range takeSizes {
			if err := tx.Send(p, 1, bytes.Repeat([]byte{byte(i + 1)}, n)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			p.Delay(15 * sim.Microsecond)
		}
	})
	var r polledRun
	k.Spawn("rx", func(p *sim.Proc) {
		var bufs xport.Buffers
		buf := make([]byte, 16<<10)
		pl := xport.NewPoller(1, 4, nil, rx)
		stop := func() bool { return true }
		for len(r.got) < len(takeSizes) {
			var msg []byte
			var ok bool
			var err error
			switch how {
			case "take":
				msg, ok, err = rx.TryTake(p, 0, &bufs)
			case "probe":
				pl.Start(p, 0, 1, 0, stop, -1)
				if s, step := pl.Wait(); s >= 0 {
					msg, ok, err = pl.Step(step).Take(p, s, &bufs)
				}
			default:
				var n int
				n, ok, err = rx.TryRecv(p, 0, buf)
				msg = buf[:n]
			}
			r.calls = append(r.calls, fmt.Sprintf("%v ok=%v n=%d err=%v", p.Now(), ok, len(msg), err))
			if err != nil {
				t.Errorf("receive %d: %v", len(r.got), err)
				return
			}
			if ok {
				r.got = append(r.got, append([]byte(nil), msg...))
				if how != "recv" {
					bufs.Put(msg)
				}
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ep := range c.Endpoints {
		r.stats = append(r.stats, ep.(*core.Endpoint).Stats())
	}
	return r
}

// TestTryTakeMatchesTryRecv runs one polling receiver three times, with
// TryRecv, with TryTake and with the probe step (xport.Probe) run by a
// Poller: all must return at the same virtual times with the same
// payloads and leave every counter equal, on a clean ring, on the burst
// poll path, and through a loss window whose checksum failures send a
// taken buffer back.
func TestTryTakeMatchesTryRecv(t *testing.T) {
	retry := core.DefaultConfig()
	retry.Retry = core.DefaultRetryConfig()
	burst := core.DefaultConfig()
	burst.BurstPoll = core.BurstOn
	for _, tc := range []struct {
		name   string
		bbp    core.Config
		script *fault.Script
	}{
		{"clean", core.DefaultConfig(), nil},
		{"burst", burst, nil},
		{"lossy retry", retry, &fault.Script{Seed: 2, Actions: []fault.Action{
			{At: sim.Time(0).Add(20 * sim.Microsecond), Kind: fault.LossStart, Rate: 0.1},
			{At: sim.Time(0).Add(150 * sim.Microsecond), Kind: fault.LossStop},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recv, take, probe := pollRing(t, tc.bbp, tc.script, "recv"), pollRing(t, tc.bbp, tc.script, "take"), pollRing(t, tc.bbp, tc.script, "probe")
			if len(take.got) != len(takeSizes) {
				t.Fatalf("TryTake delivered %d messages, want %d", len(take.got), len(takeSizes))
			}
			for i, n := range takeSizes {
				if want := bytes.Repeat([]byte{byte(i + 1)}, n); !bytes.Equal(take.got[i], want) || !bytes.Equal(recv.got[i], want) {
					t.Fatalf("message %d differs from what was sent", i)
				}
			}
			if fmt.Sprint(take.calls) != fmt.Sprint(recv.calls) || fmt.Sprint(probe.calls) != fmt.Sprint(recv.calls) {
				t.Fatalf("the receives returned differently:\nTryRecv %v\nTryTake %v\nprobe   %v", recv.calls, take.calls, probe.calls)
			}
			if fmt.Sprint(take.stats) != fmt.Sprint(recv.stats) || fmt.Sprint(probe.stats) != fmt.Sprint(recv.stats) {
				t.Fatalf("counters differ:\nTryRecv %+v\nTryTake %+v\nprobe   %+v", recv.stats, take.stats, probe.stats)
			}
			if tc.script != nil && take.stats[1].ChecksumDrops == 0 {
				t.Fatal("the loss window caused no checksum drop at the receiver")
			}
		})
	}
}
