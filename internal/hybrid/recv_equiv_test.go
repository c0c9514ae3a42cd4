package hybrid_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/sim"
)

// Recv and RecvAny run on the router's poller. The loops below are the
// shapes they had before, over TryRecv, kept as the reference that the
// poller-run receives must match event for event.

// loopRecv blocks for the next message from src, with the deadline
// checked after each TryRecv.
func loopRecv(p *sim.Proc, e *hybrid.Endpoint, timeout sim.Duration, src int, buf []byte) (int, error) {
	deadline := p.Now().Add(timeout)
	for {
		n, ok, err := e.TryRecv(p, src, buf)
		if err != nil {
			return 0, err
		}
		if ok {
			return n, nil
		}
		if p.Now() > deadline {
			return 0, hybrid.ErrTimeout
		}
	}
}

// loopAny is RecvAny over TryRecv: passes round-robin from just past the
// source served last, with the deadline checked after each full pass.
type loopAny struct{ next int }

func (l *loopAny) recv(p *sim.Proc, e *hybrid.Endpoint, timeout sim.Duration, buf []byte) (int, int, error) {
	deadline := p.Now().Add(timeout)
	for {
		for i := 0; i < e.Procs(); i++ {
			s := (l.next + i) % e.Procs()
			if s == e.Rank() {
				continue
			}
			n, ok, err := e.TryRecv(p, s, buf)
			if ok || err != nil {
				l.next = (s + 1) % e.Procs()
				return s, n, err
			}
		}
		if p.Now() > deadline {
			return 0, 0, hybrid.ErrTimeout
		}
	}
}

// recvRun has ranks 1..3 of a 4-node router world send mixed sizes, over
// both substrates, to rank 0, which takes them with Recv and RecvAny
// (loop: with the reference loops instead): a receive into too small a
// buffer and a receive that times out included. It returns rank 0's
// receives, the clock, the executed events and every counter.
func recvRun(t *testing.T, bbp core.Config, loop bool) []string {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	cfg := hybrid.DefaultConfig()
	cfg.RecvTimeout = 400 * sim.Microsecond
	lows, eps := hybridWorld(t, k, 4, cfg, bbp, false, nil)
	sizes := []int{8, 3000, 100, 600, 4, 20000}
	for src := 1; src < 4; src++ {
		k.Spawn(fmt.Sprintf("tx%d", src), func(p *sim.Proc) {
			p.Delay(sim.Duration(src) * 11 * sim.Microsecond)
			for i, n := range sizes[src-1:] {
				if err := eps[src].Send(p, 0, bytes.Repeat([]byte{byte(src<<4 | i)}, n)); err != nil {
					t.Errorf("send %d from %d: %v", i, src, err)
				}
				p.Delay(sim.Duration(7*src) * sim.Microsecond)
			}
		})
	}
	var log []string
	any := &loopAny{}
	k.Spawn("rx", func(p *sim.Proc) {
		note := func(op string, src, n int, err error, buf []byte) {
			log = append(log, fmt.Sprintf("%s at %v: src=%d n=%d err=%v sum=%d", op, p.Now(), src, n, err, sum(buf[:n])))
		}
		buf := make([]byte, 32<<10)
		recv := func(src int, buf []byte) {
			var n int
			var err error
			if loop {
				n, err = loopRecv(p, eps[0], cfg.RecvTimeout, src, buf)
			} else {
				n, err = eps[0].Recv(p, src, buf)
			}
			note("recv", src, n, err, buf)
		}
		recvAny := func(buf []byte) {
			var src, n int
			var err error
			if loop {
				src, n, err = any.recv(p, eps[0], cfg.RecvTimeout, buf)
			} else {
				src, n, err = eps[0].RecvAny(p, buf)
			}
			note("recvany", src, n, err, buf)
		}
		if _, err := eps[0].Recv(p, 0, buf); err == nil {
			t.Error("Recv from its own rank succeeded")
		}
		recv(2, buf)
		recv(2, buf[:10]) // 100 bytes: consumed with an error
		for i := 0; i < 10; i++ {
			recvAny(buf)
		}
		recv(3, buf)
		recvAny(buf)
		recv(1, buf)
		recvAny(buf) // nothing left: times out
		recv(3, buf) // times out
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("end %v executed=%d", k.Now(), k.Executed()))
	for i, ep := range eps {
		log = append(log, fmt.Sprintf("rank %d %+v %+v", i, ep.Stats(), lows[i].(*core.Endpoint).Stats()))
	}
	return log
}

// TestRecvMatchesLoops pins Recv and RecvAny to the TryRecv loops they
// replaced: the same receives at the same times, with the same errors,
// the same clock, events and counters, on the per-word and burst poll
// paths and under the retry extension.
func TestRecvMatchesLoops(t *testing.T) {
	word := core.DefaultConfig()
	word.BurstPoll = core.BurstOff
	burst := core.DefaultConfig()
	burst.BurstPoll = core.BurstOn
	retry := core.DefaultConfig()
	retry.Retry = core.DefaultRetryConfig()
	for _, tc := range []struct {
		name string
		bbp  core.Config
	}{
		{"default", core.DefaultConfig()},
		{"word", word},
		{"burst", burst},
		{"retry", retry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			poller, loop := recvRun(t, tc.bbp, false), recvRun(t, tc.bbp, true)
			if !reflect.DeepEqual(poller, loop) {
				t.Fatalf("receives differ:\npoller %q\nloops  %q", poller, loop)
			}
			all := strings.Join(poller, "\n")
			if strings.Count(all, hybrid.ErrTimeout.Error()) != 2 || !strings.Contains(all, "into 10-byte buffer") {
				t.Fatalf("want two timeouts and a truncation:\n%s", all)
			}
		})
	}
}
