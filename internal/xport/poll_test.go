package xport_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/xport"
)

// scriptSub is a substrate for the Poller tests: a probe of s costs 1 µs
// and sees a message when ready[s] is positive, and Take takes one. Each
// probe is logged with its substrate, sender and start time.
type scriptSub struct {
	name  string
	ready []int
	log   *[]string
}

func (sub *scriptSub) Probe(land func(seen bool)) xport.Probe {
	return &scriptProbe{sub: sub, land: land}
}

type scriptProbe struct {
	sub  *scriptSub
	land func(seen bool)
}

func (pr *scriptProbe) Issue(p *sim.Proc, src int) {
	*pr.sub.log = append(*pr.sub.log, fmt.Sprintf("%s%d@%v", pr.sub.name, src, p.Now()))
	p.Kernel().AfterKind(sim.Microsecond, sim.KindProc, func() { pr.land(pr.sub.ready[src] > 0) })
}

func (pr *scriptProbe) Take(p *sim.Proc, src int, _ *xport.Buffers) ([]byte, bool, error) {
	if pr.sub.ready[src] == 0 {
		return nil, false, nil
	}
	pr.sub.ready[src]--
	p.Delay(3 * sim.Microsecond)
	return []byte{byte(src)}, true, nil
}

// pollWorld is a 4-process world seen from rank 1: two scripted
// substrates whose messages arrive at fixed times, and a layer above
// that holds what it takes until the process returns it, as the hybrid
// router does.
type pollWorld struct {
	k    *sim.Kernel
	subs []*scriptSub
	held []int
	log  []string
}

func newPollWorld() *pollWorld {
	w := &pollWorld{k: sim.NewKernel(), held: make([]int, 4)}
	for _, name := range []string{"a", "b"} {
		w.subs = append(w.subs, &scriptSub{name: name, ready: make([]int, 4), log: &w.log})
	}
	for _, ev := range []struct {
		at       sim.Duration
		sub, src int
	}{{5, 0, 2}, {9, 1, 2}, {9, 0, 2}, {30, 1, 0}, {31, 0, 3}, {80, 1, 3}} {
		w.k.At(sim.Time(0).Add(ev.at*sim.Microsecond), func() { w.subs[ev.sub].ready[ev.src]++ })
	}
	return w
}

// tryRecv is the process-run probe of s that the Poller replays: the
// held message first, then each substrate's probe and take, then the
// held message again.
func (w *pollWorld) tryRecv(p *sim.Proc, s int) bool {
	if w.held[s] > 0 {
		w.held[s]--
		return true
	}
	for _, sub := range w.subs {
		*sub.log = append(*sub.log, fmt.Sprintf("%s%d@%v", sub.name, s, p.Now()))
		p.Delay(sim.Microsecond)
		if sub.ready[s] > 0 {
			sub.ready[s]--
			p.Delay(3 * sim.Microsecond)
			w.held[s]++
		}
	}
	if w.held[s] > 0 {
		w.held[s]--
		return true
	}
	return false
}

// poll is tryRecv's sweep on a Poller from pls, in the order Start's
// arguments give; it returns the sender, or -1 when the sweep stopped.
func (w *pollWorld) poll(p *sim.Proc, pls *xport.Pollers, base, span, from int, stop func() bool, deadline sim.Time) int {
	pl := pls.Get()
	defer pls.Put(pl)
	pl.Start(p, base, span, from, stop, deadline)
	for {
		s, step := pl.Wait()
		switch {
		case s < 0:
			return -1
		case step < 0:
			w.held[s]--
			return s
		}
		if _, ok, _ := pl.Step(step).Take(p, s, nil); ok {
			w.held[s]++
		}
		pl.Next()
	}
}

// TestPollerMatchesProcessLoop runs the same receives twice, once on a
// Poller and once as process-run loops over tryRecv: LoopSweep's order
// with a stop, a round-robin pass from a base with a deadline, a
// focused receive with a deadline, and LoopSweep's order with both a
// stop and a deadline, each ending it once. The probes, the returns and
// their times, the clock and the executed events must all be equal.
func TestPollerMatchesProcessLoop(t *testing.T) {
	run := func(poller bool) []string {
		w := newPollWorld()
		defer w.k.Close()
		var pl *xport.Pollers
		if poller {
			pl = xport.NewPollers(1, 4, func(s int) bool { return w.held[s] > 0 }, w.subs[0], w.subs[1])
		}
		w.k.Spawn("rx", func(p *sim.Proc) {
			note := func(op string, s int) { w.log = append(w.log, fmt.Sprintf("%s=%d@%v", op, s, p.Now())) }
			// LoopSweep's order, stopping at the second wrap.
			for from := 0; from <= 4; {
				wraps := 0
				stop := func() bool { wraps++; return wraps == 2 }
				var s int
				if poller {
					s = w.poll(p, pl, 0, 4, from, stop, -1)
				} else {
					s, _, _ = xport.LoopSweep(p, loopEP{w: w, me: 1, procs: 4}, from, nil, stop)
				}
				note("sweep", s)
				if s < 0 {
					break
				}
				from = s + 1
			}
			// Passes round-robin from rank 3 and a receive focused on
			// rank 3, each until its deadline.
			for _, focus := range []bool{false, true} {
				deadline := p.Now().Add(40 * sim.Microsecond)
				for {
					s := -1
					switch {
					case poller && focus:
						s = w.poll(p, pl, 3, 1, 0, nil, deadline)
					case poller:
						s = w.poll(p, pl, 3, 4, 0, nil, deadline)
					default:
						s = w.loop(p, focus, deadline)
					}
					note(fmt.Sprintf("focus %v", focus), s)
					if s < 0 {
						break
					}
				}
			}
			// LoopSweep's order with a stop and a deadline: the stop
			// ends the first sweep, the deadline the second.
			for _, end := range []struct {
				wraps int
				after sim.Duration
			}{{2, sim.Millisecond}, {100, 15 * sim.Microsecond}} {
				wraps, deadline := 0, p.Now().Add(end.after)
				stop := func() bool { wraps++; return wraps == end.wraps }
				var s int
				if poller {
					s = w.poll(p, pl, 0, 4, 0, stop, deadline)
				} else {
					s, _, _ = xport.LoopSweep(p, loopEP{w: w, me: 1, procs: 4}, 0, nil, func() bool {
						return stop() || p.Now() > deadline
					})
				}
				note(fmt.Sprintf("stop+deadline wraps=%d", wraps), s)
			}
		})
		if err := w.k.Run(); err != nil {
			t.Fatal(err)
		}
		return append(w.log, fmt.Sprintf("end %v executed=%d", w.k.Now(), w.k.Executed()))
	}
	got, want := run(true), run(false)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the poller ran differently:\nloop   %v\npoller %v", want, got)
	}
}

// loop is poll's process-run twin for the deadline orders: passes from
// rank 3, or rank 3 alone when focus is set, with the deadline checked
// after each pass.
func (w *pollWorld) loop(p *sim.Proc, focus bool, deadline sim.Time) int {
	for {
		for i := 0; i < 4; i++ {
			s := (3 + i) % 4
			if focus {
				s = 3
			}
			if s != 1 && w.tryRecv(p, s) {
				return s
			}
			if focus {
				break
			}
		}
		if p.Now() > deadline {
			return -1
		}
	}
}

// loopEP is tryRecv as an Endpoint's TryRecv, for LoopSweep.
type loopEP struct {
	xport.Endpoint // only Rank, Procs and TryRecv are called
	w              *pollWorld
	me, procs      int
}

func (e loopEP) Rank() int  { return e.me }
func (e loopEP) Procs() int { return e.procs }
func (e loopEP) TryRecv(p *sim.Proc, src int, _ []byte) (int, bool, error) {
	return 0, e.w.tryRecv(p, src), nil
}
