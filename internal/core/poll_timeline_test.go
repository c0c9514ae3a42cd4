package core

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scramnet"
	"repro/internal/sim"
	"repro/internal/spin"
)

// pollPin is the pinned outcome of one receive scenario: the kernel's
// event count and clock, the receiver's poll counters, its bus's pci.*
// counters, its adaptive-threshold state, and what the receive calls
// returned. Any change to how a poll is scheduled, charged or sampled
// moves at least one of these.
type pollPin struct {
	Executed int64
	Now      sim.Time

	Polls, PollWords, BurstPolls, BurstPollWords int64

	PIOReadWords, PIOReadBursts, PIOReadBurstWords, PIOWriteWords, DMABytes, BusyNs int64

	Threshold int
	WordNs    int64

	Result string
}

// pollScenario is one receive pattern: a ring of nodes endpoints with
// cfg mutated by mut and ring packets dropped at rate drop, processes
// spawned by spawn (which records what the receive calls returned into
// res), and the node rx whose counters are pinned.
type pollScenario struct {
	name  string
	nodes int
	rx    int
	drop  float64
	mut   func(*Config)
	spawn func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string)
	want  pollPin
}

// runPollScenario runs sc to completion on a metered world and returns
// its pin.
func runPollScenario(t *testing.T, sc pollScenario) pollPin {
	t.Helper()
	k := sim.NewKernel()
	ringCfg := scramnet.DefaultConfig(sc.nodes)
	ringCfg.SingleWriterCheck = true
	net, err := scramnet.New(k, ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	net.SetDropRate(sc.drop)
	reg := metrics.New()
	net.SetMetrics(reg)
	cfg := DefaultConfig()
	cfg.Thresholds.Adaptive = true
	if sc.mut != nil {
		sc.mut(&cfg)
	}
	sys, err := New(net, cfg, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]*Endpoint, sc.nodes)
	for i := range eps {
		if eps[i], err = sys.Attach(i); err != nil {
			t.Fatal(err)
		}
	}
	var res string
	sc.spawn(t, k, eps, &res)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	ctr := func(name string) int64 {
		v, _ := snap.Counter(name, sc.rx)
		return v
	}
	e := eps[sc.rx]
	st := e.Stats()
	return pollPin{
		Executed:          k.Executed(),
		Now:               k.Now(),
		Polls:             st.Polls,
		PollWords:         st.PollWords,
		BurstPolls:        st.BurstPolls,
		BurstPollWords:    st.BurstPollWords,
		PIOReadWords:      ctr("pci.pio_read_words"),
		PIOReadBursts:     ctr("pci.pio_read_bursts"),
		PIOReadBurstWords: ctr("pci.pio_read_burst_words"),
		PIOWriteWords:     ctr("pci.pio_write_words"),
		DMABytes:          ctr("pci.dma_bytes"),
		BusyNs:            ctr("pci.busy_ns"),
		Threshold:         e.recvDMAThreshold(),
		WordNs:            e.adapt.wordNs,
		Result:            res,
	}
}

// sendAt spawns a process that sends size bytes from eps[from] to
// eps[to] at each of the given virtual times.
func sendAt(t *testing.T, k *sim.Kernel, eps []*Endpoint, from, to, size int, at ...sim.Duration) {
	k.Spawn(fmt.Sprintf("tx%d->%d", from, to), func(p *sim.Proc) {
		msg := make([]byte, size)
		for _, d := range at {
			if wait := sim.Time(d).Sub(p.Now()); wait > 0 {
				p.Delay(wait)
			}
			if err := eps[from].Send(p, to, msg); err != nil {
				t.Error(err)
			}
		}
	})
}

// record appends one formatted receive outcome to res.
func record(res *string, format string, args ...any) {
	if *res != "" {
		*res += " "
	}
	*res += fmt.Sprintf(format, args...)
}

// TestPollTimelinePinned pins the complete receive timeline of every
// poll shape — focused and sweep, per-word and burst, blocking and
// one-shot, with and without the retry extension, under bus contention,
// interrupts and timeouts, and with two processes waiting on one
// endpoint. The numbers are the protocol's virtual timeline itself, so
// a change to the poll loop's implementation must leave every one of
// them unchanged.
func TestPollTimelinePinned(t *testing.T) {
	us := sim.Microsecond
	scenarios := []pollScenario{
		{
			name: "recv-word", nodes: 2, rx: 1,
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 1, 8, 10*us, 40*us, 41*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 16)
					for i := 0; i < 3; i++ {
						n, err := eps[1].Recv(p, 0, buf)
						record(res, "%d/%v@%d", n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 233, Now: 54830, Polls: 56, PollWords: 56, PIOReadWords: 71, PIOWriteWords: 3, BusyNs: 46600, Threshold: 20, WordNs: 650, Result: "8/<nil>@18700 8/<nil>@48650 8/<nil>@53100"},
		},
		{
			name: "recv-zero-overhead", nodes: 3, rx: 1,
			mut: func(c *Config) { c.Costs.PollOverhead = 0 },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 1, 8, 10*us)
				sendAt(t, k, eps, 2, 1, 8, 12*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 16)
					n, err := eps[1].Recv(p, 0, buf)
					record(res, "%d/%v@%d", n, err, p.Now())
					s, n, err := eps[1].RecvAny(p, buf)
					record(res, "any %d:%d/%v@%d", s, n, err, p.Now())
				})
			},
			want: pollPin{Executed: 135, Now: 25655, Polls: 24, PollWords: 26, BurstPolls: 1, BurstPollWords: 3, PIOReadWords: 33, PIOReadBursts: 1, PIOReadBurstWords: 3, PIOWriteWords: 2, BusyNs: 22460, Threshold: 20, WordNs: 650, Result: "8/<nil>@18650 any 2:8/<nil>@23060"},
		},
		{
			name: "recvany-burst", nodes: 4, rx: 0,
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 1, 0, 4, 5*us, 30*us)
				sendAt(t, k, eps, 2, 0, 64, 12*us)
				sendAt(t, k, eps, 3, 0, 0, 12*us, 13*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 64)
					for i := 0; i < 5; i++ {
						s, n, err := eps[0].RecvAny(p, buf)
						record(res, "%d:%d/%v@%d", s, n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 472, Now: 43798, Polls: 28, PollWords: 112, BurstPolls: 28, BurstPollWords: 112, PIOReadWords: 17, PIOReadBursts: 28, PIOReadBurstWords: 112, PIOWriteWords: 5, DMABytes: 64, BusyNs: 33288, Threshold: 20, WordNs: 650, Result: "1:4/<nil>@13970 3:0/<nil>@18050 3:0/<nil>@21290 2:64/<nil>@36448 1:4/<nil>@40338"},
		},
		{
			name: "recvany-word-midsweep", nodes: 4, rx: 0,
			mut: func(c *Config) { c.BurstPoll = BurstOff },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 1, 0, 4, 5*us, 30*us)
				sendAt(t, k, eps, 2, 0, 64, 12*us)
				sendAt(t, k, eps, 3, 0, 0, 12*us, 13*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 64)
					for i := 0; i < 5; i++ {
						s, n, err := eps[0].RecvAny(p, buf)
						record(res, "%d:%d/%v@%d", s, n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 488, Now: 47278, Polls: 36, PollWords: 36, PIOReadWords: 53, PIOWriteWords: 5, DMABytes: 64, BusyNs: 35968, Threshold: 20, WordNs: 650, Result: "1:4/<nil>@18800 3:0/<nil>@18950 3:0/<nil>@23600 2:64/<nil>@38518 1:4/<nil>@43818"},
		},
		{
			name: "tryrecv-loop", nodes: 2, rx: 1,
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 1, 16, 15*us, 16*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 16)
					for got, tries := 0, 0; got < 2; tries++ {
						n, ok, err := eps[1].TryRecv(p, 0, buf)
						if ok || err != nil {
							record(res, "%d/%v@%d#%d", n, err, p.Now(), tries)
							got++
							continue
						}
						p.Delay(300)
					}
				})
			},
			want: pollPin{Executed: 162, Now: 33180, Polls: 21, PollWords: 21, PIOReadWords: 35, PIOWriteWords: 2, BusyNs: 23050, Threshold: 20, WordNs: 650, Result: "16/<nil>@25700#19 16/<nil>@31450#20"},
		},
		{
			name: "msgavail-loops", nodes: 4, rx: 2,
			mut: func(c *Config) { c.BurstPoll = BurstOff },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 2, 4, 8*us)
				sendAt(t, k, eps, 3, 2, 4, 20*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 8)
					tries := 0
					for !eps[2].MsgAvailFrom(p, 0) {
						tries++
					}
					n, err := eps[2].Recv(p, 0, buf)
					record(res, "from0 %d/%v@%d#%d", n, err, p.Now(), tries)
					tries = 0
					for !eps[2].MsgAvail(p) {
						tries++
					}
					s, n, err := eps[2].RecvAny(p, buf)
					record(res, "any %d:%d/%v@%d#%d", s, n, err, p.Now(), tries)
				})
			},
			want: pollPin{Executed: 185, Now: 33560, Polls: 32, PollWords: 32, PIOReadWords: 40, PIOWriteWords: 2, BusyNs: 26300, Threshold: 20, WordNs: 650, Result: "from0 4/<nil>@15800#16 any 3:4/<nil>@30100#4"},
		},
		{
			name: "msgavail-burst", nodes: 4, rx: 2,
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 3, 2, 4, 9*us)
				k.Spawn("rx", func(p *sim.Proc) {
					tries := 0
					for !eps[2].MsgAvail(p) {
						tries++
					}
					s, n, err := eps[2].RecvAny(p, make([]byte, 8))
					record(res, "any %d:%d/%v@%d#%d", s, n, err, p.Now(), tries)
				})
			},
			want: pollPin{Executed: 97, Now: 21630, Polls: 18, PollWords: 72, BurstPolls: 18, BurstPollWords: 72, PIOReadWords: 4, PIOReadBursts: 18, PIOReadBurstWords: 72, PIOWriteWords: 1, BusyNs: 16070, Threshold: 20, WordNs: 650, Result: "any 3:4/<nil>@18170#17"},
		},
		{
			name: "retry-word-daemon-on-bus", nodes: 3, rx: 1,
			mut: func(c *Config) {
				c.Retry = DefaultRetryConfig()
				c.BurstPoll = BurstOff
			},
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				// Node 1 posts to node 2, which does not receive for
				// 700 µs: node 1's retry daemon rereads ACK words and
				// retransmits on node 1's bus while node 1 idles in Recv.
				sendAt(t, k, eps, 1, 2, 32, 0)
				sendAt(t, k, eps, 0, 1, 8, 500*us)
				k.Spawn("rx", func(p *sim.Proc) {
					n, err := eps[1].Recv(p, 0, make([]byte, 16))
					record(res, "%d/%v@%d", n, err, p.Now())
				})
				k.Spawn("late", func(p *sim.Proc) {
					p.Delay(700 * us)
					n, err := eps[2].Recv(p, 1, make([]byte, 32))
					record(res, "late %d/%v@%d", n, err, p.Now())
				})
			},
			want: pollPin{Executed: 1616, Now: 768900, Polls: 356, PollWords: 712, PIOReadWords: 808, PIOWriteWords: 57, BusyNs: 533750, Threshold: 20, WordNs: 683, Result: "8/<nil>@561900 late 32/<nil>@756984"},
		},
		{
			name: "retry-burst", nodes: 2, rx: 1,
			mut: func(c *Config) { c.Retry = DefaultRetryConfig() },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 1, 24, 7*us, 9*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 32)
					for i := 0; i < 2; i++ {
						n, err := eps[1].Recv(p, 0, buf)
						record(res, "%d/%v@%d", n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 203, Now: 112950, Polls: 19, PollWords: 76, BurstPolls: 19, BurstPollWords: 76, PIOReadWords: 80, PIOReadBursts: 19, PIOReadBurstWords: 76, PIOWriteWords: 2, DMABytes: 48, BusyNs: 66936, Threshold: 20, WordNs: 650, Result: "24/<nil>@71748 24/<nil>@74936"},
		},
		{
			name: "retry-lossy-recvany-word", nodes: 3, rx: 0, drop: 0.15,
			mut: func(c *Config) {
				c.Retry = DefaultRetryConfig()
				c.BurstPoll = BurstOff
			},
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 1, 0, 40, 5*us, 6*us, 7*us, 300*us)
				sendAt(t, k, eps, 2, 0, 12, 8*us, 9*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 64)
					for i := 0; i < 6; i++ {
						s, n, err := eps[0].RecvAny(p, buf)
						record(res, "%d:%d/%v@%d", s, n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 1284, Now: 383050, Polls: 90, PollWords: 180, PIOReadWords: 506, PIOWriteWords: 11, DMABytes: 160, BusyNs: 332470, Threshold: 20, WordNs: 650, Result: "2:12/<nil>@74300 2:12/<nil>@76400 1:40/<nil>@288580 1:40/<nil>@291960 1:40/<nil>@295340 1:40/<nil>@354270"},
		},
		{
			name: "retry-lossy-recv-burst", nodes: 3, rx: 0, drop: 0.15,
			mut: func(c *Config) { c.Retry = DefaultRetryConfig() },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 1, 0, 40, 5*us, 6*us, 7*us, 300*us)
				sendAt(t, k, eps, 2, 0, 12, 8*us, 9*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 64)
					for i := 0; i < 4; i++ {
						n, err := eps[0].Recv(p, 1, buf)
						record(res, "%d/%v@%d", n, err, p.Now())
					}
					for i := 0; i < 2; i++ {
						n, err := eps[0].Recv(p, 2, buf)
						record(res, "%d/%v@%d", n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 23237, Now: 102424650, Polls: 372, PollWords: 2232, BurstPolls: 372, BurstPollWords: 2232, PIOReadWords: 646, PIOReadBursts: 372, PIOReadBurstWords: 2232, PIOWriteWords: 6, DMABytes: 160, BusyNs: 720320, Threshold: 20, WordNs: 650, Result: "40/<nil>@755980 40/<nil>@759360 40/<nil>@762740 40/<nil>@766120 12/<nil>@768220 12/<nil>@770320"},
		},
		{
			name: "dma-in-flight", nodes: 2, rx: 1,
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 1, 8, 60*us)
				k.Spawn("dma", func(p *sim.Proc) {
					// Two bursts on the receiver's bus while it idles:
					// its poll reads queue behind them.
					p.Delay(5 * us)
					eps[1].nic.Bus().DMAAsync(p, 2048, nil)
					p.Delay(20 * us)
					eps[1].nic.Bus().DMAAsync(p, 1000, nil)
				})
				k.Spawn("rx", func(p *sim.Proc) {
					n, err := eps[1].Recv(p, 0, make([]byte, 16))
					record(res, "%d/%v@%d", n, err, p.Now())
				})
			},
			want: pollPin{Executed: 123, Now: 70306, Polls: 38, PollWords: 38, PIOReadWords: 43, PIOWriteWords: 1, DMABytes: 3048, BusyNs: 64676, Threshold: 16, WordNs: 760, Result: "8/<nil>@68576"},
		},
		{
			name: "interrupt-driven", nodes: 3, rx: 1,
			mut: func(c *Config) { c.InterruptDriven = true },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 1, 8, 10*us)
				sendAt(t, k, eps, 2, 1, 8, 25*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 16)
					n, err := eps[1].Recv(p, 0, buf)
					record(res, "%d/%v@%d", n, err, p.Now())
					s, n, err := eps[1].RecvAny(p, buf)
					record(res, "any %d:%d/%v@%d", s, n, err, p.Now())
				})
			},
			want: pollPin{Executed: 125, Now: 46310, Polls: 4, PollWords: 8, BurstPolls: 2, BurstPollWords: 6, PIOReadWords: 12, PIOReadBursts: 2, PIOReadBurstWords: 6, PIOWriteWords: 2, BusyNs: 9520, Threshold: 20, WordNs: 650, Result: "8/<nil>@27790 any 2:8/<nil>@43715"},
		},
		{
			name: "recv-timeout", nodes: 3, rx: 1,
			mut: func(c *Config) { c.RecvTimeout = 30 * us },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				k.Spawn("rx", func(p *sim.Proc) {
					n, err := eps[1].Recv(p, 0, make([]byte, 8))
					record(res, "%d/%v@%d", n, err, p.Now())
					s, n, err := eps[1].RecvAny(p, make([]byte, 8))
					record(res, "any %d:%d/%v@%d", s, n, err, p.Now())
				})
			},
			want: pollPin{Executed: 159, Now: 61530, Polls: 79, PollWords: 155, BurstPolls: 38, BurstPollWords: 114, PIOReadWords: 41, PIOReadBursts: 38, PIOReadBurstWords: 114, BusyNs: 53630, Threshold: 20, WordNs: 650, Result: "0/bbp: operation timed out@30750 any 0:0/bbp: operation timed out@61530"},
		},
		{
			name: "two-waiters", nodes: 3, rx: 1,
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 1, 8, 20*us)
				sendAt(t, k, eps, 2, 1, 8, 9*us, 35*us)
				k.Spawn("rx-a", func(p *sim.Proc) {
					n, err := eps[1].Recv(p, 0, make([]byte, 16))
					record(res, "a %d/%v@%d", n, err, p.Now())
				})
				k.Spawn("rx-b", func(p *sim.Proc) {
					buf := make([]byte, 16)
					for i := 0; i < 2; i++ {
						n, err := eps[1].Recv(p, 2, buf)
						record(res, "b %d/%v@%d", n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 266, Now: 46895, Polls: 50, PollWords: 50, PIOReadWords: 65, PIOWriteWords: 3, BusyNs: 42700, Threshold: 16, WordNs: 760, Result: "b 8/<nil>@19750 a 8/<nil>@30950 b 8/<nil>@44300"},
		},
		{
			// MsgAvail with messages from two senders already queued
			// still polls every sender.
			name: "msgavail-word-pending", nodes: 4, rx: 2,
			mut: func(c *Config) { c.BurstPoll = BurstOff },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 2, 4, 5*us)
				sendAt(t, k, eps, 3, 2, 4, 6*us)
				sendAt(t, k, eps, 1, 2, 4, 30*us)
				k.Spawn("rx", func(p *sim.Proc) {
					p.Delay(15 * us)
					for i := 0; i < 3; i++ {
						record(res, "avail %v@%d", eps[2].MsgAvail(p), p.Now())
					}
					buf := make([]byte, 8)
					for i := 0; i < 3; i++ {
						s, n, err := eps[2].RecvAny(p, buf)
						record(res, "any %d:%d/%v@%d", s, n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 224, Now: 43360, Polls: 21, PollWords: 21, PIOReadWords: 33, PIOWriteWords: 3, BusyNs: 21900, Threshold: 20, WordNs: 650, Result: "avail true@21750 avail true@24000 avail true@26250 any 0:4/<nil>@27050 any 3:4/<nil>@27850 any 1:4/<nil>@39900"},
		},
		{
			// The poll that crosses the deadline detects the message:
			// Recv times out with it queued, and the next Recv takes
			// it without a poll.
			name: "recv-deadline-detect", nodes: 2, rx: 1,
			mut: func(c *Config) { c.RecvTimeout = 20 * us },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 1, 8, 13*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 16)
					for i := 0; i < 2; i++ {
						n, err := eps[1].Recv(p, 0, buf)
						record(res, "%d/%v@%d", n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 90, Now: 23430, Polls: 24, PollWords: 24, PIOReadWords: 29, PIOWriteWords: 1, BusyNs: 19000, Threshold: 20, WordNs: 650, Result: "0/bbp: operation timed out@20250 8/<nil>@21700"},
		},
		{
			name: "recvany-deadline-detect", nodes: 3, rx: 1,
			mut: func(c *Config) { c.RecvTimeout = 20 * us },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 2, 1, 8, 13*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 16)
					for i := 0; i < 2; i++ {
						s, n, err := eps[1].RecvAny(p, buf)
						record(res, "any %d:%d/%v@%d", s, n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 102, Now: 24925, Polls: 23, PollWords: 69, BurstPolls: 23, BurstPollWords: 69, PIOReadWords: 5, PIOReadBursts: 23, PIOReadBurstWords: 69, PIOWriteWords: 1, BusyNs: 19730, Threshold: 20, WordNs: 650, Result: "any 0:0/bbp: operation timed out@20880 any 2:8/<nil>@22330"},
		},
		{
			name: "interrupt-timeout-retry", nodes: 3, rx: 1,
			mut: func(c *Config) {
				c.InterruptDriven = true
				c.RecvTimeout = 30 * us
				c.Retry = DefaultRetryConfig()
			},
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				sendAt(t, k, eps, 0, 1, 8, 10*us)
				sendAt(t, k, eps, 2, 1, 8, 70*us)
				k.Spawn("rx", func(p *sim.Proc) {
					buf := make([]byte, 16)
					for i := 0; i < 2; i++ {
						n, err := eps[1].Recv(p, 0, buf)
						record(res, "%d/%v@%d", n, err, p.Now())
					}
					for i := 0; i < 2; i++ {
						s, n, err := eps[1].RecvAny(p, buf)
						record(res, "any %d:%d/%v@%d", s, n, err, p.Now())
					}
				})
			},
			want: pollPin{Executed: 195, Now: 174050, Polls: 3, PollWords: 18, BurstPolls: 3, BurstPollWords: 18, PIOReadWords: 164, PIOReadBursts: 3, PIOReadBurstWords: 18, PIOWriteWords: 2, BusyNs: 109300, Threshold: 20, WordNs: 650, Result: "0/bbp: operation timed out@78385 8/<nil>@79835 any 0:0/bbp: operation timed out@133035 any 2:8/<nil>@134485"},
		},
		{
			name: "stream-rounds", nodes: 4, rx: 0,
			mut: func(c *Config) { c.Stream.Enabled = true },
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				for i := range eps {
					i := i
					k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
						for r := 0; r < 3; r++ {
							p.Delay(sim.Duration(3*i+1) * us)
							recv := make([]byte, 8)
							done, err := eps[i].StreamAllreduce(p, spin.OpSumU32, vecU32(uint32(i), 1), recv)
							if i == 0 {
								record(res, "%v/%v/%d@%d", done, err, getWord(recv), p.Now())
							}
						}
					})
				}
			},
			want: pollPin{Executed: 1054, Now: 76200, PIOReadWords: 27, PIOReadBursts: 54, PIOReadBurstWords: 216, PIOWriteWords: 24, BusyNs: 61110, Threshold: 20, WordNs: 650, Result: "true/<nil>/6@20310 true/<nil>/6@45660 true/<nil>/6@71010"},
		},
		{
			name: "stream-missing-rank", nodes: 4, rx: 2,
			mut: func(c *Config) {
				c.Stream.Enabled = true
				c.RecvTimeout = 40 * us
			},
			spawn: func(t *testing.T, k *sim.Kernel, eps []*Endpoint, res *string) {
				for i := 0; i < 3; i++ {
					i := i
					k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
						p.Delay(sim.Duration(2*i) * us)
						done, err := eps[i].StreamAllreduce(p, spin.OpSumU32, vecU32(1), make([]byte, 4))
						record(res, "%d:%v/%v@%d", i, done, err, p.Now())
					})
				}
			},
			want: pollPin{Executed: 360, Now: 43980, PIOReadWords: 51, PIOWriteWords: 2, BusyNs: 33450, Threshold: 20, WordNs: 650, Result: "0:false/<nil>@40520 1:false/<nil>@41950 2:false/<nil>@42450"},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := runPollScenario(t, sc)
			if got != sc.want {
				t.Errorf("timeline moved:\n got %+v\nwant %+v", got, sc.want)
			}
		})
	}
}
