// Package conformance runs one behavioral test battery against every
// xport.Endpoint implementation — the BillBoard Protocol, the three
// TCP-lite stacks, the native Myrinet API, and the hybrid router — so
// that the MPI engine's assumptions (reliability, per-stream FIFO,
// exact message boundaries, non-blocking polls) and the rest of the
// xport.Endpoint contract (round-robin RecvAny, truncated receives
// that consume the message, one Mcast destination rule) are guaranteed
// to hold on every substrate it can be configured over.
package conformance

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xport"
)

// build constructs a 4-node world on the given network.
func build(t *testing.T, net cluster.Network) (*sim.Kernel, []xport.Endpoint) {
	t.Helper()
	k := sim.NewKernel()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	return k, c.Endpoints
}

func forEachNetwork(t *testing.T, fn func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint)) {
	for _, net := range cluster.AllNetworks {
		net := net
		t.Run(string(net), func(t *testing.T) {
			k, eps := build(t, net)
			fn(t, k, eps)
		})
	}
}

func TestIdentity(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		defer k.Close()
		for i, ep := range eps {
			if ep.Rank() != i || ep.Procs() != 4 {
				t.Errorf("endpoint %d: Rank=%d Procs=%d", i, ep.Rank(), ep.Procs())
			}
			if ep.MaxMessage() < 1024 {
				t.Errorf("endpoint %d: MaxMessage %d implausibly small", i, ep.MaxMessage())
			}
		}
	})
}

func TestBoundariesPreserved(t *testing.T) {
	// Three differently-sized messages arrive as three messages with
	// exact lengths — never coalesced or split at the API.
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		sizes := []int{1, 900, 17}
		k.Spawn("tx", func(p *sim.Proc) {
			for i, n := range sizes {
				msg := bytes.Repeat([]byte{byte(i + 1)}, n)
				if err := eps[0].Send(p, 1, msg); err != nil {
					t.Error(err)
					return
				}
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 2048)
			for i, want := range sizes {
				n, err := eps[1].Recv(p, 0, buf)
				if err != nil || n != want || buf[0] != byte(i+1) {
					t.Errorf("msg %d: n=%d want=%d err=%v", i, n, want, err)
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPerStreamFIFOUnderCrossTraffic(t *testing.T) {
	// Streams from two senders interleave arbitrarily, but each stream
	// is individually ordered.
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		const per = 12
		for _, s := range []int{1, 2} {
			s := s
			k.Spawn(fmt.Sprintf("tx%d", s), func(p *sim.Proc) {
				for i := 0; i < per; i++ {
					if err := eps[s].Send(p, 0, []byte{byte(s), byte(i)}); err != nil {
						t.Error(err)
						return
					}
					p.Delay(sim.Duration(s*13) * sim.Microsecond)
				}
			})
		}
		k.Spawn("rx", func(p *sim.Proc) {
			next := map[int]byte{1: 0, 2: 0}
			buf := make([]byte, 8)
			for got := 0; got < 2*per; got++ {
				src, n, err := eps[0].RecvAny(p, buf)
				if err != nil || n != 2 || int(buf[0]) != src {
					t.Errorf("RecvAny: src=%d n=%d err=%v", src, n, err)
					return
				}
				if buf[1] != next[src] {
					t.Errorf("stream %d out of order: got %d want %d", src, buf[1], next[src])
					return
				}
				next[src]++
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTryRecvNeverFalsePositive(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 64)
			// Nothing sent: repeated polls must all miss.
			for i := 0; i < 5; i++ {
				if _, ok, err := eps[2].TryRecv(p, 1, buf); ok || err != nil {
					t.Errorf("poll %d: ok=%v err=%v", i, ok, err)
					return
				}
			}
		})
		k.Spawn("tx", func(p *sim.Proc) {
			p.Delay(1 * sim.Millisecond) // after the negative polls above
			if err := eps[1].Send(p, 2, []byte("late")); err != nil {
				t.Error(err)
				return
			}
		})
		k.Spawn("rx2", func(p *sim.Proc) {
			// Eventually the message is pollable exactly once.
			p.Delay(5 * sim.Millisecond)
			buf := make([]byte, 64)
			n, ok, err := eps[2].TryRecv(p, 1, buf)
			if !ok || err != nil || string(buf[:n]) != "late" {
				t.Errorf("TryRecv after delivery: ok=%v n=%d err=%v", ok, n, err)
				return
			}
			if _, ok, _ := eps[2].TryRecv(p, 1, buf); ok {
				t.Error("message delivered twice")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMcastReachesAllDestinations(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		msg := []byte("fanout")
		got := make([]bool, 4)
		k.Spawn("tx", func(p *sim.Proc) {
			if err := eps[3].Mcast(p, []int{0, 1, 2}, msg); err != nil {
				t.Error(err)
			}
		})
		for r := 0; r < 3; r++ {
			r := r
			k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
				buf := make([]byte, 64)
				n, err := eps[r].Recv(p, 3, buf)
				got[r] = err == nil && bytes.Equal(buf[:n], msg)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if !got[r] {
				t.Errorf("destination %d missed the mcast", r)
			}
		}
	})
}

func TestZeroByteMessages(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		k.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				if err := eps[0].Send(p, 1, nil); err != nil {
					t.Error(err)
					return
				}
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				n, err := eps[1].Recv(p, 0, make([]byte, 8))
				if err != nil || n != 0 {
					t.Errorf("zero-byte recv %d: n=%d err=%v", i, n, err)
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBidirectionalSimultaneous(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		ok := [2]bool{}
		for i := 0; i < 2; i++ {
			i := i
			k.Spawn(fmt.Sprintf("node%d", i), func(p *sim.Proc) {
				peer := 1 - i
				msg := bytes.Repeat([]byte{byte(i + 1)}, 300)
				if err := eps[i].Send(p, peer, msg); err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 512)
				n, err := eps[i].Recv(p, peer, buf)
				ok[i] = err == nil && n == 300 && buf[0] == byte(peer+1)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok[0] || !ok[1] {
			t.Fatalf("simultaneous exchange: %v", ok)
		}
	})
}

func TestLargestSingleMessage(t *testing.T) {
	// Each substrate must carry a reasonably large message intact (64
	// KiB, or its own max if smaller).
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		size := 64 << 10
		if m := eps[0].MaxMessage(); m < size {
			size = m
		}
		payload := make([]byte, size)
		sim.NewRNG(99).Bytes(payload)
		ok := false
		k.Spawn("tx", func(p *sim.Proc) {
			if err := eps[0].Send(p, 1, payload); err != nil {
				t.Error(err)
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, size+1)
			n, err := eps[1].Recv(p, 0, buf)
			ok = err == nil && n == size && bytes.Equal(buf[:n], payload)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%d-byte message corrupted or lost", size)
		}
	})
}

func TestBadRanksRejectedAtOnce(t *testing.T) {
	// A send to, or a receive from, a rank outside the world or the
	// caller itself fails at once: no clock advance, no poll loop, no
	// panic, and the endpoint still carries a valid message afterwards.
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		bad := []int{-1, 0, eps[0].Procs()}
		got := ""
		k.Spawn("node0", func(p *sim.Proc) {
			buf := make([]byte, 64)
			for _, r := range bad {
				start := p.Now()
				if err := eps[0].Send(p, r, []byte("x")); err == nil {
					t.Errorf("Send to %d accepted", r)
				}
				if _, err := eps[0].Recv(p, r, buf); err == nil {
					t.Errorf("Recv from %d accepted", r)
				}
				if _, ok, err := eps[0].TryRecv(p, r, buf); err == nil || ok {
					t.Errorf("TryRecv from %d: ok=%v err=%v", r, ok, err)
				}
				if p.Now() != start {
					t.Errorf("rank %d: rejecting the calls took %s", r, p.Now().Sub(start))
				}
			}
			n, err := eps[0].Recv(p, 1, buf)
			if err != nil {
				t.Errorf("valid recv after the rejected calls: %v", err)
				return
			}
			got = string(buf[:n])
		})
		k.Spawn("node1", func(p *sim.Proc) {
			if err := eps[1].Send(p, 0, []byte("still here")); err != nil {
				t.Error(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != "still here" {
			t.Errorf("valid message after the rejected calls: got %q", got)
		}
	})
}

func TestRecvAnyRoundRobin(t *testing.T) {
	// With three messages waiting from each of ranks 1 and 2, RecvAny
	// alternates between them: no sender starves the other.
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		for _, s := range []int{1, 2} {
			s := s
			k.Spawn(fmt.Sprintf("tx%d", s), func(p *sim.Proc) {
				for i := 0; i < 3; i++ {
					if err := eps[s].Send(p, 0, []byte{byte(s), byte(i)}); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		var order []int
		k.Spawn("rx", func(p *sim.Proc) {
			p.Delay(10 * sim.Millisecond) // every message has arrived
			buf := make([]byte, 8)
			for i := 0; i < 6; i++ {
				src, _, err := eps[0].RecvAny(p, buf)
				if err != nil {
					t.Errorf("RecvAny %d: %v", i, err)
					return
				}
				order = append(order, src)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(order); got != "[1 2 1 2 1 2]" {
			t.Errorf("RecvAny served %s, want [1 2 1 2 1 2]", got)
		}
	})
}

func TestTruncatedRecvConsumes(t *testing.T) {
	// A receive into a buffer shorter than the message fails and
	// consumes the message: twenty of them in a row neither replay the
	// same message nor pin the sender's resources, and the message
	// after them arrives intact.
	forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
		const truncated = 20
		k.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < truncated; i++ {
				if err := eps[0].Send(p, 1, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
			if err := eps[0].Send(p, 1, []byte("after")); err != nil {
				t.Errorf("send after the truncated receives: %v", err)
			}
		})
		got := ""
		k.Spawn("rx", func(p *sim.Proc) {
			small := make([]byte, 8)
			for i := 0; i < truncated; i++ {
				if n, err := eps[1].Recv(p, 0, small); err == nil {
					t.Errorf("truncated recv %d: n=%d, no error", i, n)
					return
				}
			}
			buf := make([]byte, 64)
			n, err := eps[1].Recv(p, 0, buf)
			if err != nil {
				t.Errorf("recv after the truncated receives: %v", err)
				return
			}
			got = string(buf[:n])
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != "after" {
			t.Errorf("message after the truncated receives: got %q, want %q", got, "after")
		}
	})
}

func TestMcastDestinationRule(t *testing.T) {
	// Mcast checks the whole list before sending: an empty list, self
	// or an out-of-range rank fails with nothing delivered, and a
	// repeated destination gets one copy. Both sizes are checked, so
	// the hybrid router's high-bandwidth path is covered too.
	for _, size := range []int{16, 1024} {
		size := size
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			forEachNetwork(t, func(t *testing.T, k *sim.Kernel, eps []xport.Endpoint) {
				bad := bytes.Repeat([]byte{0xba}, size)
				good := bytes.Repeat([]byte{0x60}, size)
				k.Spawn("tx", func(p *sim.Proc) {
					for _, dsts := range [][]int{{2, 9}, nil, {}, {1, 0}, {2, -1}} {
						if err := eps[0].Mcast(p, dsts, bad); err == nil {
							t.Errorf("Mcast to %v accepted", dsts)
						}
					}
					if err := eps[0].Mcast(p, []int{1, 1}, good); err != nil {
						t.Errorf("Mcast to [1 1]: %v", err)
					}
					for _, d := range []int{1, 2} {
						if err := eps[0].Send(p, d, []byte("end")); err != nil {
							t.Error(err)
						}
					}
				})
				got := map[int][]string{}
				for _, r := range []int{1, 2} {
					r := r
					k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
						buf := make([]byte, 2*size)
						for {
							n, err := eps[r].Recv(p, 0, buf)
							if err != nil {
								t.Errorf("rank %d: %v", r, err)
								return
							}
							switch {
							case string(buf[:n]) == "end":
								got[r] = append(got[r], "end")
								return
							case bytes.Equal(buf[:n], good):
								got[r] = append(got[r], "good")
							default:
								got[r] = append(got[r], "bad")
							}
						}
					})
				}
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if s := fmt.Sprint(got[1]); s != "[good end]" {
					t.Errorf("rank 1 received %s, want [good end]", s)
				}
				if s := fmt.Sprint(got[2]); s != "[end]" {
					t.Errorf("rank 2 received %s, want [end]", s)
				}
			})
		})
	}
}
