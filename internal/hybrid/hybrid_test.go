package hybrid_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xport"
)

func world(t testing.TB, nodes int) (*sim.Kernel, *cluster.Cluster) {
	t.Helper()
	k := sim.NewKernel()
	c, err := cluster.New(k, cluster.Options{Nodes: nodes, Net: cluster.Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	return k, c
}

func TestSmallAndLargeRoundtrip(t *testing.T) {
	k, c := world(t, 2)
	small := []byte("tiny")
	large := make([]byte, 8000)
	sim.NewRNG(3).Bytes(large)
	var gotSmall, gotLarge []byte
	k.Spawn("tx", func(p *sim.Proc) {
		if err := c.Endpoints[0].Send(p, 1, small); err != nil {
			t.Error(err)
		}
		if err := c.Endpoints[0].Send(p, 1, large); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 16000)
		n, err := c.Endpoints[1].Recv(p, 0, buf)
		if err != nil {
			t.Error(err)
			return
		}
		gotSmall = append([]byte(nil), buf[:n]...)
		n, err = c.Endpoints[1].Recv(p, 0, buf)
		if err != nil {
			t.Error(err)
			return
		}
		gotLarge = append([]byte(nil), buf[:n]...)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSmall, small) || !bytes.Equal(gotLarge, large) {
		t.Fatal("payload mismatch across substrates")
	}
}

func TestResequencingAcrossSubstrates(t *testing.T) {
	// A large message (slow Myrinet path for the first bytes, then
	// fast) followed by a small one (fast BBP path): the small message
	// physically arrives first but must be delivered second.
	k, c := world(t, 2)
	var order []int
	k.Spawn("tx", func(p *sim.Proc) {
		if err := c.Endpoints[0].Send(p, 1, make([]byte, 4000)); err != nil {
			t.Error(err) // routed high: ~85µs+ path
		}
		if err := c.Endpoints[0].Send(p, 1, []byte{9}); err != nil {
			t.Error(err) // routed low: ~8µs path — overtakes on the wire
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8000)
		for i := 0; i < 2; i++ {
			n, err := c.Endpoints[1].Recv(p, 0, buf)
			if err != nil {
				t.Error(err)
				return
			}
			order = append(order, n)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 4000 || order[1] != 1 {
		t.Fatalf("delivery order %v; resequencing failed", order)
	}
}

func TestOrderingProperty(t *testing.T) {
	// Property: any interleaving of sizes straddling the threshold is
	// delivered in send order, bit-exact.
	f := func(seed uint64) bool {
		k, c := world(t, 2)
		defer k.Close()
		rng := sim.NewRNG(seed)
		const count = 15
		sizes := make([]int, count)
		for i := range sizes {
			if rng.Intn(2) == 0 {
				sizes[i] = rng.Intn(500) // low road
			} else {
				sizes[i] = 600 + rng.Intn(3000) // high road
			}
		}
		payload := func(i int) []byte {
			b := make([]byte, sizes[i])
			sim.NewRNG(uint64(i) + seed).Bytes(b)
			return b
		}
		ok := true
		k.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				if err := c.Endpoints[0].Send(p, 1, payload(i)); err != nil {
					ok = false
					return
				}
				p.Delay(sim.Duration(rng.Intn(20)) * sim.Microsecond)
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 8000)
			for i := 0; i < count; i++ {
				n, err := c.Endpoints[1].Recv(p, 0, buf)
				if err != nil || n != sizes[i] || !bytes.Equal(buf[:n], payload(i)) {
					ok = false
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBestOfBothWorlds(t *testing.T) {
	// The hybrid's small-message latency must be close to SCRAMNet's
	// (far below Myrinet API's), and its large-message latency close to
	// Myrinet's (far below SCRAMNet's).
	oneWay := func(net cluster.Network, n int) float64 {
		k := sim.NewKernel()
		defer k.Close()
		c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: net})
		if err != nil {
			t.Fatal(err)
		}
		var sent, recvd sim.Time
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, n+8)
			if _, err := c.Endpoints[1].Recv(p, 0, buf); err != nil {
				t.Error(err)
			}
			recvd = p.Now()
		})
		k.Spawn("tx", func(p *sim.Proc) {
			p.Delay(10 * sim.Microsecond)
			sent = p.Now()
			if err := c.Endpoints[0].Send(p, 1, make([]byte, n)); err != nil {
				t.Error(err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return recvd.Sub(sent).Microseconds()
	}
	smallHybrid := oneWay(cluster.Hybrid, 4)
	smallMyr := oneWay(cluster.MyrinetAPI, 4)
	if smallHybrid > smallMyr/3 {
		t.Errorf("hybrid 4B = %.1fµs, not ≪ Myrinet's %.1fµs", smallHybrid, smallMyr)
	}
	largeHybrid := oneWay(cluster.Hybrid, 32<<10)
	largeScr := oneWay(cluster.SCRAMNet, 32<<10)
	if largeHybrid > largeScr/3 {
		t.Errorf("hybrid 32K = %.1fµs, not ≪ SCRAMNet's %.1fµs", largeHybrid, largeScr)
	}
}

func TestMcastOverHybrid(t *testing.T) {
	k, c := world(t, 4)
	msg := []byte("to everyone")
	ok := make([]bool, 4)
	k.Spawn("tx", func(p *sim.Proc) {
		if err := c.Endpoints[0].Mcast(p, []int{1, 2, 3}, msg); err != nil {
			t.Error(err)
		}
	})
	for r := 1; r < 4; r++ {
		r := r
		k.Spawn(fmt.Sprintf("rx%d", r), func(p *sim.Proc) {
			buf := make([]byte, 64)
			n, err := c.Endpoints[r].Recv(p, 0, buf)
			ok[r] = err == nil && bytes.Equal(buf[:n], msg)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if !ok[r] {
			t.Errorf("node %d missed hybrid multicast", r)
		}
	}
}

func TestMPIOverHybrid(t *testing.T) {
	// The full MPI stack, including multicast collectives, runs over
	// the hybrid transport.
	k := sim.NewKernel()
	_, w, err := cluster.NewMPIWorld(k, cluster.Hybrid, 4)
	if err != nil {
		t.Fatal(err)
	}
	mcast := mpi.WithAlgorithm(mpi.Mcast)
	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		buf := make([]byte, 2000)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		if err := c.Bcast(p, 0, buf, mcast); err != nil {
			t.Error(err)
			return
		}
		for i := range buf {
			if buf[i] != byte(i) {
				t.Errorf("rank %d: bcast corrupted at %d", c.Rank(), i)
				return
			}
		}
		if err := c.Barrier(p, mcast); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnyAcrossSubstrates(t *testing.T) {
	// Messages from two sources on different roads (small via BBP,
	// large via Myrinet) are both collectable with RecvAny.
	k, c := world(t, 3)
	counts := map[int]int{}
	k.Spawn("tx1", func(p *sim.Proc) {
		if err := c.Endpoints[1].Send(p, 0, []byte("small")); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("tx2", func(p *sim.Proc) {
		if err := c.Endpoints[2].Send(p, 0, make([]byte, 3000)); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8000)
		for i := 0; i < 2; i++ {
			src, n, err := c.Endpoints[0].RecvAny(p, buf)
			if err != nil {
				t.Error(err)
				return
			}
			counts[src] = n
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[1] != 5 || counts[2] != 3000 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestRecvTimeout(t *testing.T) {
	// Assemble a hybrid endpoint directly so the timeout is short.
	k := sim.NewKernel()
	c2, err := cluster.New(k, cluster.Options{Nodes: 2, Net: cluster.SCRAMNet})
	if err != nil {
		t.Fatal(err)
	}
	c3, err := cluster.New(k, cluster.Options{Nodes: 2, Net: cluster.MyrinetAPI})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hybrid.DefaultConfig()
	cfg.RecvTimeout = 300 * sim.Microsecond
	ep, err := hybrid.New(c2.Endpoints[0], c3.Endpoints[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recvErr, anyErr error
	k.Spawn("rx", func(p *sim.Proc) {
		_, recvErr = ep.Recv(p, 1, make([]byte, 8))
		_, _, anyErr = ep.RecvAny(p, make([]byte, 8))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvErr != hybrid.ErrTimeout || anyErr != hybrid.ErrTimeout {
		t.Fatalf("errors = %v, %v; want ErrTimeout", recvErr, anyErr)
	}
}

// substrates builds a SCRAMNet and a Myrinet API world of nodes
// processes on k, the pair cluster.Hybrid routes across.
func substrates(t testing.TB, k *sim.Kernel, nodes int) (low, high []xport.Endpoint) {
	t.Helper()
	lc, err := cluster.New(k, cluster.Options{Nodes: nodes, Net: cluster.SCRAMNet})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := cluster.New(k, cluster.Options{Nodes: nodes, Net: cluster.MyrinetAPI})
	if err != nil {
		t.Fatal(err)
	}
	return lc.Endpoints, hc.Endpoints
}

// untaken hides every method of an endpoint but xport.Endpoint's.
type untaken struct{ xport.Endpoint }

// unprobed hides every method of an endpoint but xport.Endpoint's and
// TryTake.
type unprobed struct {
	xport.Endpoint
	xport.Taker
}

// TestConfigValidation checks each of New's rejections for its own
// reason, over substrates that pass every other check.
func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	low, high := substrates(t, k, 2)
	bad := hybrid.DefaultConfig()
	bad.Threshold = 1 << 30
	negative := hybrid.DefaultConfig()
	negative.Threshold = -1
	for _, tc := range []struct {
		name      string
		low, high xport.Endpoint
		cfg       hybrid.Config
		want      string
	}{
		{"rank mismatch", low[0], high[1], hybrid.DefaultConfig(), "endpoints disagree"},
		{"oversized threshold", low[0], high[0], bad, "threshold"},
		{"negative threshold", low[0], high[0], negative, "threshold"},
		{"low without TryTake", untaken{low[0]}, high[0], hybrid.DefaultConfig(), "low-latency transport hybrid_test.untaken does not implement xport.Taker"},
		{"high without TryTake", low[0], untaken{high[0]}, hybrid.DefaultConfig(), "high-bandwidth transport hybrid_test.untaken does not implement xport.Taker"},
		{"low without Probe", unprobed{low[0], low[0].(xport.Taker)}, high[0], hybrid.DefaultConfig(), "low-latency transport hybrid_test.unprobed does not implement xport.Prober"},
		{"high without Probe", low[0], unprobed{high[0], high[0].(xport.Taker)}, hybrid.DefaultConfig(), "high-bandwidth transport hybrid_test.unprobed does not implement xport.Prober"},
	} {
		_, err := hybrid.New(tc.low, tc.high, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := hybrid.New(low[0], high[0], hybrid.DefaultConfig()); err != nil {
		t.Fatalf("valid pair rejected: %v", err)
	}
}

// TestNewAllocs bounds what building one router endpoint allocates: its
// receive buffers grow with the messages it takes, so the substrates'
// MaxMessage (1 MiB over Myrinet) must not show up front.
func TestNewAllocs(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	low, high := substrates(t, k, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := hybrid.New(low[0], high[0], hybrid.DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	const limit = 64 << 10
	t.Logf("New allocated %d bytes; the substrates' MaxMessage is %d and %d", got, low[0].MaxMessage(), high[0].MaxMessage())
	if got >= limit {
		t.Fatalf("New allocated %d bytes, want under %d", got, limit)
	}
}

// TestLargeMessageOverLowPath raises the threshold to the largest
// message the ring can carry and sends one after a one-byte message:
// the router takes it in a buffer sized to it, far larger than any it
// had taken before, and it crosses the BillBoard Protocol intact.
func TestLargeMessageOverLowPath(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	low, high := substrates(t, k, 2)
	cfg := hybrid.DefaultConfig()
	cfg.Threshold = low[0].MaxMessage() - 4 // the router's 4-byte header
	var eps [2]*hybrid.Endpoint
	for i := range eps {
		var err error
		if eps[i], err = hybrid.New(low[i], high[i], cfg); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, cfg.Threshold)
	sim.NewRNG(9).Bytes(big)
	k.Spawn("tx", func(p *sim.Proc) {
		for _, m := range [][]byte{{7}, big} {
			if err := eps[0].Send(p, 1, m); err != nil {
				t.Error(err)
			}
		}
	})
	var got [][]byte
	k.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, len(big))
		for i := 0; i < 2; i++ {
			n, err := eps[1].Recv(p, 0, buf)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, append([]byte(nil), buf[:n]...))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], []byte{7}) || !bytes.Equal(got[1], big) {
		t.Fatal("payload mismatch over the low-latency path")
	}
	if st := low[1].(*core.Endpoint).Stats(); st.Received != 2 || st.BytesRecv != int64(2*4+1+len(big)) {
		t.Fatalf("the ring delivered %d messages of %d bytes, want both, headers included", st.Received, st.BytesRecv)
	}
}

// TestMcastValidatesBeforeSequencing: a multicast with a bad
// destination list fails before it touches the per-destination stream
// sequence, and a duplicate destination advances its sequence once, so
// the next unicast to that peer is still released in order.
func TestMcastValidatesBeforeSequencing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dsts    []int
		wantErr bool
		want    []string // what rank 1 receives from rank 0, in order
	}{
		{"self", []int{1, 0}, true, []string{"next"}},
		{"out-of-range", []int{1, 4}, true, []string{"next"}},
		{"negative", []int{1, -1}, true, []string{"next"}},
		{"nil", nil, true, []string{"next"}},
		{"duplicate", []int{1, 1}, false, []string{"mcast", "next"}},
		{"valid", []int{2, 1, 3}, false, []string{"mcast", "next"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, c := world(t, 4)
			defer k.Close()
			k.Spawn("tx", func(p *sim.Proc) {
				err := c.Endpoints[0].Mcast(p, tc.dsts, []byte("mcast"))
				if (err != nil) != tc.wantErr {
					t.Errorf("Mcast(%v) = %v, want error %v", tc.dsts, err, tc.wantErr)
				}
				if err := c.Endpoints[0].Send(p, 1, []byte("next")); err != nil {
					t.Error(err)
				}
			})
			var got []string
			k.Spawn("rx1", func(p *sim.Proc) {
				buf := make([]byte, 64)
				for range tc.want {
					n, err := c.Endpoints[1].Recv(p, 0, buf)
					if err != nil {
						t.Errorf("rank 1 recv after %q: %v", got, err)
						return
					}
					got = append(got, string(buf[:n]))
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("rank 1 received %q, want %q", got, tc.want)
			}
		})
	}
}

// TestHighPathAllocs gates the high-bandwidth path's steady state: once
// warm, a 64 KiB message over the Myrinet substrate (sixteen fabric
// frames, reassembled, resequenced and copied out) allocates nothing.
func TestHighPathAllocs(t *testing.T) {
	k, c := world(t, 2)
	defer k.Close()
	const size = 64 << 10
	msg := make([]byte, size)
	sim.NewRNG(5).Bytes(msg)
	got := 0
	k.SpawnDaemon("rx", func(p *sim.Proc) {
		buf := make([]byte, size)
		for {
			n, err := c.Endpoints[1].Recv(p, 0, buf)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf[:n], msg) {
				t.Error("payload mismatch")
				return
			}
			got++
		}
	})
	send := k.Spawn("tx", func(p *sim.Proc) {
		for {
			p.Park()
			if err := c.Endpoints[0].Send(p, 1, msg); err != nil {
				t.Error(err)
				return
			}
		}
	}).Resume
	round := func() {
		k.At(k.Now(), send)
		k.RunFor(5 * sim.Millisecond)
	}
	const warm = 10
	for i := 0; i < warm; i++ {
		round()
	}
	twenty := func() {
		for i := 0; i < 20; i++ {
			round()
		}
	}
	if allocs := testing.AllocsPerRun(1, twenty); allocs != 0 {
		t.Fatalf("twenty 64 KiB Send/Recv messages allocate %v times, want 0", allocs)
	}
	if want := warm + 40; got != want {
		t.Fatalf("received %d messages, want %d", got, want)
	}
}
