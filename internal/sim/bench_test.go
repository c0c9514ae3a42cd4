package sim

import (
	"fmt"
	"testing"
)

// These benchmarks measure the simulator itself (real CPU time), since
// every reproduction result is bottlenecked by kernel event throughput.

// BenchmarkKernelSteadyState measures one event in the heap the
// workloads run: about 20 live entries. Sixteen chains of plain events
// of mixed kinds and two Servers, each with a backlog of one to three
// jobs, reschedule their successor from inside every event, at delays
// drawn once from a seeded table that includes same-instant ties. One
// op is one executed event.
func BenchmarkKernelSteadyState(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	var delays [256]Duration
	rng := NewRNG(1)
	for i := range delays {
		delays[i] = Duration(rng.Intn(8) * 100)
	}
	left, next := b.N, 0
	delay := func() Duration {
		next++
		return delays[next&(len(delays)-1)]
	}
	kinds := [...]Kind{KindProc, KindRing, KindEvent, KindProc, KindBus, KindObserver, KindProc, KindFabric}
	for i := 0; i < 16; i++ {
		kind := kinds[i%len(kinds)]
		var fn func()
		fn = func() {
			if left > 0 {
				left--
				k.AfterKind(delay(), kind, fn)
			}
		}
		k.AfterKind(delay(), kind, fn)
	}
	for i := 0; i < 2; i++ {
		s := NewServer(k)
		var done func()
		done = func() {
			if left > 0 {
				left--
				s.Serve(delay()+50, done)
			}
		}
		for j := 0; j <= i+1; j++ {
			s.Serve(delay()+50, done)
		}
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if left != 0 {
		b.Fatalf("%d events left unscheduled", left)
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Spawn("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCondHandoffPingPong(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	a, c := NewCond(k), NewCond(k)
	turn := 0
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for turn != 0 {
				a.Wait(p)
			}
			turn = 1
			c.Signal()
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for turn != 1 {
				c.Wait(p)
			}
			turn = 0
			a.Signal()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkServerPipeline(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	servers := make([]*Server, 8)
	for i := range servers {
		servers[i] = NewServer(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var forward func(stage int)
		forward = func(stage int) {
			if stage == len(servers) {
				return
			}
			servers[stage].Serve(100, func() { forward(stage + 1) })
		}
		forward(0)
		k.Run()
	}
}

// BenchmarkServerBacklog books a 128-job backlog on each of 8 servers
// (the shape of a 512 B DMA burst: 128 four-byte ring packets queued
// on one link) and drains it; one op is the 1024 completions.
func BenchmarkServerBacklog(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	servers := make([]*Server, 8)
	for i := range servers {
		servers[i] = NewServer(k)
	}
	count := 0
	done := func() { count++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range servers {
			for j := 0; j < 128; j++ {
				s.Serve(615, done)
			}
		}
		k.Run()
	}
	if count != 1024*b.N {
		b.Fatalf("ran %d of %d completions", count, 1024*b.N)
	}
}

func BenchmarkManyProcsRoundRobin(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	const procs = 64
	for i := 0; i < procs; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < b.N/procs+1; j++ {
				p.Delay(Duration(1 + j%7))
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
