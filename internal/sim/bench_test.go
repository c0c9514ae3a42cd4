package sim

import (
	"fmt"
	"testing"
)

// These benchmarks measure the simulator itself (real CPU time), since
// every reproduction result is bottlenecked by kernel event throughput.

// BenchmarkKernelSteadyState measures one event of the kernel under
// the traffic its queue serves. Chains of plain events of mixed kinds
// and two Servers, each with a backlog of one to three jobs,
// reschedule their successor from inside every event, at delays drawn
// once per row from a seeded table. One op is one executed event. The
// rows:
//
//   - uniform: 16 chains, delays of 0-700 ns in steps of 100 ns, so
//     same-instant ties are common; about 20 live entries.
//   - workload-mix: 16 chains, delays shaped like the benchmark
//     workloads' own: 90% under 2 µs, 5% at 2-4 µs, 4% at 8-16 µs and
//     1% past the wheel's horizon.
//   - far: uniform, but one delay in ten lies one to two horizons
//     ahead.
//   - deep: uniform with 256 chains, so about 260 events are pending.
func BenchmarkKernelSteadyState(b *testing.B) {
	uniform := func(r *RNG) Duration { return Duration(r.Intn(8) * 100) }
	rows := []struct {
		name   string
		chains int
		delay  func(r *RNG) Duration
	}{
		{"uniform", 16, uniform},
		{"workload-mix", 16, func(r *RNG) Duration {
			switch p := r.Intn(100); {
			case p < 90:
				return Duration(r.Intn(80) * 25)
			case p < 95:
				return 2000 + Duration(r.Intn(80)*25)
			case p < 99:
				return 8000 + Duration(r.Intn(8000))
			}
			return wheelSize + Duration(r.Intn(3*wheelSize))
		}},
		{"far", 16, func(r *RNG) Duration {
			if r.Intn(10) == 0 {
				return wheelSize + Duration(r.Intn(wheelSize))
			}
			return uniform(r)
		}},
		{"deep", 256, uniform},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) { steadyState(b, row.chains, row.delay) })
	}
}

func steadyState(b *testing.B, chains int, draw func(r *RNG) Duration) {
	b.ReportAllocs()
	k := NewKernel()
	var delays [256]Duration
	rng := NewRNG(1)
	for i := range delays {
		delays[i] = draw(rng)
	}
	left, next := b.N, 0
	delay := func() Duration {
		next++
		return delays[next&(len(delays)-1)]
	}
	kinds := [...]Kind{KindProc, KindRing, KindEvent, KindProc, KindBus, KindObserver, KindProc, KindFabric}
	for i := 0; i < chains; i++ {
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
