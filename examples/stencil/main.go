// Stencil: a 1-D heat-diffusion solver parallelized with MPI halo
// exchange and a periodic Allreduce convergence check — the classic
// fine-grained parallel workload the paper's introduction motivates
// low-latency networks with. Run it on SCRAMNet and on Fast Ethernet to
// see why latency, not bandwidth, dominates at this granularity: every
// iteration exchanges two 8-byte halo cells per neighbor.
//
//	go run ./examples/stencil [-n 4096] [-iters 200] [-net all]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"

	"repro"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func main() {
	cells := flag.Int("n", 4096, "total grid cells")
	iters := flag.Int("iters", 200, "time steps")
	netFlag := flag.String("net", "all", "network (or 'all' to compare)")
	flag.Parse()

	nets := []repro.Network{repro.SCRAMNet, repro.FastEthernet, repro.ATM}
	if *netFlag != "all" {
		nets = []repro.Network{repro.Network(*netFlag)}
	}
	fmt.Printf("1-D heat diffusion: %d cells, %d steps, 4 ranks, halo = 8 B/neighbor/step\n\n", *cells, *iters)
	fmt.Printf("%-14s  %14s  %16s\n", "network", "virtual time", "per step")
	for _, net := range nets {
		vt, checksum := solve(net, *cells, *iters)
		fmt.Printf("%-14s  %12.2fms  %13.1fµs   (checksum %.6f)\n",
			net, float64(vt)/1e6, float64(vt)/1e3/float64(*iters), checksum)
	}
	fmt.Println("\nThe physics is identical everywhere (checksums match); only the")
	fmt.Println("communication time differs — the paper's case for SCRAMNet at")
	fmt.Println("fine granularity.")
}

func solve(net repro.Network, cells, iters int) (sim.Duration, float64) {
	const ranks = 4
	k := repro.NewKernel()
	w, err := repro.NewMPI(k, net, ranks)
	if err != nil {
		log.Fatal(err)
	}
	var finish sim.Time
	var checksum float64
	local := cells / ranks

	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		me, n := c.Rank(), c.Size()
		// Grid with ghost cells at [0] and [local+1]; hot spot at the
		// global center.
		u := make([]float64, local+2)
		next := make([]float64, local+2)
		for i := 1; i <= local; i++ {
			g := me*local + i - 1
			if g == cells/2 {
				u[i] = 1000
			}
		}
		buf8 := make([]byte, 8)
		halo := func(val float64, dst int) {
			binary.LittleEndian.PutUint64(buf8, math.Float64bits(val))
			if err := c.Send(p, dst, 1, buf8); err != nil {
				log.Fatal(err)
			}
		}
		recvHalo := func(src int) float64 {
			b := make([]byte, 8)
			if _, err := c.Recv(p, src, 1, b); err != nil {
				log.Fatal(err)
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
		for it := 0; it < iters; it++ {
			// Exchange halos with neighbors; even ranks send first to
			// avoid rendezvous deadlock (messages are eager anyway).
			if me > 0 {
				halo(u[1], me-1)
			}
			if me < n-1 {
				halo(u[local], me+1)
			}
			if me > 0 {
				u[0] = recvHalo(me - 1)
			}
			if me < n-1 {
				u[local+1] = recvHalo(me + 1)
			}
			// Jacobi update (compute time charged per cell).
			p.Delay(sim.Duration(local) * 12 * sim.Nanosecond)
			for i := 1; i <= local; i++ {
				next[i] = u[i] + 0.25*(u[i-1]-2*u[i]+u[i+1])
			}
			u, next = next, u
			// Every 50 steps, a global residual via Allreduce.
			if it%50 == 49 {
				var local8 [8]byte
				sum := 0.0
				for i := 1; i <= local; i++ {
					sum += u[i]
				}
				binary.LittleEndian.PutUint64(local8[:], math.Float64bits(sum))
				out := make([]byte, 8)
				if err := c.Allreduce(p, mpi.SumF64, local8[:], out); err != nil {
					log.Fatal(err)
				}
				if me == 0 {
					checksum = math.Float64frombits(binary.LittleEndian.Uint64(out))
				}
			}
		}
		if p.Now() > finish {
			finish = p.Now()
		}
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	return finish.Sub(0), checksum
}
