// Paramdist: a broadcast-heavy master/worker workload — the master
// repeatedly broadcasts a parameter block, workers evaluate it and
// return scalar scores, and a barrier closes each round (the shape of
// iterative optimization, ensemble control, or frame-synchronous
// simulation). This is the workload class where the paper's multicast
// collectives pay off: compare the same program over the tree-based and
// multicast-based MPI_Bcast/MPI_Barrier, and over Fast Ethernet.
//
//	go run ./examples/paramdist [-rounds 100] [-params 256]
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
	rounds := flag.Int("rounds", 100, "broadcast/score/barrier rounds")
	params := flag.Int("params", 256, "parameter block size in bytes")
	flag.Parse()

	type config struct {
		name string
		net  repro.Network
		algo mpi.Algorithm // of every Bcast and Barrier
	}
	configs := []config{
		{"SCRAMNet + multicast collectives", repro.SCRAMNet, mpi.Mcast},
		{"SCRAMNet + tree collectives", repro.SCRAMNet, mpi.Tree},
		{"hybrid (BBP + Myrinet) + multicast", repro.Hybrid, mpi.Mcast},
		{"Fast Ethernet (tree)", repro.FastEthernet, mpi.Tree},
	}
	fmt.Printf("master/worker parameter distribution: 4 ranks, %d rounds, %d-byte blocks\n\n",
		*rounds, *params)
	fmt.Printf("%-34s  %14s  %14s\n", "configuration", "total", "per round")
	var base float64
	for i, cfg := range configs {
		vt := farm(cfg.net, cfg.algo, *rounds, *params)
		ms := float64(vt) / 1e6
		if i == 0 {
			base = ms
		}
		fmt.Printf("%-34s  %12.2fms  %12.1fµs   (%.1fx)\n",
			cfg.name, ms, 1e3*ms/float64(*rounds), ms/base)
	}
	fmt.Println("\nThe single-step bbp_Mcast turns the dominant broadcast+barrier")
	fmt.Println("pattern into a few ring transits — the paper's Figure 5/6 story")
	fmt.Println("at application level.")
}

func farm(net repro.Network, algo mpi.Algorithm, rounds, params int) sim.Duration {
	const ranks = 4
	k := repro.NewKernel()
	w, err := repro.NewMPI(k, net, ranks)
	if err != nil {
		log.Fatal(err)
	}
	opt := mpi.WithAlgorithm(algo)
	var finish sim.Time
	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		block := make([]byte, params)
		score := make([]byte, 8)
		best := make([]byte, 8)
		for r := 0; r < rounds; r++ {
			if c.Rank() == 0 {
				// New parameters derived from the last round.
				for i := range block {
					block[i] = byte(r + i)
				}
			}
			if err := c.Bcast(p, 0, block, opt); err != nil {
				log.Fatal(err)
			}
			// Evaluate: a few microseconds of simulated compute.
			p.Delay(15 * sim.Microsecond)
			v := float64(int(block[0])+c.Rank()) / float64(r+1)
			binary.LittleEndian.PutUint64(score, math.Float64bits(v))
			if err := c.Reduce(p, 0, mpi.MaxF64, score, best); err != nil {
				log.Fatal(err)
			}
			if err := c.Barrier(p, opt); err != nil {
				log.Fatal(err)
			}
		}
		if p.Now() > finish {
			finish = p.Now()
		}
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	return finish.Sub(0)
}
