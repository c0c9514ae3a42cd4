// Stencil2d: a 2-D Jacobi heat solver on a Cartesian process grid with
// halo exchange via MPI_Cart_shift — the denser communication pattern
// (four neighbors per rank per step) that magnifies the latency gap
// between SCRAMNet and the TCP/IP networks.
//
//	go run ./examples/stencil2d [-n 64] [-iters 60]
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

const (
	px, py = 2, 2 // process grid
	ranks  = px * py
)

func main() {
	n := flag.Int("n", 64, "local grid edge per rank")
	iters := flag.Int("iters", 60, "Jacobi sweeps")
	flag.Parse()

	fmt.Printf("2-D heat diffusion: %dx%d local grid per rank, %d sweeps, %dx%d grid of ranks\n",
		*n, *n, *iters, px, py)
	fmt.Printf("halo traffic: 4 exchanges of %d bytes per rank per sweep\n\n", 8**n)
	fmt.Printf("%-14s  %14s  %14s\n", "network", "virtual time", "per sweep")
	var checks []float64
	for _, net := range []repro.Network{repro.SCRAMNet, repro.FastEthernet} {
		vt, sum := solve(net, *n, *iters)
		checks = append(checks, sum)
		fmt.Printf("%-14s  %12.2fms  %13.1fµs\n", net, float64(vt)/1e6, float64(vt)/1e3/float64(*iters))
	}
	if math.Abs(checks[0]-checks[1]) > 1e-9 {
		log.Fatalf("solutions diverge across networks: %v", checks)
	}
	fmt.Printf("\nidentical heat checksum on both networks: %.6f\n", checks[0])
}

func solve(net repro.Network, n, iters int) (sim.Duration, float64) {
	k := repro.NewKernel()
	w, err := repro.NewMPI(k, net, ranks)
	if err != nil {
		log.Fatal(err)
	}
	var finish sim.Time
	var checksum float64
	w.RunSPMD(k, func(p *sim.Proc, c *mpi.Comm) {
		ct, err := mpi.CartCreate(c, []int{py, px}, []bool{false, false})
		if err != nil {
			log.Fatal(err)
		}
		// Local grid with one ghost ring; (n+2)x(n+2).
		stride := n + 2
		u := make([]float64, stride*stride)
		next := make([]float64, stride*stride)
		co := ct.Coords(c.Rank())
		if co[0] == 0 && co[1] == 0 {
			u[stride*(n/2)+n/2] = 4096 // hot spot in rank (0,0)
		}
		rowBuf := make([]byte, 8*n)
		colBuf := make([]byte, 8*n)
		packRow := func(row int, dst []byte) {
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(u[stride*row+1+i]))
			}
		}
		unpackRow := func(row int, src []byte) {
			for i := 0; i < n; i++ {
				u[stride*row+1+i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
			}
		}
		packCol := func(col int, dst []byte) {
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(u[stride*(1+i)+col]))
			}
		}
		unpackCol := func(col int, src []byte) {
			for i := 0; i < n; i++ {
				u[stride*(1+i)+col] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
			}
		}
		recvBuf := make([]byte, 8*n)
		for it := 0; it < iters; it++ {
			// North/south halo (dimension 0), then west/east (dim 1).
			packRow(1, rowBuf)
			if got, err := ct.SendrecvShift(p, 0, -1, 1, rowBuf, recvBuf); err != nil {
				log.Fatal(err)
			} else if got {
				unpackRow(n+1, recvBuf)
			}
			packRow(n, rowBuf)
			if got, err := ct.SendrecvShift(p, 0, 1, 2, rowBuf, recvBuf); err != nil {
				log.Fatal(err)
			} else if got {
				unpackRow(0, recvBuf)
			}
			packCol(1, colBuf)
			if got, err := ct.SendrecvShift(p, 1, -1, 3, colBuf, recvBuf); err != nil {
				log.Fatal(err)
			} else if got {
				unpackCol(n+1, recvBuf)
			}
			packCol(n, colBuf)
			if got, err := ct.SendrecvShift(p, 1, 1, 4, colBuf, recvBuf); err != nil {
				log.Fatal(err)
			} else if got {
				unpackCol(0, recvBuf)
			}
			// Five-point Jacobi sweep; compute time charged per cell.
			p.Delay(sim.Duration(n*n) * 9 * sim.Nanosecond)
			for y := 1; y <= n; y++ {
				for x := 1; x <= n; x++ {
					i := stride*y + x
					next[i] = u[i] + 0.2*(u[i-1]+u[i+1]+u[i-stride]+u[i+stride]-4*u[i])
				}
			}
			u, next = next, u
		}
		// Global heat checksum.
		local := 0.0
		for y := 1; y <= n; y++ {
			for x := 1; x <= n; x++ {
				local += u[stride*y+x]
			}
		}
		lb := make([]byte, 8)
		binary.LittleEndian.PutUint64(lb, math.Float64bits(local))
		gb := make([]byte, 8)
		if err := c.Allreduce(p, mpi.SumF64, lb, gb); err != nil {
			log.Fatal(err)
		}
		if c.Rank() == 0 {
			checksum = math.Float64frombits(binary.LittleEndian.Uint64(gb))
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
