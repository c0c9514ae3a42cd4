// Command sweep finds the SCRAMNet crossover sizes against every other
// network — the quantitative core of Figures 2 and 3 — and prints the
// extension studies: streaming bandwidth, collective scaling with
// cluster size, and the hierarchy-of-rings latency penalty.
//
// It is also the driver for the continuous-performance matrix
// (internal/bench/sweep): -matrix runs the OSU-style latency /
// bandwidth / message-rate grid, -json writes the byte-stable
// BENCH_sweep.json document, -trajectory names the BENCH_trajectory.jsonl
// history that the least-squares trend gate judges, and -append records
// this run into it. -inject-trend fabricates a synthetic drift on top of
// the history and exits nonzero when the gate catches it — the `make
// bench` self-test that proves the gate is alive.
//
// Usage:
//
//	sweep [-crossovers] [-bandwidth] [-scaling] [-hierarchy]  (default: all)
//	sweep -matrix [-reduced] [-json PATH] [-trajectory PATH]
//	      [-append -describe STR [-note STR]] [-profile]
//	sweep -trajectory PATH -inject-trend PCT
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/bench/sweep"
	"repro/internal/cluster"
	"repro/internal/prof"
	"repro/internal/sim"
)

func main() {
	cross := flag.Bool("crossovers", false, "crossover table only")
	bw := flag.Bool("bandwidth", false, "bandwidth sweep only")
	scaling := flag.Bool("scaling", false, "collective scaling only")
	hier := flag.Bool("hierarchy", false, "hierarchy study only")
	matrix := flag.Bool("matrix", false, "run the continuous-performance matrix instead of the studies")
	reduced := flag.Bool("reduced", false, "use the reduced matrix (quick smoke, not the committed baseline)")
	jsonPath := flag.String("json", "", "write the matrix document to this path (\"-\" for stdout); implies -matrix")
	trajPath := flag.String("trajectory", "", "trajectory history file (BENCH_trajectory.jsonl) for the trend gate")
	appendRec := flag.Bool("append", false, "append this run's summary record to -trajectory; implies -matrix")
	describe := flag.String("describe", "", "code identity for the appended record (git describe output)")
	note := flag.String("note", "", "free-form note for the appended record")
	injectTrend := flag.Float64("inject-trend", 0, "fabricate 5 records drifting PCT%/run onto the history and run the gate (no matrix run)")
	profile := flag.Bool("profile", false, "attach the kernel self-profiler and render the real-time cost attribution")
	startProf, stop := prof.Flags()
	flag.Parse()
	startProf()
	defer stop()

	if *injectTrend != 0 {
		exit(stop, runInjectTrend(*trajPath, *injectTrend))
	}
	if *matrix || *jsonPath != "" || *appendRec {
		exit(stop, runMatrix(*reduced, *jsonPath, *trajPath, *appendRec, *describe, *note, *profile))
	}
	all := !*cross && !*bw && !*scaling && !*hier

	if all || *cross {
		fmt.Println("SCRAMNet crossover sizes (first size at which the other network wins)")
		fmt.Println("---------------------------------------------------------------------")
		scrAPI := func(n int) float64 { return bench.OneWayAPI(cluster.SCRAMNet, n) }
		scrMPI := func(n int) float64 { return bench.OneWayMPI(cluster.SCRAMNet, n) }
		type row struct {
			name  string
			net   cluster.Network
			paper string
		}
		apiRows := []row{
			{"Fast Ethernet (TCP)", cluster.FastEthernet, "several thousand B"},
			{"ATM (TCP)", cluster.ATM, "~1000 B"},
			{"Myrinet API", cluster.MyrinetAPI, "~500 B"},
			{"Myrinet (TCP)", cluster.MyrinetTCP, "(not stated)"},
		}
		fmt.Printf("%-22s  %14s  %20s\n", "API layer vs", "measured", "paper")
		for _, r := range apiRows {
			net := r.net
			x := bench.Crossover(scrAPI, func(n int) float64 { return bench.OneWayAPI(net, n) }, 0, 16384, 256)
			fmt.Printf("%-22s  %12s B  %20s\n", r.name, fmtX(x), r.paper)
		}
		mpiRows := []row{
			{"Fast Ethernet (TCP)", cluster.FastEthernet, "~512 B"},
			{"ATM (TCP)", cluster.ATM, "~580 B"},
		}
		fmt.Printf("\n%-22s  %14s  %20s\n", "MPI layer vs", "measured", "paper")
		for _, r := range mpiRows {
			net := r.net
			x := bench.Crossover(scrMPI, func(n int) float64 { return bench.OneWayMPI(net, n) }, 0, 16384, 128)
			fmt.Printf("%-22s  %12s B  %20s\n", r.name, fmtX(x), r.paper)
		}
		fmt.Println()
	}

	if all || *bw {
		fmt.Println("Extension E4: the §7 hybrid subsystem (BBP ≤512B, Myrinet API above)")
		fmt.Println("---------------------------------------------------------------------")
		fmt.Printf("%8s  %14s  %14s  %14s\n", "bytes", "SCRAMNet", "Myrinet API", "hybrid")
		for _, n := range []int{4, 256, 1024, 8192} {
			fmt.Printf("%8d  %12.1fµs  %12.1fµs  %12.1fµs\n", n,
				bench.OneWayAPI(cluster.SCRAMNet, n),
				bench.OneWayAPI(cluster.MyrinetAPI, n),
				bench.OneWayAPI(cluster.Hybrid, n))
		}
		fmt.Println()
		fmt.Println("Extension E2: streaming bandwidth (32 back-to-back messages)")
		s := bench.FigBandwidth([]int{256, 1024, 4096, 16384, 65536})
		fmt.Printf("%8s", "bytes")
		for _, ser := range s {
			fmt.Printf("  %20s", ser.Label)
		}
		fmt.Println()
		for i := range s[0].X {
			fmt.Printf("%8d", s[0].X[i])
			for _, ser := range s {
				fmt.Printf("  %15.2f MB/s", ser.Y[i])
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if all || *scaling {
		fmt.Println("Extension E5: incast (N senders → 1 receiver, 256-byte messages)")
		fmt.Println("-----------------------------------------------------------------")
		fmt.Printf("%8s  %14s  %14s\n", "senders", "SCRAMNet", "Fast Ethernet")
		for _, s := range []int{1, 3, 7, 15} {
			fmt.Printf("%8d  %12.1fµs  %12.1fµs\n", s,
				bench.Incast(cluster.Options{Nodes: s + 1, Net: cluster.SCRAMNet}, 256),
				bench.Incast(cluster.Options{Nodes: s + 1, Net: cluster.FastEthernet}, 256))
		}
		fmt.Println()
		sizes := []int{2, 4, 8, 12, 16}
		m, tr := bench.BarrierScaling(sizes)
		bench.RenderScaling(os.Stdout, "Extension E1a: MPI_Barrier vs cluster size", []bench.Series{m, tr})
		m, tr = bench.BcastScaling(sizes, 256)
		bench.RenderScaling(os.Stdout, "Extension E1b: 256-byte MPI_Bcast vs cluster size", []bench.Series{m, tr})
	}

	if all || *hier {
		fmt.Println("Extension E3: hierarchy of rings (§2), 4-byte BBP one-way latency")
		fmt.Println("------------------------------------------------------------------")
		flat := bench.OneWayAPI(cluster.SCRAMNet, 4)
		fmt.Printf("%-36s  %8.2fµs\n", "flat 4-node ring", flat)
		for _, cfgCase := range []struct {
			leaves, hosts int
		}{{2, 2}, {2, 4}, {4, 4}} {
			us := bench.HierarchyPingPong(cfgCase.leaves, cfgCase.hosts, 4)
			fmt.Printf("%d leaves x %d hosts (farthest pair)      %8.2fµs\n",
				cfgCase.leaves, cfgCase.hosts, us)
		}
		fmt.Println()
	}
}

func fmtX(x int) string {
	if x < 0 {
		return "none ≤16K"
	}
	return fmt.Sprintf("%d", x)
}

// exit flushes the pprof profiles (os.Exit skips deferred calls) and
// terminates with the given status.
func exit(stop func(), code int) {
	stop()
	os.Exit(code)
}

// loadHistory reads the trajectory file, treating a missing file as an
// empty history (the first run of a fresh checkout has nothing yet).
func loadHistory(path string) ([]sweep.Record, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sweep.LoadTrajectory(f)
}

// runInjectTrend is the trend-gate self-test: extend the real history
// with 5 fabricated records drifting pct%/run in every metric's bad
// direction, then require the gate to catch it. Exits 1 when the gate
// fires (the caller negates this to assert the gate works) and 0 when
// the synthetic drift slipped through.
func runInjectTrend(trajPath string, pct float64) int {
	history, err := loadHistory(trajPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(history) == 0 {
		fmt.Fprintln(os.Stderr, "sweep: -inject-trend needs at least one trajectory record to drift from")
		return 2
	}
	drift := sweep.SyntheticDrift(history[len(history)-1], 5, pct)
	if err := sweep.CheckTrend(append(history, drift...), sweep.DefaultTrendConfig()); err != nil {
		fmt.Printf("trend gate fired on injected %+.1f%%/run drift:\n  %v\n", pct, err)
		return 1
	}
	fmt.Printf("trend gate MISSED the injected %+.1f%%/run drift\n", pct)
	return 0
}

// runMatrix executes the continuous-performance matrix, gates it
// against the trajectory, writes the document, and optionally appends
// this run's record to the history.
func runMatrix(reduced bool, jsonPath, trajPath string, appendRec bool, describe, note string, profile bool) int {
	opts := sweep.DefaultOptions()
	if reduced {
		opts = sweep.ReducedOptions()
	}
	if profile {
		opts.Profiler = sim.NewProfiler()
	}
	rep := sweep.Run(opts)

	history, err := loadHistory(trajPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := rep.Check(history, sweep.DefaultTrendConfig()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	out := sweep.Marshal(rep)
	switch jsonPath {
	case "":
		renderMatrix(rep)
	case "-":
		os.Stdout.Write(out)
	default:
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	if appendRec {
		rec := sweep.Record{
			Schema:   sweep.Schema,
			Run:      len(history) + 1,
			Describe: describe,
			Note:     note,
			Metrics:  sweep.Summarize(rep),
		}
		f, err := os.OpenFile(trajPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if _, err := f.Write(sweep.MarshalRecord(rec)); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "appended run %d to %s\n", rec.Run, trajPath)
	}

	if profile {
		fmt.Println("\nkernel self-profile (host-clock attribution; zero virtual-time cost)")
		opts.Profiler.Render(os.Stdout)
	}
	return 0
}

// renderMatrix prints the grid as aligned text, one row per cell.
func renderMatrix(r sweep.Report) {
	fmt.Println("continuous-performance matrix (OSU-style latency / bandwidth / message rate)")
	fmt.Println("-----------------------------------------------------------------------------")
	for _, c := range r.Cells {
		fmt.Printf("%-14s r%-3d  lat:", c.Substrate, c.Ranks)
		for _, p := range c.LatencyUs {
			fmt.Printf(" %6dB %8.3fµs", p.Bytes, p.Value)
		}
		fmt.Printf("  bw:")
		for _, p := range c.BandwidthMBs {
			fmt.Printf(" %6dB %8.2fMB/s", p.Bytes, p.Value)
		}
		fmt.Printf("  rate: %.0f msg/s (%dB)\n", c.RateMsgS, c.RateBytes)
	}
}
