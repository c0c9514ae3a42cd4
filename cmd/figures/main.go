// Command figures regenerates every figure and table of the paper's
// evaluation (§5) from the simulated testbed and prints them as aligned
// text tables. With -csv DIR it also writes one CSV per figure.
//
// Usage:
//
//	figures [-fig N] [-csv DIR] [-wide] [-json [PATH]]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// -fig selects a single figure (1..6, or 0 for the §2 raw-hardware
// table); default runs everything. -wide extends the size axis beyond
// the paper's 1000-byte panels to show the large-message crossovers.
// -faults appends the fault-sweep extension: BBP one-way latency vs
// ring loss rate with the retry extension recovering drops.
// -json PATH runs the perf-regression suite (internal/bench/report)
// instead of the text tables and writes the schema-versioned,
// byte-stable report to PATH ("-" for stdout); this is what regenerates
// the checked-in BENCH_figures.json. If any regression gate rejects the
// run, it writes nothing, prints every failing gate one per line, and
// exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/bench/report"
	"repro/internal/prof"
)

func main() {
	fig := flag.Int("fig", -1, "regenerate a single figure (0=raw table, 1..6)")
	csvDir := flag.String("csv", "", "also write CSVs into this directory")
	wide := flag.Bool("wide", false, "extend size axes to show large-message crossovers")
	faults := flag.Bool("faults", false, "also run the fault-sweep extension (latency vs loss rate)")
	jsonPath := flag.String("json", "", "write the perf-regression report to this path (\"-\" for stdout) instead of text tables")
	startProf, stopProf := prof.Flags()
	flag.Parse()
	startProf()
	defer stopProf()

	if *jsonPath != "" {
		rep := report.Run(report.DefaultOptions())
		if err := rep.Check(); err != nil {
			// Check joins one line per failing gate row.
			fmt.Fprintf(os.Stderr, "regression gates failed:\n%v\n", err)
			stopProf()
			os.Exit(1)
		}
		out := report.Marshal(rep)
		if *jsonPath == "-" {
			os.Stdout.Write(out)
			return
		}
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	sizes := bench.FullSizes
	if *wide {
		sizes = bench.WideSizes
	}
	all := *fig < 0

	writeCSV := func(name string, ss []bench.Series) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		bench.RenderCSV(f, ss)
	}

	if all || *fig == 0 {
		fmt.Println("SCRAMNet raw characteristics (paper §2)")
		fmt.Println("---------------------------------------")
		fmt.Printf("fixed 4-byte packet mode: %6.2f MB/s  (paper: 6.5 MB/s)\n", bench.RingThroughput(false))
		fmt.Printf("variable packet mode:     %6.2f MB/s  (paper: 16.7 MB/s)\n", bench.RingThroughput(true))
		fmt.Println()
	}
	if all || *fig == 1 {
		small := bench.Fig1(bench.SmallSizes)
		bench.RenderSeries(os.Stdout, "Figure 1a: SCRAMNet one-way latency, 0-64 bytes (API vs MPI)", small)
		full := bench.Fig1(sizes)
		bench.RenderSeries(os.Stdout, "Figure 1b: SCRAMNet one-way latency, 0-1000 bytes (API vs MPI)", full)
		writeCSV("fig1.csv", full)
	}
	if all || *fig == 2 {
		s := bench.Fig2(sizes)
		bench.RenderSeries(os.Stdout, "Figure 2: one-way latency across networks, API layer", s)
		writeCSV("fig2.csv", s)
	}
	if all || *fig == 3 {
		s := bench.Fig3(sizes)
		bench.RenderSeries(os.Stdout, "Figure 3: one-way latency across networks, MPI layer", s)
		writeCSV("fig3.csv", s)
	}
	if all || *fig == 4 {
		s := bench.Fig4(sizes)
		bench.RenderSeries(os.Stdout, "Figure 4: SCRAMNet point-to-point vs 4-node broadcast (API layer)", s)
		writeCSV("fig4.csv", s)
	}
	if all || *fig == 5 {
		s := bench.Fig5(sizes)
		bench.RenderSeries(os.Stdout, "Figure 5: 4-node MPI_Bcast, SCRAMNet vs Fast Ethernet", s)
		writeCSV("fig5.csv", s)
	}
	if all || *fig == 6 {
		bench.RenderFig6(os.Stdout, bench.Fig6())
	}
	if *faults {
		bench.RenderFaultSweep(os.Stdout, bench.FaultSweep(bench.DefaultFaultSweepConfig()))
	}
}
