// Command benchmark measures the reproduction end to end and per layer
// on two clocks: virtual time (the modelled protocol's latency and
// goodput, exact for a seed) and host time (how fast and at what memory
// cost the simulator produces it).
//
//	go run . -workload pingpong_small -seed 1 -trace 0
//	go run . -workload collectives8 -seed 1 -trace 1 -spans spans.jsonl
//	go run . -workload incast_open -seed 2 -check
//	go run . -compare base.jsonl head.jsonl
//
// A run builds the workload's testbed 21 times to time set-up, then
// executes the seeded plan in rounds until the time budget is spent.
// Every round replays the same plan, so its virtual-time outcome must
// hash to the same digest; host metrics are medians over rounds. The
// last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end untraced, per layer with -trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupBuilds is how many testbed builds set-up time is the median of.
const setupBuilds = 21

// runSeconds is the default measuring time of a run, BENCHMARK.json's
// run_seconds; ab.sh relies on it so both sides run equally long.
const runSeconds = 20

// maxSpans bounds the spans kept in memory for -spans.
const maxSpans = 1 << 18

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	spans    string
	ops      int
	rate     float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceMode int
	fs.StringVar(&o.workload, "workload", "", "workload to run: pingpong_small, bulk_hybrid, collectives8 or incast_open")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the workload's input plan")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "host seconds to spend measuring rounds (at least one round runs)")
	fs.IntVar(&traceMode, "trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the first round's spans to this file as JSON lines")
	fs.IntVar(&o.ops, "ops", 0, "round size override (0: the workload's default)")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop rate per sender in messages per virtual second (0: the workload's default)")
	check := fs.Bool("check", false, "determinism gate: run one round untraced and one traced and compare their virtual digests")
	compare := fs.Bool("compare", false, "compare two A/B result files (see ab.sh): -compare base.jsonl head.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files: base.jsonl head.jsonl")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if traceMode != 0 && traceMode != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	o.traced = traceMode == 1
	if o.spans != "" && !o.traced {
		fmt.Fprintln(stderr, "benchmark: -spans needs -trace 1")
		return 2
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *check {
		return runCheck(w, o, stdout, stderr)
	}
	return runBench(w, o, stdout, stderr)
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one executed round, reduced to what the report needs.
type outcome struct {
	r         *round
	host      hostSample
	digest    uint64
	anomalies []string
	layers    map[string]float64 // traced rounds only
}

// playRound builds a fresh testbed for pl, runs it and tears it down.
func playRound(w *workload, pl *plan, traced bool, keepSpans int, spans string) (outcome, error) {
	runtime.GC()
	tb, err := build(w, pl, traced, keepSpans)
	if err != nil {
		return outcome{}, err
	}
	defer tb.close()
	var r *round
	host := measure(func() { r = execute(w, pl, tb) })
	host.wall -= tb.pc.paused
	host.speed = median(tb.pc.rates)
	o := outcome{r: r, host: host, digest: digest(r, counters(tb)), anomalies: anomalies(tb)}
	if traced {
		o.layers = layerMetrics(tb, r, host)
		if spans != "" {
			if err := tb.tr.writeSpans(spans); err != nil {
				return outcome{}, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return o, nil
}

// setupTime is the median host time of setupBuilds testbed builds, each
// generating the plan and building the cluster and MPI world, after
// one unmeasured warm-up build. Like host_ops_per_s, each build's time
// is scaled to the reference host speed, sampled just before it. Every
// build starts from a collected heap and runs with the collector
// paused: a build allocates the ring's memory banks (2 MiB a node), and
// a collection that the previous build's garbage happens to trigger
// would otherwise land in a random sample and dominate it.
func setupTime(w *workload, o options) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ts []float64
	for i := 0; i <= setupBuilds; i++ {
		runtime.GC()
		speed := refRate()
		t0 := time.Now()
		tb, err := build(w, newPlan(w, o.seed, o.ops, o.rate), false, 0)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		tb.close()
		if i > 0 {
			ts = append(ts, d.Seconds()*speed/refNominal)
		}
	}
	return median(ts), nil
}

func runBench(w *workload, o options, stdout, stderr io.Writer) int {
	setup, err := setupTime(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	pl := newPlan(w, o.seed, o.ops, o.rate)
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var outs []outcome
	var walls []float64
	for {
		keep, spans := 0, ""
		if len(outs) == 0 && o.spans != "" {
			keep, spans = maxSpans, o.spans
		}
		t0 := time.Now()
		out, err := playRound(w, pl, o.traced, keep, spans)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		outs = append(outs, out)
		walls = append(walls, time.Since(t0).Seconds())
		// Stop once the budget is spent or another typical round would
		// overrun it.
		elapsed := time.Since(start).Seconds()
		if elapsed+median(walls) > budget.Seconds() {
			break
		}
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	first := outs[0]
	for i, out := range outs {
		res.Attempted += pl.ops()
		res.Failed += pl.ops() - out.r.done
		for _, err := range out.r.errs {
			fmt.Fprintf(stderr, "benchmark: round %d: %v\n", i, err)
		}
		if out.r.corrupt > 0 {
			fmt.Fprintf(stderr, "benchmark: round %d: %d corrupted or misordered deliveries\n", i, out.r.corrupt)
		}
		if len(out.anomalies) > 0 {
			fmt.Fprintf(stderr, "benchmark: round %d: protocol anomalies: %v\n", i, out.anomalies)
		}
		if out.digest != first.digest {
			fmt.Fprintf(stderr, "benchmark: round %d: virtual digest %016x differs from round 0's %016x\n", i, out.digest, first.digest)
		}
		if out.r.done != pl.ops() || out.r.corrupt > 0 || len(out.r.errs) > 0 || len(out.anomalies) > 0 || out.digest != first.digest {
			res.Correct = false
		}
	}
	n := len(first.r.lat)
	if q := tailPercentile(n); q < 0.99 {
		fmt.Fprintf(stderr, "benchmark: %d samples support only p%g; op_p99_us is not a supported tail\n", n, 100*q)
	}
	var speeds []float64
	for _, out := range outs {
		speeds = append(speeds, out.host.speed)
	}
	fmt.Fprintf(stderr, "benchmark: %s seed %d: %d rounds of %d ops (%d latency samples each, median round %.2f s, reference loop %.3g/s), virt_digest %016x\n",
		w.name, o.seed, len(outs), pl.ops(), n, median(walls), median(speeds), first.digest)

	specs := endToEnd
	values := map[string]float64{}
	if o.traced {
		specs = perLayer
		for _, s := range perLayer {
			var v []float64
			for _, out := range outs {
				v = append(v, out.layers[s.Name])
			}
			values[s.Name] = median(v)
		}
	} else {
		for k, v := range virtualMetrics(first.r) {
			values[k] = v
		}
		var rate, alloc []float64
		for _, out := range outs {
			rate = append(rate, out.host.opsPerSec(out.r.done))
			alloc = append(alloc, float64(out.host.alloc)/1024/float64(max(out.r.done, 1)))
		}
		values["host_ops_per_s"] = median(rate)
		values["host_alloc_kb_per_op"] = median(alloc)
		values["peak_rss_mb"] = peakRSSMB()
		values["setup_s"] = setup
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runCheck is the determinism gate: the traced run (decorated
// endpoints, metrics registry, profiler) must replay the untraced
// run's virtual timeline exactly.
func runCheck(w *workload, o options, stdout, stderr io.Writer) int {
	pl := newPlan(w, o.seed, o.ops, o.rate)
	plain, err := playRound(w, pl, false, 0, "")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	traced, err := playRound(w, pl, true, 0, "")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	ok := plain.digest == traced.digest && plain.r.done == pl.ops()
	// The overhead is the untraced host throughput over the traced one.
	line, _ := json.Marshal(map[string]any{
		"workload":       w.name,
		"seed":           o.seed,
		"check":          ok,
		"virt_digest":    fmt.Sprintf("%016x", plain.digest),
		"traced_digest":  fmt.Sprintf("%016x", traced.digest),
		"trace_overhead": traced.host.wall.Seconds() / plain.host.wall.Seconds(),
	})
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

// peakRSSMB is the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
