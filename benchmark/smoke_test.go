package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tinyOps sizes each workload's smoke run.
var tinyOps = map[string]int{
	"pingpong_small": 20,
	"bulk_hybrid":    6,
	"collectives8":   8,
	"incast_open":    10,
}

// Every workload completes its plan with verified outputs and no
// protocol anomaly, and its traced run replays the untraced run's
// virtual timeline exactly (the -check gate).
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		pl := newPlan(w, 1, tinyOps[w.name], 0)
		plain, err := playRound(w, pl, false, 0, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := playRound(w, pl, true, 0, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, o := range []outcome{plain, traced} {
			if o.r.done != pl.ops() || o.r.corrupt != 0 || len(o.r.errs) != 0 || len(o.anomalies) != 0 {
				t.Errorf("%s: %d of %d ops done, %d corrupt, errors %v, anomalies %v",
					w.name, o.r.done, pl.ops(), o.r.corrupt, o.r.errs, o.anomalies)
			}
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %016x, untraced %016x", w.name, traced.digest, plain.digest)
		}
		if traced.layers["xport.calls_per_op"] == 0 || traced.layers["sim.events_per_op"] == 0 {
			t.Errorf("%s: traced run recorded no transport calls or kernel events", w.name)
		}
	}
}

// runCLI runs the command line and decodes its last output line.
func runCLI(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res
}

func names(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

func TestCommandLineReportsEveryMetric(t *testing.T) {
	for _, c := range []struct {
		trace string
		want  []metricSpec
	}{{"0", endToEnd}, {"1", perLayer}} {
		res := runCLI(t, "--workload", "pingpong_small", "--seed", "3", "--seconds", "0", "--trace", c.trace, "-ops", "20")
		if !res.Correct || res.Attempted != 40 || res.Failed != 0 {
			t.Errorf("trace %s: correct %v attempted %d failed %d", c.trace, res.Correct, res.Attempted, res.Failed)
		}
		var got []string
		for name, m := range res.Metrics {
			got = append(got, name)
			for _, s := range c.want {
				if s.Name == name && s.Unit != m.Unit {
					t.Errorf("%s: unit %q, want %q", name, m.Unit, s.Unit)
				}
			}
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(names(c.want), ",") {
			t.Errorf("trace %s: metrics %v, want %v", c.trace, got, names(c.want))
		}
	}
}

func TestCommandLineRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, output %q", code, out.String())
	}
}

// BENCHMARK.json at the repository root carries the same run length,
// workloads and metric tables as the code.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the -seconds default %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v, the code has %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		name      string
		doc, code []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.code) {
			t.Fatalf("%s: %d metrics, the code has %d", c.name, len(c.doc), len(c.code))
		}
		for i := range c.doc {
			if c.doc[i] != c.code[i] {
				t.Errorf("%s[%d]: %+v, the code has %+v", c.name, i, c.doc[i], c.code[i])
			}
		}
	}
}
