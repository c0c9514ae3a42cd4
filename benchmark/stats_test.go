package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0},    // the median would have only 9 samples beyond it
		{20, 0.5},  // 10 beyond the median
		{99, 0.5},  // p90 leaves 9
		{100, 0.9}, // p90 leaves 10
		{999, 0.9}, // p99 leaves 9
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
		{100000, 0.9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(v, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

// The spread rule uses Python's statistics.quantiles(v, n=4); these
// expectations are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	exact := metricSpec{Name: "suspects", Better: "lower"}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name       string
		s          metricSpec
		base, head []float64
		want       string
	}{
		{"faster latency", lower, base, shift(base, 0.9), "improved"},
		{"same latency", lower, base, base, "no-worse"},
		{"slightly slower, within bound", lower, base, shift(base, 1.03), "no-worse"},
		{"slower beyond bound", lower, base, shift(base, 1.2), "regressed"},
		{"slower beyond bound in 6 of 10 pairs", lower, base, []float64{120, 90, 120, 90, 120, 90, 120, 120, 120, 90}, "regressed"},
		{"higher rate", higher, base, shift(base, 1.2), "improved"},
		{"lower rate beyond bound", higher, base, shift(base, 0.8), "regressed"},
		{"noise wider than the bound", lower, []float64{50, 150, 60, 140, 100, 90, 110, 70, 130, 100}, base, "unresolved"},
		{"noisy, but every head run slower", lower, []float64{50, 60, 55, 65, 70, 52, 58, 62, 66, 68}, base, "regressed"},
		{"exact count unchanged", exact, []float64{7, 7, 7}, []float64{7, 7, 7}, "no-worse"},
		{"exact count up from zero", exact, []float64{0, 0, 0}, []float64{1, 1, 1}, "regressed"},
	} {
		if got, _ := verdict(c.s, c.base, c.head); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// A head that doubles its throughput is improved only while it fails no
// more ops than the base and every one of its runs is correct.
func TestCompareRefusesGainWithFailures(t *testing.T) {
	write := func(rate float64, failedPair int) string {
		var b bytes.Buffer
		for i := 1; i <= 10; i++ {
			res := result{Correct: i != failedPair, Attempted: 100, Metrics: map[string]metric{
				"host_ops_per_s": {Value: rate + float64(i), Unit: "1/s"},
			}}
			if i == failedPair {
				res.Failed = 3
			}
			line, err := json.Marshal(abRecord{Workload: "pingpong_small", Pair: i, Result: res})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(100, 0)
	for _, c := range []struct {
		failedPair int
		want       string
	}{{0, "improved"}, {4, "regressed"}} {
		var out bytes.Buffer
		if err := compareFiles(base, write(200, c.failedPair), &out); err != nil {
			t.Fatal(err)
		}
		var row string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "host_ops_per_s") {
				row = l
			}
		}
		if !strings.HasSuffix(row, c.want) {
			t.Errorf("head failing pair %d: row %q, want verdict %q", c.failedPair, row, c.want)
		}
	}
}
