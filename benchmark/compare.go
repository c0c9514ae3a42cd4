package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// abRecord is one line of an A/B result file written by ab.sh: one
// benchmark run of one side, tagged with its workload and pair index.
type abRecord struct {
	Workload string `json:"workload"`
	Pair     int    `json:"pair"`
	Result   result `json:"result"`
}

func readRecords(path string) (map[string]map[int]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[int]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec abRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[int]result{}
		}
		out[rec.Workload][rec.Pair] = rec.Result
	}
	return out, sc.Err()
}

// failures sums the failed ops of the given runs and counts the runs
// that were not correct.
func failures(runs map[int]result, pairs []int) (failed, incorrect int) {
	for _, i := range pairs {
		failed += runs[i].Failed
		if !runs[i].Correct {
			incorrect++
		}
	}
	return failed, incorrect
}

// compareFiles prints, per workload, each side's failed ops and
// incorrect runs, then one row per metric present on both sides: each
// side's median and quartiles over the pairs, the share of pairs the
// head won, and the verdict. A head with more failed ops than the base,
// or with any incorrect run, has no gain and is not no-worse: every
// metric of that workload is regressed.
func compareFiles(basePath, headPath string, w io.Writer) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	var names []string
	for name := range base {
		if head[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-21s %-30s %-30s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "won", "verdict")
	for _, name := range names {
		var pairs []int
		for i := range base[name] {
			if _, ok := head[name][i]; ok {
				pairs = append(pairs, i)
			}
		}
		sort.Ints(pairs)
		bf, bi := failures(base[name], pairs)
		hf, hi := failures(head[name], pairs)
		fmt.Fprintf(w, "%-15s %-21s %-30s %-30s\n", name, "failed ops (bad runs)", fmt.Sprintf("%d (%d)", bf, bi), fmt.Sprintf("%d (%d)", hf, hi))
		for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
			var b, h []float64
			for _, i := range pairs {
				bm, bok := base[name][i].Metrics[s.Name]
				hm, hok := head[name][i].Metrics[s.Name]
				if bok && hok {
					b, h = append(b, bm.Value), append(h, hm.Value)
				}
			}
			if len(b) == 0 {
				continue
			}
			v, won := verdict(s, b, h)
			if (hf > bf || hi > 0) && (v == "improved" || v == "no-worse") {
				v = "regressed"
			}
			fmt.Fprintf(w, "%-15s %-21s %-30s %-30s %3d/%-2d  %s\n", name, s.Name, summary(b), summary(h), won, len(b), v)
		}
	}
	return nil
}

func summary(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q2, q1, q3)
}

// verdict judges head against base, paired run by run, for one metric:
//
//   - improved: head wins at least 9/10 of the pairs (ties count for
//     neither) and the medians differ by more than base's IQR;
//   - unresolved: base's IQR is wider than the metric's bound, unless
//     every run of one side beats every run of the other;
//   - regressed: head's median is worse by more than the bound;
//   - no-worse: otherwise.
//
// Per-layer metrics have bound 0: a count that repeats exactly is
// no-worse only when it did not get worse at all.
func verdict(s metricSpec, base, head []float64) (string, int) {
	better := func(a, b float64) bool {
		if s.Better == "higher" {
			return a > b
		}
		return a < b
	}
	won := 0
	for i := range base {
		if better(head[i], base[i]) {
			won++
		}
	}
	q1, mb, q3 := quartiles(base)
	_, mh, _ := quartiles(head)
	gap, iqr := math.Abs(mh-mb), q3-q1
	worse := 0.0 // relative amount by which head's median is worse
	if better(mb, mh) {
		worse = math.Inf(1)
		if mb != 0 {
			worse = gap / math.Abs(mb)
		}
	}
	// dominates reports whether every run of a beats every run of b.
	dominates := func(a, b []float64) bool {
		for _, x := range a {
			for _, y := range b {
				if !better(x, y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case 10*won >= 9*len(base) && better(mh, mb) && gap > iqr:
		return "improved", won
	case iqr > s.Bound*math.Abs(mb) && !dominates(head, base) && !dominates(base, head):
		return "unresolved", won
	case worse > s.Bound:
		return "regressed", won
	}
	return "no-worse", won
}
