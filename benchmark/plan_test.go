package main

import (
	"reflect"
	"testing"
)

func TestPlanIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := newPlan(w, 7, 40, 0), newPlan(w, 7, 40, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans for seed 7 differ", w.name)
		}
		if c := newPlan(w, 8, 40, 0); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w.name)
		}
		if a.ops() == 0 {
			t.Errorf("%s: empty plan", w.name)
		}
	}
}

// Stratified draws keep the offered load of a plan independent of the
// seed: only the order changes.
func TestPlanLoadIsSeedIndependent(t *testing.T) {
	bytes := func(pl *plan) (n int) {
		for _, ms := range pl.sends {
			for _, m := range ms {
				n += m.size
			}
		}
		for _, c := range pl.colls {
			n += c.size
		}
		return n
	}
	for i := range workloads {
		w := &workloads[i]
		a, b := newPlan(w, 1, 40, 0), newPlan(w, 2, 40, 0)
		if a.ops() != b.ops() || bytes(a) != bytes(b) {
			t.Errorf("%s: seeds 1 and 2 offer %d ops/%d B and %d ops/%d B", w.name, a.ops(), bytes(a), b.ops(), bytes(b))
		}
	}
}

func TestIncastDestinations(t *testing.T) {
	w, err := findWorkload("incast_open")
	if err != nil {
		t.Fatal(err)
	}
	pl := newPlan(w, 3, 100, 0)
	for s, ms := range pl.sends {
		var last int64
		for _, m := range ms {
			if int64(m.due) < last {
				t.Fatalf("sender %d: due times go backwards", s)
			}
			last = int64(m.due)
			seen := map[int]bool{}
			for _, d := range m.dsts {
				if d == s || seen[d] || d < 0 || d >= pl.nodes {
					t.Fatalf("sender %d: bad destination set %v", s, m.dsts)
				}
				seen[d] = true
			}
		}
	}
}

func TestPayloadCheck(t *testing.T) {
	b := make([]byte, 1027)
	fill(b, 5, 2, 9)
	if !matches(b, 5, 2, 9) {
		t.Fatal("payload does not match its own (seed, src, seq)")
	}
	if matches(b, 5, 2, 10) || matches(b, 5, 3, 9) || matches(b, 6, 2, 9) {
		t.Fatal("payload matches another (seed, src, seq)")
	}
	b[1026] ^= 1
	if matches(b, 5, 2, 9) {
		t.Fatal("a flipped tail byte went unnoticed")
	}
}
