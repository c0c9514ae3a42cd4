package main

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
)

// A delivery that never arrives ends the open loop's round as a failed
// op, not as a hang: receivers stop waiting for mail drainLimit after
// the last planned post. Here node 2 is out of service from the start.
func TestUndeliveredOpsCountAsFailed(t *testing.T) {
	w, err := findWorkload("incast_open")
	if err != nil {
		t.Fatal(err)
	}
	failed := *w
	failed.opts = func() cluster.Options {
		o := w.opts()
		o.Faults = &fault.Script{Actions: []fault.Action{{Kind: fault.NodeFail, Node: 2}}}
		return o
	}
	pl := newPlan(&failed, 1, tinyOps[w.name], 0)
	tb, err := build(&failed, pl, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	r := execute(&failed, pl, tb)
	if r.done == 0 || r.done >= pl.ops() {
		t.Fatalf("%d of %d ops done with node 2 down", r.done, pl.ops())
	}
}

// A collective is timed from the first rank's entry, not the last: in
// each barrier one rank enters late, and the op must last at least that
// long.
func TestCollectiveTimedFromFirstEntry(t *testing.T) {
	w, err := findWorkload("collectives8")
	if err != nil {
		t.Fatal(err)
	}
	pl := &plan{seed: 1, nodes: 8}
	for i, late := range []int{5, 2} {
		c := coll{kind: barrier, think: make([]sim.Duration, pl.nodes)}
		c.think[late] = sim.Duration(50-20*i) * sim.Microsecond
		pl.colls = append(pl.colls, c)
	}
	tb, err := build(w, pl, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.close()
	r := execute(w, pl, tb)
	if r.done != len(pl.colls) {
		t.Fatalf("%d of %d barriers done: %v", r.done, len(pl.colls), r.errs)
	}
	if r.first != 0 {
		t.Errorf("first op starts at %v, want 0: the early ranks' entry", r.first)
	}
	for i, c := range pl.colls {
		if late := slices.Max(c.think); r.lat[i] < us(late) {
			t.Errorf("barrier %d took %.2f µs, less than its late rank's %.2f µs delay", i, r.lat[i], us(late))
		}
	}
}
