package xport_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/xport"
)

// probeEP is an xport.Endpoint whose TryRecv logs each probe and
// answers from a script: ready[s] messages wait from s, and fail[s]
// makes a probe of s fail.
type probeEP struct {
	xport.Endpoint // only Rank, Procs and TryRecv are called
	me, procs      int
	ready          map[int]int
	fail           map[int]error
	log            []string
}

func (e *probeEP) Rank() int  { return e.me }
func (e *probeEP) Procs() int { return e.procs }

func (e *probeEP) TryRecv(p *sim.Proc, src int, buf []byte) (int, bool, error) {
	e.log = append(e.log, fmt.Sprint(src))
	if err := e.fail[src]; err != nil {
		return 0, false, err
	}
	if e.ready[src] == 0 {
		return 0, false, nil
	}
	e.ready[src]--
	buf[0] = byte(src)
	return 1, true, nil
}

// TestLoopSweep pins LoopSweep's order: senders in rank order from
// from on, skipping the endpoint's own rank, a stop call at each wrap
// past the last sender, and a return at the first message or error.
func TestLoopSweep(t *testing.T) {
	errProbe := errors.New("probe failed")
	for _, tc := range []struct {
		name        string
		me, from    int
		ready       map[int]int
		fail        map[int]error
		stopAfter   int // stop is true from this call on
		wantSrc     int
		wantErr     error
		wantProbes  string
		wantStopped int
	}{
		{"first sender", 1, 0, map[int]int{0: 1}, nil, 1, 0, nil, "[0]", 0},
		{"from past own rank", 1, 1, map[int]int{3: 1}, nil, 1, 3, nil, "[2 3]", 0},
		{"stop at first wrap", 1, 0, nil, nil, 1, -1, nil, "[0 2 3]", 1},
		{"wrap then find", 3, 2, map[int]int{1: 1}, nil, 2, 1, nil, "[2 0 1]", 1},
		{"own rank last", 3, 3, nil, nil, 2, -1, nil, "[0 1 2]", 2},
		{"from past the end", 0, 4, map[int]int{2: 1}, nil, 2, 2, nil, "[1 2]", 1},
		{"error", 0, 0, nil, map[int]error{2: errProbe}, 1, 2, errProbe, "[1 2]", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep := &probeEP{me: tc.me, procs: 4, ready: tc.ready, fail: tc.fail}
			stops := 0
			stop := func() bool { stops++; return stops >= tc.stopAfter }
			buf := make([]byte, 1)
			src, n, err := xport.LoopSweep(nil, ep, tc.from, buf, stop)
			if src != tc.wantSrc || err != tc.wantErr {
				t.Fatalf("LoopSweep = src %d, err %v; want src %d, err %v", src, err, tc.wantSrc, tc.wantErr)
			}
			if got := fmt.Sprint(ep.log); got != tc.wantProbes {
				t.Fatalf("probed %s, want %s", got, tc.wantProbes)
			}
			if stops != tc.wantStopped {
				t.Fatalf("stop called %d times, want %d", stops, tc.wantStopped)
			}
			if tc.wantErr == nil && src >= 0 && (n != 1 || buf[0] != byte(src)) {
				t.Fatalf("message n=%d buf=%v from %d", n, buf, src)
			}
		})
	}
}
