package trace

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(0, Ring, 0, "x", 0, 0, "")
	r.Emit(0, BBP, 0, "y", 0, 0, "%d", Int(1))
	if r.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
	r.Reset()
	if _, ok := r.Span("a", "b"); ok {
		t.Fatal("nil recorder found a span")
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "no events") {
		t.Fatalf("render = %q", sb.String())
	}
}

func TestEmitAndSpan(t *testing.T) {
	r := New()
	r.Emit(100, BBP, 0, "post", 0, 0, "slot=0")
	r.Emit(250, Ring, 0, "inject", 0, 0, "")
	r.Emit(900, BBP, 1, "consume", 0, 0, "slot=0")
	if len(r.Events()) != 3 {
		t.Fatalf("%d events", len(r.Events()))
	}
	span, ok := r.Span("post", "consume")
	if !ok || span != 800 {
		t.Fatalf("span = %v ok=%v", span, ok)
	}
	if _, ok := r.Span("post", "missing"); ok {
		t.Fatal("span to missing event reported ok")
	}
	if r.Count("inject") != 1 || r.Count("nothing") != 0 {
		t.Fatal("counts wrong")
	}
}

func TestRenderFormatsDeltas(t *testing.T) {
	r := New()
	r.Emit(1000, Host, 2, "write", 0, 0, "w=1")
	r.Emit(1600, Ring, 3, "apply", 0, 0, "off=0")
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	for _, want := range []string{"write", "apply", "600ns", "host", "ring"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestReset(t *testing.T) {
	r := New()
	r.Emit(1, BBP, 0, "a", 0, 0, "")
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestSpanOrderingGuard(t *testing.T) {
	r := New()
	r.Emit(500, BBP, 0, "late", 0, 0, "")
	r.Emit(100, BBP, 0, "early", 0, 0, "")
	// Span from a later event to an earlier one must not report ok.
	if _, ok := r.Span("late", "early"); ok {
		t.Fatal("negative span reported ok")
	}
	_ = sim.Time(0) // keep the sim import meaningful for Time types
}

// TestDetailFormatsLikeFmt pins the detail text: each argument kind
// renders exactly as fmt renders the value it stands for.
func TestDetailFormatsLikeFmt(t *testing.T) {
	r := New()
	err := errors.New("boom")
	r.Emit(0, BBP, 0, "a", 0, 0, "n=%d off=%#x big=%d", Int(-3), Int(uint32(0x40)), Int(uint64(1)<<40))
	r.Emit(0, BBP, 0, "b", 0, 0, "via=%s fast=%s err=%s nil=%s", Str("low"), Bool(true), Err(err), Err(nil))
	r.Emit(0, BBP, 0, "c", 0, 0, "checksum")
	r.Emit(0, BBP, 0, "d", 0, 0, "stall=%v short=%v", Dur(1500*sim.Microsecond), Dur(20))
	want := []string{
		fmt.Sprintf("n=%d off=%#x big=%d", -3, uint32(0x40), uint64(1)<<40),
		fmt.Sprintf("via=%s fast=%v err=%v nil=%v", "low", true, err, error(nil)),
		"checksum",
		fmt.Sprintf("stall=%v short=%v", 1500*sim.Microsecond, sim.Duration(20)),
	}
	for i, e := range r.Events() {
		if got := e.Detail.String(); got != want[i] {
			t.Errorf("event %d detail = %q, want %q", i, got, want[i])
		}
	}
}

// TestNilRecorderAllocs gates the untraced cost of every recording
// method: with non-constant arguments of each kind, a call on a nil
// recorder allocates nothing.
func TestNilRecorderAllocs(t *testing.T) {
	var r *Recorder
	n, seq, err := 7, uint32(1<<20), errors.New("x")
	via := []string{"low", "high"}[n%2]
	allocs := testing.AllocsPerRun(100, func() {
		n++
		id := r.BeginSpan(sim.Time(n), BBP, n, "post", MsgID(n, seq), 0, "slot=%d off=%d len=%d dests=%#x seq=%d",
			Int(n), Int(n*64), Int(n*1000), Int(uint32(n)), Int(seq))
		r.Emit(sim.Time(n), BBP, n, "re-ack", MsgID(n, seq), id, "sender=%d via=%s fast=%s stall=%v", Int(n), Str(via), Bool(n%2 == 0), Dur(sim.Duration(n)*sim.Microsecond))
		r.EndSpan(sim.Time(n), BBP, n, "send-end", id, MsgID(n, seq), "seq=%d err=%s", Int(seq+uint32(n)), Err(err))
	})
	if allocs != 0 {
		t.Fatalf("recording on a nil recorder allocates %v times per call triple, want 0", allocs)
	}
}
