package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestCappedRecorderEvictsOldest(t *testing.T) {
	r := NewCapped(3)
	for i := 0; i < 5; i++ {
		r.Emit(sim.Time(i), BBP, 0, "ev", 0, 0, "n=%d", Int(i))
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("capped recorder holds %d events, want 3", len(evs))
	}
	if evs[0].T != 2 || evs[2].T != 4 {
		t.Fatalf("retained window is [%d,%d], want the newest [2,4]", evs[0].T, evs[2].T)
	}
	if r.Drops() != 2 {
		t.Fatalf("Drops() = %d, want 2", r.Drops())
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "(2 older events evicted by the 3-event cap)") {
		t.Fatalf("Render must state the evictions and the cap:\n%s", sb.String())
	}
}

func TestMayHaveDroppedMsgRange(t *testing.T) {
	r := NewCapped(2)
	a, b, c := MsgID(0, 5), MsgID(0, 9), MsgID(1, 1)
	r.Emit(0, BBP, 0, "x", a, 0, "")
	r.Emit(1, BBP, 0, "x", b, 0, "")
	if r.MayHaveDroppedMsg(a) {
		t.Fatal("nothing evicted yet, MayHaveDroppedMsg must be false")
	}
	r.Emit(2, BBP, 0, "x", c, 0, "") // evicts the event for a
	if !r.MayHaveDroppedMsg(a) {
		t.Fatal("event of msg a was evicted, MayHaveDroppedMsg(a) must be true")
	}
	if r.MayHaveDroppedMsg(c) {
		t.Fatal("msg c is outside the evicted range")
	}
	r.Reset()
	if r.Drops() != 0 || r.MayHaveDroppedMsg(a) {
		t.Fatal("Reset must clear drop accounting")
	}
}

func TestUnboundedRecorderNeverDrops(t *testing.T) {
	r := New()
	for i := 0; i < 1000; i++ {
		r.Emit(sim.Time(i), Ring, 0, "e", 0, 0, "")
	}
	if r.Drops() != 0 || r.MayHaveDroppedMsg(MsgID(0, 1)) {
		t.Fatal("unbounded recorder must not report drops")
	}
	if len(r.Events()) != 1000 {
		t.Fatalf("unbounded recorder lost events: %d", len(r.Events()))
	}
}

func TestSpansJoinBeginEnd(t *testing.T) {
	r := New()
	msg := MsgID(0, 1)
	outer := r.BeginSpan(10, Hybrid, 0, "route", 0, 0, "outer")
	inner := r.BeginSpan(20, BBP, 0, "post", msg, outer, "inner")
	r.EndSpan(30, BBP, 0, "send-end", inner, msg, "done")
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].ID != outer || spans[0].Ended {
		t.Fatalf("outer span must be first and unterminated: %+v", spans[0])
	}
	in := spans[1]
	if in.Parent != outer || in.Msg != msg || !in.Ended || in.Start != 20 || in.End != 30 {
		t.Fatalf("inner span wrong: %+v", in)
	}
}

func TestNilRecorderSpanMethodsAreSafe(t *testing.T) {
	var r *Recorder
	id := r.BeginSpan(0, BBP, 0, "post", MsgID(0, 1), 0, "x")
	if id != 0 {
		t.Fatalf("nil recorder BeginSpan = %d, want 0", id)
	}
	r.EndSpan(1, BBP, 0, "end", id, 0, "x")
	r.Emit(2, BBP, 0, "i", 1, 0, "x")
	if r.Drops() != 0 || r.MayHaveDroppedMsg(1) || r.Spans() != nil {
		t.Fatal("nil recorder accessors must return zero values")
	}
}

func TestMsgIDRoundTrip(t *testing.T) {
	for _, c := range []struct {
		sender int
		seq    uint32
	}{{0, 1}, {3, 0xFFFFFFFF}, {255, 42}} {
		id := MsgID(c.sender, c.seq)
		if id == 0 {
			t.Fatalf("MsgID(%d,%d) must be nonzero", c.sender, c.seq)
		}
		if MsgSender(id) != c.sender || MsgSeq(id) != c.seq {
			t.Fatalf("round trip failed for (%d,%d): got (%d,%d)",
				c.sender, c.seq, MsgSender(id), MsgSeq(id))
		}
	}
}
