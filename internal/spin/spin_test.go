package spin

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
)

// verdictFn adapts a function to the Handler interface.
type verdictFn func(ctx *HandlerCtx, pkt Packet) Verdict

func (f verdictFn) OnTransit(ctx *HandlerCtx, pkt Packet) Verdict { return f(ctx, pkt) }

// wordsOf builds a HandlerCtx.Word hook over a flat byte slice.
func wordsOf(mem []byte) func(off int) uint32 {
	return func(off int) uint32 { return word(mem[off:]) }
}

func TestVerdictStrings(t *testing.T) {
	cases := map[Verdict]string{
		Forward: "forward", Consume: "consume", Rewrite: "rewrite", Steer: "steer",
		Verdict(99): "spin.Verdict(99)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d: got %q want %q", int(v), got, want)
		}
	}
}

func TestRingOps(t *testing.T) {
	if OpNone.Valid() || RingOp(200).Valid() {
		t.Error("invalid ops reported valid")
	}
	cases := []struct {
		op      RingOp
		a, b, c uint32
		name    string
	}{
		{OpSumU32, 7, 5, 12, "sum-u32"},
		{OpMaxU32, 7, 5, 7, "max-u32"},
		{OpMaxU32, 5, 7, 7, "max-u32"},
		{OpMinU32, 7, 5, 5, "min-u32"},
		{OpMinU32, 5, 7, 5, "min-u32"},
		{OpBOR, 0b1010, 0b0110, 0b1110, "bor"},
		{OpBAND, 0b1010, 0b0110, 0b0010, "band"},
		{OpBXOR, 0b1010, 0b0110, 0b1100, "bxor"},
	}
	for _, c := range cases {
		if !c.op.Valid() {
			t.Errorf("%v: not valid", c.op)
		}
		if got := c.op.Combine(c.a, c.b); got != c.c {
			t.Errorf("%v(%d,%d): got %d want %d", c.op, c.a, c.b, got, c.c)
		}
		if got := c.op.String(); got != c.name {
			t.Errorf("op string: got %q want %q", got, c.name)
		}
	}
	if got := RingOp(77).String(); got != "spin.RingOp(77)" {
		t.Errorf("unknown op string %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Combine on OpNone did not panic")
		}
	}()
	OpNone.Combine(1, 2)
}

func TestHdrWordRoundtrip(t *testing.T) {
	for _, c := range []struct {
		op RingOp
		n  int
	}{{OpSumU32, 4}, {OpBXOR, 256}, {OpMaxU32, 0xffffff}} {
		op, n := DecodeHdr(HdrWord(c.op, c.n))
		if op != c.op || n != c.n {
			t.Errorf("roundtrip (%v,%d) -> (%v,%d)", c.op, c.n, op, n)
		}
	}
}

func TestEngineInstallValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero budget", func() { NewEngine(0, 0) })
	e := NewEngine(0, 100)
	mustPanic("negative off", func() { e.Install(-1, 4, verdictFn(nil)) })
	mustPanic("zero len", func() { e.Install(0, 0, verdictFn(nil)) })
	mustPanic("nil handler", func() { e.Install(0, 4, nil) })
}

func TestEngineCoversAndUninstall(t *testing.T) {
	e := NewEngine(0, 100)
	e.Install(100, 8, verdictFn(func(*HandlerCtx, Packet) Verdict { return Forward }))
	for _, c := range []struct {
		off, n int
		want   bool
	}{
		{100, 4, true}, {104, 4, true}, {96, 4, false}, {108, 4, false},
		{96, 8, true}, {107, 2, true}, {0, 100, false}, {0, 101, true},
	} {
		if got := e.Covers(c.off, c.n); got != c.want {
			t.Errorf("Covers(%d,%d) = %v want %v", c.off, c.n, got, c.want)
		}
	}
}

func TestEngineRunOrderAndVerdicts(t *testing.T) {
	e := NewEngine(3, 1000)
	var order []int
	mk := func(tag int, v Verdict) verdictFn {
		return func(ctx *HandlerCtx, pkt Packet) Verdict {
			order = append(order, tag)
			ctx.Charge(1)
			return v
		}
	}
	// Three overlapping handlers: forward, rewrite, forward — rewrite
	// must be sticky across handler 3.
	e.Install(0, 16, mk(1, Forward))
	e.Install(4, 8, mk(2, Rewrite))
	e.Install(0, 16, mk(3, Forward))
	ctx := &HandlerCtx{Node: 3, Word: wordsOf(make([]byte, 32))}
	v, cycles, trapped := e.Run(ctx, Packet{Off: 4, Data: make([]byte, 4)})
	if v != Rewrite || trapped || cycles != 3 {
		t.Errorf("run: v=%v cycles=%d trapped=%v", v, cycles, trapped)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("install order not respected: %v", order)
	}
	// A packet outside handler 2's range runs only 1 and 3.
	order = nil
	v, _, _ = e.Run(ctx, Packet{Off: 12, Data: make([]byte, 4)})
	if v != Forward || len(order) != 2 {
		t.Errorf("range filter: v=%v order=%v", v, order)
	}
	// Consume ends the chain.
	e2 := NewEngine(0, 1000)
	e2.Install(0, 4, mk(4, Consume))
	e2.Install(0, 4, mk(5, Forward))
	order = nil
	v, _, _ = e2.Run(ctx, Packet{Off: 0, Data: make([]byte, 4)})
	if v != Consume || len(order) != 1 {
		t.Errorf("consume chain: v=%v order=%v", v, order)
	}
	// Steer ends the chain too.
	e3 := NewEngine(0, 1000)
	e3.Install(0, 4, mk(6, Steer))
	e3.Install(0, 4, mk(7, Rewrite))
	order = nil
	v, _, _ = e3.Run(ctx, Packet{Off: 0, Data: make([]byte, 4)})
	if v != Steer || len(order) != 1 {
		t.Errorf("steer chain: v=%v order=%v", v, order)
	}
	st := e.Stats()
	if st.HandlersRun != 5 || st.PacketsRewritten != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestEngineBudgetTrapRollsBack(t *testing.T) {
	m := metrics.New()
	e := NewEngine(1, 10)
	e.SetMetrics(m)
	e.Install(0, 4, verdictFn(func(ctx *HandlerCtx, pkt Packet) Verdict {
		putWord(pkt.Data, 0xdeadbeef) // mutation that must be rolled back
		ctx.Charge(50)                // blows the 10-cycle budget
		return Rewrite
	}))
	ran := false
	e.Install(0, 4, verdictFn(func(ctx *HandlerCtx, pkt Packet) Verdict {
		ran = true
		return Forward
	}))
	data := []byte{1, 2, 3, 4}
	ctx := &HandlerCtx{Word: wordsOf(make([]byte, 8))}
	v, cycles, trapped := e.Run(ctx, Packet{Off: 0, Data: data})
	if !trapped || v != Forward {
		t.Fatalf("v=%v trapped=%v", v, trapped)
	}
	if cycles != 10 {
		t.Errorf("trapped transit must charge exactly the budget, got %d", cycles)
	}
	if ran {
		t.Error("handler after the overrun still ran")
	}
	if !bytes.Equal(data, []byte{1, 2, 3, 4}) {
		t.Errorf("mutation not rolled back: %x", data)
	}
	st := e.Stats()
	if st.TrapsToHost != 1 || st.HandlerCycles != 10 || st.PacketsRewritten != 0 {
		t.Errorf("stats %+v", st)
	}
	if m.Counter("spin.traps_to_host", 1).Value() != 1 ||
		m.Counter("spin.handler_cycles", 1).Value() != 10 {
		t.Error("spin.* instruments out of sync with stats")
	}
}

func TestCounterWordRoundtrip(t *testing.T) {
	for _, c := range []struct{ round, count uint32 }{
		{0, 1}, {1, 7}, {255, CounterRanks - 1}, {256, 5}, {0xffffffff, 0},
	} {
		round, count := DecodeCounter(CounterWord(c.round, c.count))
		if round != c.round&0xff || count != c.count {
			t.Errorf("roundtrip (%d,%d) -> (%d,%d)", c.round, c.count, round, count)
		}
	}
	// A full count from round r must never equal round r+1's expectation
	// unless the rounds are exactly 256 apart.
	full := uint32(4)
	if CounterWord(7, full) == CounterWord(8, full) {
		t.Error("round tag does not separate adjacent rounds")
	}
	if CounterWord(7, full) != CounterWord(7+256, full) {
		t.Error("tag arithmetic broken at wraparound")
	}
	// The in-place increment a transit applies stays within the count
	// field for every addressable rank count: seeding with count 1 and
	// incrementing through the largest rank count never carries into
	// the tag.
	w := CounterWord(9, 1) + (CounterRanks - 2)
	if round, count := DecodeCounter(w); round != 9 || count != CounterRanks-1 {
		t.Errorf("increment carried into the tag: (%d,%d)", round, count)
	}
}

// TestTrapRollsBackReducerState is the regression test for handler
// state surviving a trap: a transit whose vector combine is rolled back
// (here by an overlapping cycle-burner overrunning the budget after the
// Reducer committed) must not count those bytes toward its counter
// increment, or the initiator would read a full count over lanes that
// were never combined.
func TestTrapRollsBackReducerState(t *testing.T) {
	const (
		hdrOff = 0
		ctrOff = 4
		vecOff = 8
		maxB   = 8
		conOff = 64
	)
	mem := make([]byte, 128)
	putWord(mem[conOff:], 100)
	putWord(mem[conOff+4:], 200)
	e := NewEngine(1, 20)
	e.Install(hdrOff, 8+maxB, &Reducer{
		HdrOff: hdrOff, VecOff: vecOff, CtrOff: ctrOff,
		MaxBytes: maxB, ContribOff: conOff,
	})
	burning := true
	e.Install(vecOff, maxB, verdictFn(func(ctx *HandlerCtx, pkt Packet) Verdict {
		if burning {
			ctx.Charge(1000)
		}
		return Forward
	}))
	ctx := &HandlerCtx{Node: 1, Word: wordsOf(mem)}

	hdr := make([]byte, 4)
	putWord(hdr, HdrWord(OpSumU32, maxB))
	if v, _, trapped := e.Run(ctx, Packet{Off: hdrOff, Data: hdr}); v != Forward || trapped {
		t.Fatalf("hdr: v=%v trapped=%v", v, trapped)
	}
	// Both vector packets trap: the Reducer combines and commits, then
	// the burner blows the budget. Payload and combined-count must both
	// roll back.
	for i := 0; i < maxB; i += 4 {
		vec := make([]byte, 4)
		putWord(vec, uint32(i+1))
		v, _, trapped := e.Run(ctx, Packet{Off: vecOff + i, Data: vec})
		if !trapped || v != Forward {
			t.Fatalf("vec@%d: v=%v trapped=%v", i, v, trapped)
		}
		if got := word(vec); got != uint32(i+1) {
			t.Fatalf("vec@%d payload not rolled back: %d", i, got)
		}
	}
	// The counter packet must pass untouched: this node combined
	// nothing that survived.
	ctr := make([]byte, 4)
	putWord(ctr, CounterWord(1, 1))
	v, _, trapped := e.Run(ctx, Packet{Off: ctrOff, Data: ctr})
	if v != Forward || trapped {
		t.Fatalf("ctr: v=%v trapped=%v", v, trapped)
	}
	if got := word(ctr); got != CounterWord(1, 1) {
		t.Errorf("trapped transit still bumped the counter: %#x", got)
	}

	// With the burner idle the same reducer must work again: trap
	// rollback may not wedge later rounds.
	burning = false
	putWord(hdr, HdrWord(OpSumU32, maxB))
	e.Run(ctx, Packet{Off: hdrOff, Data: hdr})
	want := []uint32{101, 205}
	for i := 0; i < maxB; i += 4 {
		vec := make([]byte, 4)
		putWord(vec, uint32(i+1))
		if v, _, _ := e.Run(ctx, Packet{Off: vecOff + i, Data: vec}); v != Rewrite || word(vec) != want[i/4] {
			t.Fatalf("recovery vec@%d: v=%v lane=%d", i, v, word(vec))
		}
	}
	putWord(ctr, CounterWord(2, 1))
	if v, _, _ := e.Run(ctx, Packet{Off: ctrOff, Data: ctr}); v != Rewrite || word(ctr) != CounterWord(2, 2) {
		t.Fatalf("recovery ctr: v=%v word=%#x", v, word(ctr))
	}
}

// TestReducerSelfOverrunCommitsNothing covers the single-handler case:
// when the Reducer's own Charge overruns the budget it must bail before
// mutating the payload or committing its combined count.
func TestReducerSelfOverrunCommitsNothing(t *testing.T) {
	const (
		hdrOff = 0
		ctrOff = 4
		vecOff = 8
		maxB   = 8
		conOff = 64
	)
	mem := make([]byte, 128)
	putWord(mem[conOff:], 7)
	// Budget 2: the header's Charge(2) fits exactly, but an 8-byte
	// vector packet costs 1+2 = 3 cycles and traps.
	e := NewEngine(2, 2)
	e.Install(hdrOff, 8+maxB, &Reducer{
		HdrOff: hdrOff, VecOff: vecOff, CtrOff: ctrOff,
		MaxBytes: maxB, ContribOff: conOff,
	})
	ctx := &HandlerCtx{Node: 2, Word: wordsOf(mem)}
	hdr := make([]byte, 4)
	putWord(hdr, HdrWord(OpSumU32, maxB))
	if _, _, trapped := e.Run(ctx, Packet{Off: hdrOff, Data: hdr}); trapped {
		t.Fatal("header transit trapped under exact budget")
	}
	vec := make([]byte, 8)
	putWord(vec, 1)
	v, _, trapped := e.Run(ctx, Packet{Off: vecOff, Data: vec})
	if !trapped || v != Forward || word(vec) != 1 {
		t.Fatalf("vec: v=%v trapped=%v lane=%d", v, trapped, word(vec))
	}
	ctr := make([]byte, 4)
	putWord(ctr, CounterWord(1, 1))
	if v, _, _ := e.Run(ctx, Packet{Off: ctrOff, Data: ctr}); v != Forward || word(ctr) != CounterWord(1, 1) {
		t.Fatalf("counter bumped by a trapped combine: v=%v word=%#x", v, word(ctr))
	}
}

func TestReducerRound(t *testing.T) {
	const (
		hdrOff = 0
		ctrOff = 4
		vecOff = 8
		maxB   = 16
		conOff = 64
	)
	mem := make([]byte, 128)
	putWord(mem[conOff:], 100)
	putWord(mem[conOff+4:], 200)
	e := NewEngine(2, 1000)
	e.Install(hdrOff, 8+maxB, &Reducer{
		HdrOff: hdrOff, VecOff: vecOff, CtrOff: ctrOff,
		MaxBytes: maxB, ContribOff: conOff,
	})
	ctx := &HandlerCtx{Node: 2, Word: wordsOf(mem)}
	run := func(off int, data []byte) (Verdict, []byte) {
		v, _, _ := e.Run(ctx, Packet{Off: off, Data: data})
		return v, data
	}

	// Header announces an 8-byte sum round.
	hdr := make([]byte, 4)
	putWord(hdr, HdrWord(OpSumU32, 8))
	if v, _ := run(hdrOff, hdr); v != Forward {
		t.Fatalf("hdr verdict %v", v)
	}
	// Vector packets get this node's lanes combined in.
	v1 := make([]byte, 4)
	putWord(v1, 1)
	verdict, out := run(vecOff, v1)
	if verdict != Rewrite || word(out) != 101 {
		t.Fatalf("vec0: v=%v lane=%d", verdict, word(out))
	}
	v2 := make([]byte, 4)
	putWord(v2, 2)
	verdict, out = run(vecOff+4, v2)
	if verdict != Rewrite || word(out) != 202 {
		t.Fatalf("vec1: v=%v lane=%d", verdict, word(out))
	}
	// All bytes combined: the counter packet gets our increment.
	ctr := make([]byte, 4)
	putWord(ctr, CounterWord(0, 1))
	verdict, out = run(ctrOff, ctr)
	if verdict != Rewrite || word(out) != CounterWord(0, 2) {
		t.Fatalf("ctr: v=%v word=%#x", verdict, word(out))
	}

	// Second round loses a vector packet: the counter must pass
	// untouched.
	putWord(hdr, HdrWord(OpSumU32, 8))
	run(hdrOff, hdr)
	run(vecOff, v1) // second packet "lost" — never transits
	putWord(ctr, CounterWord(1, 1))
	verdict, out = run(ctrOff, ctr)
	if verdict != Forward || word(out) != CounterWord(1, 1) {
		t.Fatalf("lossy ctr: v=%v word=%#x", verdict, word(out))
	}

	// A bad header (oversize vector) deactivates the round entirely.
	putWord(hdr, HdrWord(OpSumU32, maxB+4))
	run(hdrOff, hdr)
	putWord(v1, 1)
	if verdict, _ = run(vecOff, v1); verdict != Forward {
		t.Fatalf("inactive vec verdict %v", verdict)
	}
	putWord(ctr, 0)
	if verdict, out = run(ctrOff, ctr); verdict != Forward || word(out) != 0 {
		t.Fatalf("inactive ctr: v=%v word=%#x", verdict, word(out))
	}
}

func TestTopicFilter(t *testing.T) {
	e := NewEngine(0, 100)
	e.Install(100, 40, &TopicFilter{
		Base: 100, SlotBytes: 10, Topics: 4,
		Subscribed: func(topic int) bool { return topic%2 == 0 },
	})
	ctx := &HandlerCtx{Word: wordsOf(make([]byte, 256))}
	for _, c := range []struct {
		off  int
		want Verdict
	}{
		{100, Forward}, // topic 0: subscribed
		{112, Steer},   // topic 1: not subscribed
		{125, Forward}, // topic 2
		{133, Steer},   // topic 3
	} {
		if v, _, _ := e.Run(ctx, Packet{Off: c.off, Data: make([]byte, 4)}); v != c.want {
			t.Errorf("off %d: got %v want %v", c.off, v, c.want)
		}
	}
}
