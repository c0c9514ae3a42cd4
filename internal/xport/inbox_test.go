package xport_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/xport"
)

func TestInboxOutOfOrderFragments(t *testing.T) {
	in := xport.NewInbox(2)
	msg := "fragmented!"
	// Tail first, then head, then middle: only the last completes.
	for i, f := range []struct{ off, end int }{{8, 11}, {0, 4}, {4, 8}} {
		done := in.Add(1, 7, f.off, len(msg), []byte(msg[f.off:f.end]))
		if want := i == 2; done != want {
			t.Fatalf("fragment %d: Add reported %v, want %v", i, done, want)
		}
		if i < 2 {
			if _, ok := in.Pop(1); ok {
				t.Fatalf("fragment %d: partial message popped", i)
			}
		}
	}
	got, ok := in.Pop(1)
	if !ok || string(got) != msg {
		t.Fatalf("Pop = %q, %v; want %q", got, ok, msg)
	}
	if _, ok := in.Pop(1); ok {
		t.Fatal("message popped twice")
	}
}

// TestInboxReleaseReuse checks the inbox's buffer recycling: a
// released message buffer carries the next message that fits in it,
// a larger one gets a fresh buffer, and a steady Add/Pop/Release cycle
// allocates nothing.
func TestInboxReleaseReuse(t *testing.T) {
	in := xport.NewInbox(2)
	in.Add(1, 0, 0, 8, []byte("abcdefgh"))
	first, _ := in.Pop(1)
	in.Release(first)
	in.Add(1, 1, 0, 5, []byte("12345"))
	got, _ := in.Pop(1)
	if string(got) != "12345" || &got[0] != &first[0] {
		t.Fatalf("Pop = %q at %p, want \"12345\" reusing the released buffer at %p", got, &got[0], &first[0])
	}
	in.Release(got)
	in.Add(1, 2, 0, 16, []byte("0123456789abcdef"))
	if big, _ := in.Pop(1); string(big) != "0123456789abcdef" {
		t.Fatalf("Pop = %q after outgrowing the released buffer", big)
	}
	payload := []byte("steady")
	id := uint32(3)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 3; i++ {
			in.Add(0, id, 0, len(payload), payload)
			id++
		}
		for i := 0; i < 3; i++ {
			m, ok := in.Pop(0)
			if !ok || string(m) != "steady" {
				t.Fatalf("Pop = %q, %v", m, ok)
			}
			in.Release(m)
		}
	}); allocs != 0 {
		t.Fatalf("an Add/Pop/Release cycle allocates %v times, want 0", allocs)
	}
}

func TestInboxZeroLengthMessage(t *testing.T) {
	in := xport.NewInbox(2)
	if !in.Add(0, 0, 0, 0, nil) {
		t.Fatal("an empty fragment of a 0-byte message did not complete it")
	}
	got, ok := in.Pop(0)
	if !ok || len(got) != 0 {
		t.Fatalf("Pop = %q, %v; want an empty message", got, ok)
	}
}

func TestInboxInterleavedIDs(t *testing.T) {
	// Two messages from one source in flight at once, fragments
	// interleaved: each reassembles under its own id, and they queue in
	// completion order.
	in := xport.NewInbox(3)
	in.Add(2, 1, 0, 4, []byte("aa"))
	in.Add(2, 2, 0, 4, []byte("bb"))
	if !in.Add(2, 2, 2, 4, []byte("BB")) {
		t.Fatal("id 2 did not complete")
	}
	if !in.Add(2, 1, 2, 4, []byte("AA")) {
		t.Fatal("id 1 did not complete")
	}
	for _, want := range []string{"bbBB", "aaAA"} {
		if got, ok := in.Pop(2); !ok || string(got) != want {
			t.Fatalf("Pop = %q, %v; want %q", got, ok, want)
		}
	}
}

func TestInboxPopAnyRotation(t *testing.T) {
	// Sources 1 and 3 hold two messages, source 4 one; 0 and 2 are
	// empty. PopAny serves round-robin, skipping the empty sources and
	// wrapping past the end, and reports false once all are drained.
	in := xport.NewInbox(5)
	id := uint32(0)
	for _, src := range []int{1, 1, 3, 3, 4} {
		in.Add(src, id, 0, 1, []byte{byte(src)})
		id++
	}
	var order []int
	for {
		src, data, ok := in.PopAny()
		if !ok {
			break
		}
		if len(data) != 1 || int(data[0]) != src {
			t.Fatalf("PopAny returned %v from source %d", data, src)
		}
		order = append(order, src)
	}
	if got := fmt.Sprint(order); got != "[1 3 4 1 3]" {
		t.Fatalf("PopAny order %s, want [1 3 4 1 3]", got)
	}
}

func TestValidMcast(t *testing.T) {
	for _, c := range []struct {
		dsts []int
		want bool
	}{
		{nil, false},
		{[]int{}, false},
		{[]int{1, 2, 3}, true},
		{[]int{2, 2}, true},
		{[]int{1, 0}, false},  // self
		{[]int{1, -1}, false}, // below the world
		{[]int{1, 4}, false},  // above the world
	} {
		if got := xport.ValidMcast(0, 4, c.dsts); got != c.want {
			t.Errorf("ValidMcast(0, 4, %v) = %v, want %v", c.dsts, got, c.want)
		}
	}
}

func TestLoopMcast(t *testing.T) {
	var sent []int
	send := func(p *sim.Proc, dst int, data []byte) error {
		sent = append(sent, dst)
		if dst == 3 {
			return errors.New("refused")
		}
		return nil
	}
	// One send per distinct destination, in list order.
	if err := xport.LoopMcast(nil, []int{2, 1, 2, 1}, nil, send); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sent); got != "[2 1]" {
		t.Fatalf("sends %s, want [2 1]", got)
	}
	// The first error stops the loop.
	sent = nil
	if err := xport.LoopMcast(nil, []int{1, 3, 2}, nil, send); err == nil {
		t.Fatal("send error swallowed")
	}
	if got := fmt.Sprint(sent); got != "[1 3]" {
		t.Fatalf("sends %s, want [1 3]", got)
	}
}
