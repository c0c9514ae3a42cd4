package hybrid_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTraceParentsStayOnNode runs two overlapping hybrid streams (0→1
// and 2→3, mixing ring-sized and Myrinet-sized messages) under one
// recorder and requires every parent link to name a span begun on the
// event's own node. The one exception is the ring's per-hop apply
// record, which by design names its packet's inject span at the
// origin. A recorder-wide "current parent" shared by all processes
// fails this as soon as two senders overlap.
func TestTraceParentsStayOnNode(t *testing.T) {
	const msgs = 8
	k := sim.NewKernel()
	rec := trace.New()
	c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.Hybrid, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		src, dst := pair[0], pair[1]
		k.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				n := 64
				if i%2 == 1 {
					n = 4000
				}
				if err := c.Endpoints[src].Send(p, dst, make([]byte, n)); err != nil {
					t.Error(err)
					return
				}
			}
		})
		k.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, 4096)
			for i := 0; i < msgs; i++ {
				if _, err := c.Endpoints[dst].Recv(p, src, buf); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Count("route"); got != 2*msgs {
		t.Fatalf("recorded %d route spans, want %d", got, 2*msgs)
	}
	begun := map[trace.SpanID]int{}
	linked, bad := 0, 0
	for _, e := range rec.Events() {
		if e.Kind == trace.Begin {
			begun[e.Span] = e.Node
		}
		if e.Parent == 0 || (e.Cat == trace.Ring && e.Name == "apply") {
			continue
		}
		linked++
		node, ok := begun[e.Parent]
		if !ok {
			t.Fatalf("%s on node %d names span %d, which has not begun", e.Name, e.Node, e.Parent)
		}
		if node != e.Node {
			bad++
			if bad <= 3 {
				t.Errorf("%s %s on node %d names span %d begun on node %d", e.Cat, e.Name, e.Node, e.Parent, node)
			}
		}
	}
	if linked == 0 {
		t.Fatal("no parent links recorded")
	}
	if bad > 0 {
		t.Fatalf("%d of %d parent links cross nodes", bad, linked)
	}
}
