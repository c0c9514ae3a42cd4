// Package trace records timestamped protocol events from the simulated
// hardware and the BillBoard Protocol, so a message's life — post,
// replication, detection, consumption, acknowledgement — can be laid
// out on the virtual timeline. cmd/anatomy uses it to print the
// breakdown behind the paper's 7.8 µs headline number.
//
// Beyond flat events, the recorder is span-structured: every BBP
// message carries a cluster-unique id (MsgID), assigned at Send/Mcast
// and propagated through ring injection, replication, detection,
// consume, acknowledgement and retry. Begin/End events open and close
// spans with parent links, so cmd/timeline can rebuild a causal tree
// for any message and export it as a Chrome trace. A parent link is
// explicit and names a span on the same node, except that a ring
// packet's records at other nodes (apply, transit handler) name its
// inject span at the origin. Otherwise, across nodes and layers, the
// join key is node, time and message id (nothing extra ever crosses
// the simulated wire).
//
// A recorder built with NewCapped keeps only the newest events in a
// fixed ring, counting what it evicted, so long fault sweeps cannot
// grow memory without bound.
package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
)

// Category classifies an event source.
type Category string

// Event categories.
const (
	Ring   Category = "ring"  // packet injected/applied on the SCRAMNet ring
	BBP    Category = "bbp"   // BillBoard Protocol actions
	Host   Category = "host"  // host-side bus operations
	Hybrid Category = "hyb"   // hybrid router decisions
	Fault  Category = "fault" // injected fault-script actions
	Live   Category = "live"  // liveness detector verdicts (suspect/dead/rejoin)
	Spin   Category = "spin"  // in-network handler execution at ring transit points
)

// SpanID identifies one span within a recorder; 0 means "no span".
type SpanID uint64

// Kind distinguishes instantaneous events from span boundaries.
type Kind uint8

const (
	// Instant is a point event (the zero value, as Emit records).
	Instant Kind = iota
	// Begin opens the span named in Event.Span.
	Begin
	// End closes it.
	End
)

func (k Kind) String() string {
	switch k {
	case Begin:
		return "B"
	case End:
		return "E"
	}
	return "."
}

// MsgID derives the cluster-unique message id from a sender rank and
// its BBP send sequence. The sequence starts at 1, so a valid id is
// never zero (0 means "no message attribution"). The receiver can
// reconstruct the id from the descriptor alone — no wire change.
func MsgID(sender int, seq uint32) uint64 {
	return uint64(uint32(sender))<<32 | uint64(seq)
}

// MsgSender and MsgSeq invert MsgID.
func MsgSender(msg uint64) int { return int(uint32(msg >> 32)) }
func MsgSeq(msg uint64) uint32 { return uint32(msg) }

// Event is one timestamped occurrence.
type Event struct {
	T      sim.Time
	Cat    Category
	Node   int
	Name   string
	Detail Detail
	// Kind marks span boundaries; Span is the span a Begin/End event
	// opens/closes; Parent is the causal parent span (same-node link);
	// Msg attributes the event to one BBP message (0 = unattributed).
	Kind   Kind
	Span   SpanID
	Parent SpanID
	Msg    uint64
}

// maxArgs bounds the arguments of one event's detail.
const maxArgs = 5

// Arg is one argument of an event's detail: an integer, a duration,
// or a string that costs nothing to pass (a constant, or an
// enumeration's name). A value of another kind, such as a list or a
// float, is formatted into a Str by its caller, which allocates; such
// calls sit on paths that run only on a partition or a fault.
type Arg struct {
	i    int64
	s    string
	kind argKind
}

type argKind uint8

const (
	argInt argKind = iota
	argStr
	argDur
)

// Int returns an integer argument.
func Int[T ~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64](v T) Arg {
	return Arg{i: int64(v)}
}

// Str returns a string argument.
func Str(s string) Arg { return Arg{s: s, kind: argStr} }

// Dur returns a duration argument, formatted as %v formats it.
func Dur(d sim.Duration) Arg { return Arg{i: int64(d), kind: argDur} }

// Bool returns a boolean argument, formatted as %v formats a bool.
func Bool(b bool) Arg {
	if b {
		return Str("true")
	}
	return Str("false")
}

// Err returns an error argument, formatted as %v formats an error.
func Err(err error) Arg {
	if err == nil {
		return Str("<nil>")
	}
	return Str(err.Error())
}

// Detail is an event's detail text, kept as its format and arguments;
// String formats it, so the text is built only where it is read.
type Detail struct {
	format string
	args   [maxArgs]Arg
	n      int
}

func newDetail(format string, args []Arg) Detail {
	if len(args) > maxArgs {
		panic(fmt.Sprintf("trace: detail %q has %d arguments, more than %d", format, len(args), maxArgs))
	}
	d := Detail{format: format, n: len(args)}
	copy(d.args[:], args)
	return d
}

// String formats the detail.
func (d Detail) String() string {
	var vals [maxArgs]any
	for i, a := range d.args[:d.n] {
		switch a.kind {
		case argStr:
			vals[i] = a.s
		case argDur:
			vals[i] = sim.Duration(a.i)
		default:
			vals[i] = a.i
		}
	}
	return fmt.Sprintf(d.format, vals[:d.n]...)
}

// Recorder accumulates events. A nil *Recorder is valid and records
// nothing, so instrumented code needs no guards beyond the method call.
type Recorder struct {
	evs   []Event
	cap   int // 0 = unbounded
	start int // ring start index once the capped buffer wrapped

	nextSpan SpanID

	drops          int64
	dropLo, dropHi uint64 // msg-id range seen on evicted events
	droppedMsg     bool
}

// New returns an empty, unbounded recorder.
func New() *Recorder { return &Recorder{} }

// NewCapped returns a recorder that retains only the newest n events:
// once full it evicts the oldest event for each new one, counting the
// evictions (Drops) and remembering the message-id range they covered
// (MayHaveDroppedMsg). This bounds tracing memory on long fault sweeps.
func NewCapped(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{cap: n, evs: make([]Event, 0, n)}
}

// add appends e, evicting the oldest event when capped and full.
func (r *Recorder) add(e Event) {
	if r.cap > 0 && len(r.evs) == r.cap {
		old := r.evs[r.start]
		r.drops++
		if old.Msg != 0 {
			if !r.droppedMsg {
				r.dropLo, r.dropHi = old.Msg, old.Msg
				r.droppedMsg = true
			} else {
				if old.Msg < r.dropLo {
					r.dropLo = old.Msg
				}
				if old.Msg > r.dropHi {
					r.dropHi = old.Msg
				}
			}
		}
		r.evs[r.start] = e
		r.start = (r.start + 1) % r.cap
		return
	}
	r.evs = append(r.evs, e)
}

// Drops returns how many events a capped recorder has evicted.
func (r *Recorder) Drops() int64 {
	if r == nil {
		return 0
	}
	return r.drops
}

// MayHaveDroppedMsg conservatively reports whether any evicted event
// could have belonged to msg: true iff events were dropped and msg lies
// in the [min,max] id range observed on message-attributed evictions.
// False positives are possible (the range is a summary), false
// negatives are not.
func (r *Recorder) MayHaveDroppedMsg(msg uint64) bool {
	if r == nil || r.drops == 0 || !r.droppedMsg {
		return false
	}
	return msg >= r.dropLo && msg <= r.dropHi
}

// Every recording method takes the event's detail as a format and up
// to five arguments, and is a no-op on a nil recorder. The arguments
// are plain values, so a call on a nil recorder allocates nothing and
// needs no guard at its call site; the detail is formatted only when
// it is read (Render, Spans, Event.Detail.String).

// Emit appends an instant event attributed to message msg with an
// explicit parent span (either may be zero).
func (r *Recorder) Emit(t sim.Time, cat Category, node int, name string, msg uint64, parent SpanID, format string, args ...Arg) {
	if r != nil {
		r.record(Instant, t, cat, node, name, 0, parent, msg, format, args)
	}
}

// BeginSpan opens a new span and returns its id (0 on a nil recorder,
// which every span-taking method accepts).
func (r *Recorder) BeginSpan(t sim.Time, cat Category, node int, name string, msg uint64, parent SpanID, format string, args ...Arg) SpanID {
	if r == nil {
		return 0
	}
	return r.record(Begin, t, cat, node, name, 0, parent, msg, format, args)
}

// EndSpan closes span id (no-op when the recorder is nil or id is 0).
func (r *Recorder) EndSpan(t sim.Time, cat Category, node int, name string, id SpanID, msg uint64, format string, args ...Arg) {
	if r != nil {
		r.record(End, t, cat, node, name, id, 0, msg, format, args)
	}
}

// record adds one event of kind k, giving a Begin event the next span
// id, and returns the event's span. It takes the event's fields as
// plain arguments so that the three methods above stay small enough to
// be inlined: an untraced call then costs its nil check.
func (r *Recorder) record(k Kind, t sim.Time, cat Category, node int, name string, span, parent SpanID, msg uint64, format string, args []Arg) SpanID {
	switch k {
	case Begin:
		r.nextSpan++
		span = r.nextSpan
	case End:
		if span == 0 {
			return 0
		}
	}
	r.add(Event{T: t, Cat: cat, Node: node, Name: name, Kind: k, Span: span, Parent: parent, Msg: msg, Detail: newDetail(format, args)})
	return span
}

// Events returns the recorded events in emission order (which is
// timestamp order, since the simulation clock is monotonic). On a
// capped recorder that wrapped, these are the newest Cap events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.start == 0 {
		return r.evs
	}
	out := make([]Event, 0, len(r.evs))
	out = append(out, r.evs[r.start:]...)
	out = append(out, r.evs[:r.start]...)
	return out
}

// Reset discards recorded events and drop accounting (capacity and the
// span-id sequence are kept, so ids stay unique across a Reset).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.evs = r.evs[:0]
	r.start = 0
	r.drops = 0
	r.droppedMsg = false
}

// Render writes the timeline as an aligned table with deltas between
// consecutive events.
func (r *Recorder) Render(w io.Writer) {
	evs := r.Events()
	if len(evs) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	t0 := evs[0].T
	prev := t0
	fmt.Fprintf(w, "%12s %10s  %-5s node %s %-16s %s\n", "t", "+delta", "cat", "k", "event", "detail")
	for _, e := range evs {
		detail := e.Detail.String()
		if e.Msg != 0 {
			detail = fmt.Sprintf("%s msg=%d:%d", detail, MsgSender(e.Msg), MsgSeq(e.Msg))
		}
		fmt.Fprintf(w, "%10dns %8dns  %-5s %4d %s %-16s %s\n",
			int64(e.T-t0), int64(e.T-prev), e.Cat, e.Node, e.Kind, e.Name, detail)
		prev = e.T
	}
	if d := r.Drops(); d > 0 {
		fmt.Fprintf(w, "(%d older events evicted by the %d-event cap)\n", d, r.cap)
	}
}

// Span returns the duration between the first event matching `from` and
// the last matching `to` (by name); ok is false if either is absent.
func (r *Recorder) Span(from, to string) (sim.Duration, bool) {
	if r == nil {
		return 0, false
	}
	var start, end sim.Time
	haveStart, haveEnd := false, false
	for _, e := range r.Events() {
		if !haveStart && e.Name == from {
			start, haveStart = e.T, true
		}
		if e.Name == to {
			end, haveEnd = e.T, true
		}
	}
	if !haveStart || !haveEnd || end < start {
		return 0, false
	}
	return end.Sub(start), true
}

// Count returns how many events carry the given name.
func (r *Recorder) Count(name string) int {
	n := 0
	for _, e := range r.Events() {
		if e.Name == name {
			n++
		}
	}
	return n
}

// SpanRec is one reconstructed span: its Begin event joined with its
// End event (if recorded).
type SpanRec struct {
	ID     SpanID
	Parent SpanID
	Msg    uint64
	Cat    Category
	Node   int
	Name   string
	Detail string
	Start  sim.Time
	End    sim.Time
	Ended  bool
}

// Spans reconstructs every span from the Begin/End events currently
// retained, in begin order. A span whose Begin was evicted by the cap
// does not appear; one whose End is missing has Ended=false.
func (r *Recorder) Spans() []SpanRec {
	if r == nil {
		return nil
	}
	var out []SpanRec
	idx := map[SpanID]int{}
	for _, e := range r.Events() {
		switch e.Kind {
		case Begin:
			idx[e.Span] = len(out)
			out = append(out, SpanRec{
				ID: e.Span, Parent: e.Parent, Msg: e.Msg,
				Cat: e.Cat, Node: e.Node, Name: e.Name, Detail: e.Detail.String(),
				Start: e.T, End: e.T,
			})
		case End:
			if i, ok := idx[e.Span]; ok {
				out[i].End = e.T
				out[i].Ended = true
			}
		}
	}
	return out
}
