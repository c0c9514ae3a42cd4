package xport

// Inbox is the one receive side of the frame transports (TCP-lite and
// the native Myrinet API): it reassembles each source's fragments into
// messages by message id, in any fragment order and with several ids in
// flight, and queues completed messages per source in completion order.
// Each transport keeps its own wire header and decodes it for Add.
//
// Message buffers are recycled: a transport hands a buffer that Pop or
// PopAny returned back with Release once it has copied the message out,
// and Add reassembles the next message into it.
type Inbox struct {
	partial map[msgKey]partial // messages under reassembly
	done    [][][]byte         // per source, completed messages
	next    int                // the source PopAny tries first
	bufs    Buffers            // released message buffers
}

type msgKey struct {
	src int
	id  uint32
}

type partial struct {
	got  int
	data []byte
}

// NewInbox returns an empty inbox for a world of procs sources.
func NewInbox(procs int) *Inbox {
	return &Inbox{partial: map[msgKey]partial{}, done: make([][][]byte, procs)}
}

// Add files the fragment payload of message id from src: the bytes at
// offset off of a message total bytes long. It reports whether the
// fragment completed the message, which Pop then returns.
func (in *Inbox) Add(src int, id uint32, off, total int, payload []byte) bool {
	key := msgKey{src, id}
	m, ok := in.partial[key]
	if !ok {
		// The fragments of a message cover each of its bytes once, so
		// a recycled buffer's stale bytes are all overwritten.
		m.data = in.bufs.Get(total)
	}
	copy(m.data[off:], payload)
	if m.got += len(payload); m.got < total {
		in.partial[key] = m
		return false
	}
	delete(in.partial, key)
	in.done[src] = append(in.done[src], m.data)
	return true
}

// Release hands back a message that Pop or PopAny returned, once the
// caller has copied it out; the caller must not touch it afterwards.
func (in *Inbox) Release(m []byte) { in.bufs.Put(m) }

// Pop removes and returns the oldest completed message from src. The
// queue shifts down in place, so its backing array is reused.
func (in *Inbox) Pop(src int) ([]byte, bool) {
	q := in.done[src]
	if len(q) == 0 {
		return nil, false
	}
	m := q[0]
	last := len(q) - 1
	copy(q, q[1:])
	q[last] = nil
	in.done[src] = q[:last]
	return m, true
}

// Ready reports whether a completed message from src waits for Pop.
func (in *Inbox) Ready(src int) bool { return len(in.done[src]) > 0 }

// PopAny is Pop from the first source with a completed message, trying
// sources round-robin from just past the one it served last.
func (in *Inbox) PopAny() (src int, data []byte, ok bool) {
	n := len(in.done)
	for i := 0; i < n; i++ {
		s := (in.next + i) % n
		if data, ok := in.Pop(s); ok {
			in.next = (s + 1) % n
			return s, data, true
		}
	}
	return 0, nil, false
}

// Buffers is a free list of byte buffers, for a layer that would
// otherwise allocate one per message. Whoever takes a buffer with Get
// owns it until it hands it back with Put.
type Buffers struct{ free [][]byte }

// Get returns an n-byte buffer with stale contents: the last one put
// back when it is large enough, else a new one.
func (b *Buffers) Get(n int) []byte {
	var buf []byte
	if last := len(b.free) - 1; last >= 0 {
		buf = b.free[last]
		b.free[last] = nil
		b.free = b.free[:last]
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return buf[:n]
}

// Put hands buf back for Get to reuse.
func (b *Buffers) Put(buf []byte) { b.free = append(b.free, buf) }
