package xport

// Inbox is the one receive side of the frame transports (TCP-lite and
// the native Myrinet API): it reassembles each source's fragments into
// messages by message id, in any fragment order and with several ids in
// flight, and queues completed messages per source in completion order.
// Each transport keeps its own wire header and decodes it for Add.
type Inbox struct {
	partial map[msgKey]partial // messages under reassembly
	done    [][][]byte         // per source, completed messages
	next    int                // the source PopAny tries first
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
		m.data = make([]byte, total)
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

// Pop removes and returns the oldest completed message from src.
func (in *Inbox) Pop(src int) ([]byte, bool) {
	q := in.done[src]
	if len(q) == 0 {
		return nil, false
	}
	in.done[src] = q[1:]
	return q[0], true
}

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
