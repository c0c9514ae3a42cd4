package sim

// Queue is an unbounded FIFO with blocking receive, used to pass items
// between simulated processes and event handlers. Push never blocks.
type Queue[T any] struct {
	k        *Kernel
	items    []T
	nonempty *Cond
}

// NewQueue returns an empty queue attached to k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{k: k, nonempty: NewCond(k)}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push appends an item and wakes one waiting receiver.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.nonempty.Signal()
}

// TryPop removes and returns the head item without blocking. It
// copies the rest down in place, so the buffer keeps its capacity and
// a warmed queue's Push does not allocate.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	n := len(q.items)
	if n == 0 {
		return zero, false
	}
	v := q.items[0]
	copy(q.items, q.items[1:])
	q.items[n-1] = zero
	q.items = q.items[:n-1]
	return v, true
}

// Pop blocks p until an item is available, then removes and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for len(q.items) == 0 {
		q.nonempty.Wait(p)
	}
	v, _ := q.TryPop()
	return v
}

// Peek returns the head item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	return q.items[0], true
}

// Server models a FIFO service center (a wire, a bus, a DMA engine): jobs
// arriving while the server is busy queue behind it in virtual time. It
// is implemented without a process. Serve computes the completion time
// and keeps the job in the server's own backlog; only the backlog's
// head sits in the kernel's event queue, and its completion inserts
// the next job. A link that books a hundred departures at once
// therefore costs the queue one entry, not a hundred.
type Server struct {
	k         *Kernel
	busyUntil Time
	// jobs is a ring buffer of the jobs with a callback, in completion
	// order: jobs[head] is in the kernel's queue, the n-1 after it wait
	// for it to complete. Its length is a power of two, at least the
	// largest backlog so far.
	jobs    []job
	head, n int
	// complete is s.completeHead, bound once so that scheduling the
	// head does not allocate.
	complete func()
}

// job is one queued completion, keyed as the event Serve would have
// scheduled: its finish time and the queue key taken at Serve.
type job struct {
	t    Time
	key  uint64
	done func()
}

// NewServer returns an idle server.
func NewServer(k *Kernel) *Server {
	s := &Server{k: k}
	s.complete = s.completeHead
	return s
}

// Serve enqueues a job of the given service duration, which must not be
// negative, and invokes done (which may be nil) at its completion time.
// It returns the completion time.
//
// A job with a callback takes the kernel's next sequence number at the
// call, exactly as At would. Finish times never decrease along a
// server's backlog and sequence numbers only grow, so the jobs complete
// in the (t, seq) order they would have as separate events.
func (s *Server) Serve(service Duration, done func()) Time {
	if service < 0 {
		panic("sim: negative service time")
	}
	k := s.k
	start := k.now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	finish := start.Add(service)
	s.busyUntil = finish
	if done == nil {
		return finish
	}
	j := job{t: finish, key: k.seq<<seqShift | uint64(KindEvent), done: done}
	k.seq++
	if s.n == 0 {
		k.insert(j.t, j.key, s.complete)
	} else {
		k.queued++
	}
	if s.n == len(s.jobs) {
		s.grow()
	}
	s.jobs[(s.head+s.n)&(len(s.jobs)-1)] = j
	s.n++
	return finish
}

// grow doubles the ring buffer, unrolling the backlog to its start.
func (s *Server) grow() {
	jobs := make([]job, max(2*len(s.jobs), 4))
	for i := 0; i < s.n; i++ {
		jobs[i] = s.jobs[(s.head+i)&(len(s.jobs)-1)]
	}
	s.jobs, s.head = jobs, 0
}

// completeHead runs the head job's completion: it moves the next job
// into the queue under that job's own (t, seq), then calls the head's
// callback, which may Serve again.
func (s *Server) completeHead() {
	j := s.jobs[s.head]
	s.jobs[s.head] = job{}
	s.head = (s.head + 1) & (len(s.jobs) - 1)
	s.n--
	if s.n > 0 {
		next := &s.jobs[s.head]
		s.k.queued--
		s.k.insert(next.t, next.key, s.complete)
	}
	j.done()
}

// BusyUntil returns the time at which the server's current backlog
// drains.
func (s *Server) BusyUntil() Time { return s.busyUntil }
