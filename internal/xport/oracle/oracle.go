// Package oracle is a transparent delivery checker for any
// xport.Endpoint. Wrapping a world of endpoints records every Send and
// Mcast payload and every successful receive; Check then verifies the
// transport's contract per (sender, receiver) stream:
//
//   - no invention: every delivered message was previously sent,
//   - exactly-once: no sent message is delivered twice,
//   - in-order: deliveries are a subsequence of the send order,
//   - (optionally) completeness: every sent message was delivered.
//
// Completeness is a separate knob because lossy runs legitimately drop
// messages on transports without a recovery layer (TCP-lite has no
// retransmission); exactly-once and ordering must hold regardless, and
// a BBP endpoint with the retry extension must additionally pass the
// completeness check under the fault scripts the test suite uses.
package oracle

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
	"repro/internal/xport"
)

// Oracle accumulates the send and delivery logs for one world of
// wrapped endpoints. It lives outside simulated time: recording costs
// the simulation nothing.
type Oracle struct {
	streams map[[2]int]*stream
}

// stream is the per-(sender, receiver) history.
type stream struct {
	sent      [][]byte
	delivered [][]byte
}

// New returns an empty oracle.
func New() *Oracle {
	return &Oracle{streams: make(map[[2]int]*stream)}
}

func (o *Oracle) stream(src, dst int) *stream {
	key := [2]int{src, dst}
	s := o.streams[key]
	if s == nil {
		s = &stream{}
		o.streams[key] = s
	}
	return s
}

// RecordSend logs a payload posted from src to dst.
func (o *Oracle) RecordSend(src, dst int, data []byte) {
	s := o.stream(src, dst)
	s.sent = append(s.sent, append([]byte(nil), data...))
}

// RecordDelivery logs a payload handed to the application at dst.
func (o *Oracle) RecordDelivery(src, dst int, data []byte) {
	s := o.stream(src, dst)
	s.delivered = append(s.delivered, append([]byte(nil), data...))
}

// Wrap returns an endpoint that forwards every call to ep and records
// sends and deliveries. Wrap every endpoint of a world with the same
// Oracle before starting traffic.
func (o *Oracle) Wrap(ep xport.Endpoint) *Endpoint {
	return &Endpoint{Endpoint: ep, o: o}
}

// Stats summarizes a Check pass.
type Stats struct {
	Streams   int
	Sent      int
	Delivered int
	Lost      int
}

func (s Stats) String() string {
	return fmt.Sprintf("streams=%d sent=%d delivered=%d lost=%d", s.Streams, s.Sent, s.Delivered, s.Lost)
}

// Check verifies every stream. Deliveries must form an in-order,
// duplicate-free subsequence of the sends; with requireAll the
// subsequence must be the whole send log (no losses). It returns the
// aggregate stats and the first violation found, if any.
func (o *Oracle) Check(requireAll bool) (Stats, error) {
	var st Stats
	for key, s := range o.streams {
		st.Streams++
		st.Sent += len(s.sent)
		st.Delivered += len(s.delivered)
		// cursor walks the send log; each delivery must match a sent
		// payload at or after it. A delivery that matches nothing ahead
		// of the cursor is an invention, a duplicate, or a reordering —
		// all contract violations.
		cursor := 0
		for di, d := range s.delivered {
			found := -1
			for i := cursor; i < len(s.sent); i++ {
				if bytes.Equal(s.sent[i], d) {
					found = i
					break
				}
			}
			if found < 0 {
				return st, fmt.Errorf("oracle: stream %d->%d delivery #%d (%d bytes) is not an in-order, exactly-once match of the send log (%d sent, cursor %d)",
					key[0], key[1], di, len(d), len(s.sent), cursor)
			}
			st.Lost += found - cursor
			cursor = found + 1
		}
		st.Lost += len(s.sent) - cursor
		if requireAll && len(s.delivered) != len(s.sent) {
			return st, fmt.Errorf("oracle: stream %d->%d lost %d of %d messages",
				key[0], key[1], len(s.sent)-len(s.delivered), len(s.sent))
		}
	}
	return st, nil
}

// Endpoint is the recording wrapper. It satisfies xport.Endpoint and
// adds no simulated cost.
type Endpoint struct {
	xport.Endpoint
	o *Oracle
}

// Send records the payload, then forwards. Only successful sends are
// recorded: a rejected send (ErrTooLarge, bad rank) never entered the
// transport.
func (e *Endpoint) Send(p *sim.Proc, dst int, data []byte) error {
	err := e.Endpoint.Send(p, dst, data)
	if err == nil {
		e.o.RecordSend(e.Rank(), dst, data)
	}
	return err
}

// Mcast records one send per destination, then forwards.
func (e *Endpoint) Mcast(p *sim.Proc, dsts []int, data []byte) error {
	err := e.Endpoint.Mcast(p, dsts, data)
	if err == nil {
		for _, d := range dsts {
			e.o.RecordSend(e.Rank(), d, data)
		}
	}
	return err
}

// Recv forwards and records the delivery.
func (e *Endpoint) Recv(p *sim.Proc, src int, buf []byte) (int, error) {
	n, err := e.Endpoint.Recv(p, src, buf)
	if err == nil {
		e.o.RecordDelivery(src, e.Rank(), buf[:n])
	}
	return n, err
}

// TryRecv forwards and records the delivery when one happened.
func (e *Endpoint) TryRecv(p *sim.Proc, src int, buf []byte) (n int, ok bool, err error) {
	n, ok, err = e.Endpoint.TryRecv(p, src, buf)
	if err == nil && ok {
		e.o.RecordDelivery(src, e.Rank(), buf[:n])
	}
	return n, ok, err
}

// RecvAny forwards and records the delivery.
func (e *Endpoint) RecvAny(p *sim.Proc, buf []byte) (src, n int, err error) {
	src, n, err = e.Endpoint.RecvAny(p, buf)
	if err == nil {
		e.o.RecordDelivery(src, e.Rank(), buf[:n])
	}
	return src, n, err
}

var _ xport.Endpoint = (*Endpoint)(nil)
