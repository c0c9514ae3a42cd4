package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/spin"
)

// warmRounds runs a test's rounds past sequence and round numbers 255
// before measuring: trace arguments that small are boxed without
// allocating, so a call that boxed them on an untraced run would hide
// until then.
const warmRounds = 260

// TestRetryReAckAllocs gates the retry extension's steady state: with
// retry on, every descriptor scan re-acknowledges the slots this
// receiver already consumed ("re-ack"), and a warmed Send/Recv round,
// re-acks included, allocates nothing. A round sends more messages
// than there are buffers, so an allocation that recurs once per turn
// of the slot free list shows in every round.
func TestRetryReAckAllocs(t *testing.T) {
	perRound := 2*DefaultConfig().Buffers + 8
	k, _, eps := world(t, 2, func(c *Config) {
		c.RecvTimeout = 0
		c.Retry = DefaultRetryConfig()
	})
	defer k.Close()
	got := 0
	k.SpawnDaemon("rx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		for {
			if _, err := eps[1].Recv(p, 0, buf); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	})
	msg := make([]byte, 64)
	send := k.Spawn("tx", func(p *sim.Proc) {
		for {
			p.Park()
			for i := 0; i < perRound; i++ {
				if err := eps[0].Send(p, 1, msg); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}).Resume
	round := func() {
		k.At(k.Now(), send)
		k.RunFor(2 * sim.Millisecond)
	}
	for i := 0; i < warmRounds; i++ {
		round()
	}
	reAcks := eps[1].Stats().ReAcks
	if allocs := testing.AllocsPerRun(1, round); allocs != 0 {
		t.Fatalf("%d retry-enabled Send/Recv messages allocate %v times, want 0", perRound, allocs)
	}
	if eps[1].Stats().ReAcks == reAcks {
		t.Fatal("the measured rounds re-acknowledged nothing; the gate does not cover the re-ack path")
	}
	if want := perRound * (warmRounds + 2); got != want {
		t.Fatalf("received %d messages, want %d", got, want)
	}
}

// TestStreamAllreduceAllocs gates warmed in-network allreduce rounds on
// four ranks, their stream-allreduce span calls included, at zero
// allocations over twenty rounds, and checks each round's sum.
func TestStreamAllreduceAllocs(t *testing.T) {
	const nodes = 4
	k, _, _, eps := streamWorld(t, nodes, func(c *Config) { c.RecvTimeout = 0 })
	defer k.Close()
	rounds := 0
	var resume []func()
	for i := 0; i < nodes; i++ {
		i := i
		send, recv := vecU32(uint32(i+1), 1), make([]byte, 8)
		resume = append(resume, k.Spawn(fmt.Sprintf("rank-%d", i), func(p *sim.Proc) {
			for {
				p.Park()
				done, err := eps[i].StreamAllreduce(p, spin.OpSumU32, send, recv)
				if err != nil || !done {
					t.Errorf("rank %d: done=%v err=%v", i, done, err)
					return
				}
				if getWord(recv) != 1+2+3+4 || getWord(recv[4:]) != nodes {
					t.Errorf("rank %d: result %x", i, recv)
					return
				}
				if i == 0 {
					rounds++
				}
			}
		}).Resume)
	}
	round := func() {
		for _, r := range resume {
			k.At(k.Now(), r)
		}
		k.RunFor(2 * sim.Millisecond)
	}
	for i := 0; i < warmRounds; i++ {
		round()
	}
	twenty := func() {
		for i := 0; i < 20; i++ {
			round()
		}
	}
	if allocs := testing.AllocsPerRun(1, twenty); allocs != 0 {
		t.Fatalf("twenty stream allreduce rounds allocate %v times, want 0", allocs)
	}
	if want := warmRounds + 40; rounds != want {
		t.Fatalf("completed %d rounds, want %d", rounds, want)
	}
}
