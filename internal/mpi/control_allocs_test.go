package mpi

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scramnet"
	"repro/internal/sim"
)

// TestControlSendAllocs gates the control-envelope send path: once
// warm, an engine's RTS, CTS, window CTS and rendezvous notices over
// the BillBoard Protocol allocate nothing, the envelope buffers
// included. The receiver drains the raw transport and checks that
// every packet decodes to the envelope that was sent.
func TestControlSendAllocs(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	net, err := scramnet.New(k, scramnet.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.RecvTimeout = 0
	sys, err := core.New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := sys.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := sys.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(tx, DefaultConfig())
	envs := []envelope{
		{kind: kRTS, tag: 7, total: 1 << 16, reqID: 1},
		{kind: kCTS, tag: 7, total: 1 << 16, reqID: 1, aux: 2},
		{kind: kCTSW, tag: 7, total: 1 << 16, reqID: 1, aux: 2, winOff: 4096, winCap: 1 << 16},
		{kind: kRAck, reqID: 2},
	}
	got := 0
	k.SpawnDaemon("rx", func(p *sim.Proc) {
		buf := make([]byte, envWinBytes)
		for {
			n, err := rx.Recv(p, 0, buf)
			if err != nil {
				t.Error(err)
				return
			}
			if env, err := decodeEnv(buf[:n]); err != nil || env != envs[got%len(envs)] {
				t.Errorf("packet %d decodes to %+v, %v; want %+v", got, env, err, envs[got%len(envs)])
				return
			}
			got++
		}
	})
	send := k.Spawn("tx", func(p *sim.Proc) {
		for {
			p.Park()
			for _, env := range envs {
				e.sendControl(p, 1, env)
			}
		}
	}).Resume
	round := func() {
		k.At(k.Now(), send)
		k.RunFor(2 * sim.Millisecond)
	}
	const warm = 70
	for i := 0; i < warm; i++ {
		round()
	}
	twenty := func() {
		for i := 0; i < 20; i++ {
			round()
		}
	}
	if allocs := testing.AllocsPerRun(1, twenty); allocs != 0 {
		t.Fatalf("twenty rounds of four control-envelope sends allocate %v times, want 0", allocs)
	}
	if want := len(envs) * (warm + 40); got != want {
		t.Fatalf("received %d envelopes, want %d", got, want)
	}
}
