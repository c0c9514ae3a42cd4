package core

import (
	"repro/internal/sim"
)

// Adaptive receive-DMA threshold (Thresholds.Adaptive).
//
// The receiver already performs the two bus operations whose relative
// cost decides the PIO-vs-DMA crossover: per-word PIO reads (polling,
// descriptor fetch, small-payload drains) and DMA drains. Instead of
// trusting the static configuration, the endpoint times its own
// operations in virtual time — the elapsed time of a bus operation is
// exactly the occupancy that feeds pci.busy_ns, plus any queueing
// behind concurrent DMA, which is the live contention signal a constant
// cannot see — and folds them into EWMAs:
//
//	w = EWMA of observed per-word PIO read cost (ns/word)
//	F = EWMA of observed DMA fixed overhead (drain elapsed − n·DMAPerByte)
//
// Every adaptWindow observations it recomputes the crossover length at
// which DMA becomes cheaper than word-at-a-time PIO:
//
//	n* : F + n·b = n·(w/4)  ⇒  n* = 4F / (w − 4b)
//
// with b = DMAPerByte from the bus config, rounded up to a whole word.
// On the default uncontended bus (w = 650 ns, F = 2.75 µs, b = 12 ns/B)
// this yields 20 B — the E7 measurement — and under contention the
// inflated w pulls the threshold down. The current value is published
// as the bbp.recv_dma_threshold_bytes gauge; recomputations that change
// it count bbp.threshold_adaptations.
type adaptiveState struct {
	enabled   bool
	wordNs    int64
	fixedNs   int64
	obs       int
	threshold int
}

const (
	ewmaShift   = 3  // EWMA weight 1/8
	adaptWindow = 16 // cost observations between threshold recomputations
)

// initAdaptive seeds the estimator from the bus cost model and the
// static threshold (the documented starting point and disabled-mode
// fallback).
func (e *Endpoint) initAdaptive() {
	t := e.sys.cfg.Thresholds
	e.adapt = adaptiveState{enabled: t.Adaptive, threshold: t.RecvDMA}
	bc := e.nic.Bus().Config()
	e.adapt.wordNs = int64(bc.PIOReadWord)
	e.adapt.fixedNs = int64(bc.DMASetup + bc.DMACompletionCheck)
}

// recvDMAThreshold returns the receive-DMA switch length currently in
// effect.
func (e *Endpoint) recvDMAThreshold() int {
	if e.adapt.enabled {
		return e.adapt.threshold
	}
	return e.sys.cfg.Thresholds.RecvDMA
}

func ewma(old, sample int64) int64 {
	return old + (sample-old)>>ewmaShift
}

// observeWordReads folds the elapsed virtual time of a words-long
// sequence of full-round-trip PIO reads into the per-word cost EWMA.
func (e *Endpoint) observeWordReads(words int, elapsed sim.Duration) {
	if !e.adapt.enabled || words <= 0 || elapsed <= 0 {
		return
	}
	e.adapt.wordNs = ewma(e.adapt.wordNs, int64(elapsed)/int64(words))
	e.adaptTick()
}

// observeDMARead folds one n-byte DMA drain's elapsed time into the
// fixed-overhead EWMA, after subtracting the size-proportional part.
func (e *Endpoint) observeDMARead(n int, elapsed sim.Duration) {
	if !e.adapt.enabled || n <= 0 || elapsed <= 0 {
		return
	}
	fixed := int64(elapsed) - int64(n)*int64(e.nic.Bus().Config().DMAPerByte)
	if fixed < 0 {
		fixed = 0
	}
	e.adapt.fixedNs = ewma(e.adapt.fixedNs, fixed)
	e.adaptTick()
}

func (e *Endpoint) adaptTick() {
	e.adapt.obs++
	if e.adapt.obs < adaptWindow {
		return
	}
	e.adapt.obs = 0
	e.recomputeThreshold()
}

func (e *Endpoint) recomputeThreshold() {
	a := &e.adapt
	b4 := 4 * int64(e.nic.Bus().Config().DMAPerByte)
	// PIO reads observed no dearer per byte than the DMA stream rate:
	// DMA can never win.
	t := 1 << 30
	if a.wordNs > b4 {
		n := (4*a.fixedNs + (a.wordNs - b4) - 1) / (a.wordNs - b4) // ceil(4F / (w−4b))
		t = int(n+3) &^ 3                                          // whole words
	}
	if t != a.threshold {
		a.threshold = t
		e.im.thresholdAdapts.Inc()
	}
	e.im.recvThresholdBytes.Set(int64(a.threshold))
}
