package timeline

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// TestRunSweepAgreesWithFaultSweep pins the observed E6 run to the bare
// one: tracing and the snapshot stream charge no virtual time, so
// under loss with retries the fully observed run must measure exactly
// the point the uninstrumented sweep measures. sample=0 in the subtest
// names means every message is traced.
func TestRunSweepAgreesWithFaultSweep(t *testing.T) {
	fcfg := bench.DefaultFaultSweepConfig()
	fcfg.Rates = []float64{0, 0.15}
	bare := bench.FaultSweep(fcfg)
	for i, rate := range fcfg.Rates {
		t.Run(fmt.Sprintf("rate=%.2f/sample=0", rate), func(t *testing.T) {
			cfg := DefaultSweepConfig()
			cfg.Rate = rate
			res, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Point != bare[i] {
				t.Errorf("observed run measured %+v, bare sweep %+v", res.Point, bare[i])
			}
			last := res.Points[len(res.Points)-1]
			if retrans, _ := last.Snap.Counter("bbp.retransmits", 0); retrans != bare[i].Retransmits {
				t.Errorf("snapshot stream counts %d node-0 retransmits, bare sweep %d", retrans, bare[i].Retransmits)
			}
		})
	}
}

// TestRunSweepRefusesLostMessages: without the retry extension the
// lossy ring loses or corrupts messages, and the oracle-checked run
// returns an error instead of a measurement.
func TestRunSweepRefusesLostMessages(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Rate = 0.15
	cfg.Retry = core.RetryConfig{}
	res, err := RunSweep(cfg)
	if err == nil {
		t.Fatalf("a lossy run without retries measured %+v", res.Point)
	}
	if !strings.Contains(err.Error(), "violated delivery contract") {
		t.Errorf("error %q is not the oracle's verdict", err)
	}
}

// TestRenderSweepTables renders cmd/timeline's two tables for the E6
// point at 15% loss: one breakdown row per message and one row per
// co-spike interval, each interval naming its retransmit growth.
func TestRenderSweepTables(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Rate = 0.15
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bds, ivs strings.Builder
	RenderBreakdowns(&bds, res.Breakdowns)
	RenderIntervals(&ivs, res.Intervals)
	if rows := strings.Count(bds.String(), "\n") - 1; rows != res.Point.Delivered {
		t.Errorf("breakdown table has %d rows for %d delivered messages:\n%s", rows, res.Point.Delivered, bds.String())
	}
	if rows := strings.Count(ivs.String(), "\n") - 1; rows != len(res.Intervals) || rows == 0 {
		t.Errorf("interval table has %d rows for %d intervals", rows, len(res.Intervals))
	}
	for _, iv := range res.Intervals {
		if s := iv.String(); !strings.Contains(s, fmt.Sprintf("Δretransmits=%d", iv.DRetrans)) {
			t.Errorf("interval renders as %q", s)
		}
	}
}
