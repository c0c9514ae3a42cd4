package bench

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

// The simulation is deterministic, so the headline figures are pinned
// exactly (±2% slack for intentional recalibration): any drift in a
// substrate's cost model shows up here first, with the figure it moves.
// When changing a calibration constant on purpose, re-run
// `go run ./cmd/figures` and update these values alongside
// EXPERIMENTS.md.
func TestGoldenHeadlineNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("golden figures are slow")
	}
	cases := []struct {
		name string
		got  func() float64
		want float64
	}{
		{"Fig1 API 0B µs", func() float64 { return OneWayAPI(cluster.SCRAMNet, 0) }, 6.88},
		{"Fig1 API 4B µs", func() float64 { return OneWayAPI(cluster.SCRAMNet, 4) }, 8.40},
		{"Fig1 MPI 0B µs", func() float64 { return OneWayMPI(cluster.SCRAMNet, 0) }, 43.92},
		{"Fig1 MPI 4B µs", func() float64 { return OneWayMPI(cluster.SCRAMNet, 4) }, 49.16},
		{"Fig2 FE 0B µs", func() float64 { return OneWayAPI(cluster.FastEthernet, 0) }, 119.43},
		{"Fig2 MyrAPI 0B µs", func() float64 { return OneWayAPI(cluster.MyrinetAPI, 0) }, 77.62},
		{"Fig4 bcast4 0B µs", func() float64 { return BroadcastAPI(4, 0) }, 9.94},
		{"Fig6 mcast barrier 4 µs", func() float64 { return fig6(cluster.SCRAMNet, BarrierNative, 4) }, 35.94},
		{"Fig6 p2p barrier 4 µs", func() float64 { return fig6(cluster.SCRAMNet, BarrierP2P, 4) }, 174.53},
		{"raw fixed MB/s", func() float64 { return RingThroughput(false) }, 6.61},
		{"raw variable MB/s", func() float64 { return RingThroughput(true) }, 16.80},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := c.got()
			if math.Abs(got-c.want)/c.want > 0.02 {
				t.Errorf("%s = %.2f, golden %.2f (Δ %.1f%%)", c.name, got, c.want, 100*(got-c.want)/c.want)
			}
		})
	}
}
