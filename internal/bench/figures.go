package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
)

// Series is one curve of a figure: latency (µs) against message size.
type Series struct {
	Label string
	X     []int
	Y     []float64
}

// Sizes used by the paper's small-message panels (0–64 B) and full
// panels (0–1000 B); Figure 5's broadcast panel extends to 1 KB.
var (
	SmallSizes = []int{0, 4, 8, 16, 24, 32, 48, 64}
	FullSizes  = []int{0, 4, 16, 64, 128, 256, 512, 768, 1000}
	WideSizes  = []int{0, 64, 256, 512, 1024, 2048, 4096, 8192}
)

// Fig1 regenerates Figure 1: SCRAMNet one-way latency, BillBoard API vs
// MPI layer.
func Fig1(sizes []int) []Series {
	api := Series{Label: "SCRAMNet API"}
	mpiS := Series{Label: "MPI"}
	for _, n := range sizes {
		api.X = append(api.X, n)
		api.Y = append(api.Y, OneWayAPI(cluster.SCRAMNet, n))
		mpiS.X = append(mpiS.X, n)
		mpiS.Y = append(mpiS.Y, OneWayMPI(cluster.SCRAMNet, n))
	}
	return []Series{api, mpiS}
}

// Fig2 regenerates Figure 2: API-layer one-way latency across networks.
func Fig2(sizes []int) []Series {
	nets := []struct {
		label string
		net   cluster.Network
	}{
		{"SCRAMNet (API)", cluster.SCRAMNet},
		{"Fast Ethernet (TCP/IP)", cluster.FastEthernet},
		{"Myrinet API", cluster.MyrinetAPI},
		{"Myrinet (TCP/IP)", cluster.MyrinetTCP},
		{"ATM (TCP/IP)", cluster.ATM},
	}
	var out []Series
	for _, nc := range nets {
		s := Series{Label: nc.label}
		for _, n := range sizes {
			s.X = append(s.X, n)
			s.Y = append(s.Y, OneWayAPI(nc.net, n))
		}
		out = append(out, s)
	}
	return out
}

// Fig3 regenerates Figure 3: MPI-layer one-way latency on SCRAMNet,
// Fast Ethernet and ATM.
func Fig3(sizes []int) []Series {
	nets := []struct {
		label string
		net   cluster.Network
	}{
		{"SCRAMNet", cluster.SCRAMNet},
		{"Fast Ethernet", cluster.FastEthernet},
		{"ATM", cluster.ATM},
	}
	var out []Series
	for _, nc := range nets {
		s := Series{Label: nc.label}
		for _, n := range sizes {
			s.X = append(s.X, n)
			s.Y = append(s.Y, OneWayMPI(nc.net, n))
		}
		out = append(out, s)
	}
	return out
}

// Fig4 regenerates Figure 4: BillBoard API point-to-point vs 4-node
// broadcast latency.
func Fig4(sizes []int) []Series {
	ptp := Series{Label: "Point-to-Point"}
	bc := Series{Label: "4-node Broadcast"}
	for _, n := range sizes {
		ptp.X = append(ptp.X, n)
		ptp.Y = append(ptp.Y, OneWayAPI(cluster.SCRAMNet, n))
		bc.X = append(bc.X, n)
		bc.Y = append(bc.Y, BroadcastAPI(4, n))
	}
	return []Series{ptp, bc}
}

// Fig5 regenerates Figure 5: 4-node MPI_Bcast on Fast Ethernet
// (point-to-point), SCRAMNet (point-to-point) and SCRAMNet (API
// multicast).
func Fig5(sizes []int) []Series {
	fe := Series{Label: "Fast Ethernet using point-to-point"}
	sp := Series{Label: "SCRAMNet using point-to-point"}
	sm := Series{Label: "SCRAMNet using API multicast"}
	for _, n := range sizes {
		fe.X = append(fe.X, n)
		fe.Y = append(fe.Y, MPIBcast(cluster.FastEthernet, BcastP2P, 4, n))
		sp.X = append(sp.X, n)
		sp.Y = append(sp.Y, MPIBcast(cluster.SCRAMNet, BcastP2P, 4, n))
		sm.X = append(sm.X, n)
		sm.Y = append(sm.Y, MPIBcast(cluster.SCRAMNet, BcastNative, 4, n))
	}
	return []Series{fe, sp, sm}
}

// Fig6Row is one barrier measurement of Figure 6.
type Fig6Row struct {
	Config  string
	Nodes   int
	Microus float64
}

// Fig6 regenerates Figure 6: MPI_Barrier latencies.
func Fig6() []Fig6Row {
	var rows []Fig6Row
	for _, cfg := range []struct {
		label string
		net   cluster.Network
		impl  BarrierImpl
	}{
		{"SCRAMNet w/ API multicast", cluster.SCRAMNet, BarrierNative},
		{"SCRAMNet w/ point-to-point", cluster.SCRAMNet, BarrierP2P},
		{"Fast Ethernet", cluster.FastEthernet, BarrierP2P},
		{"ATM", cluster.ATM, BarrierP2P},
	} {
		for _, nodes := range []int{3, 4} {
			us := MPIBarrier(cluster.Options{Nodes: nodes, Net: cfg.net}, cfg.impl, Iters).Us
			rows = append(rows, Fig6Row{cfg.label, nodes, us})
		}
	}
	return rows
}

// Crossover returns the first size (searching fine-grained between lo
// and hi) at which series b becomes cheaper than series a, or -1 if it
// never does. Used to verify the paper's crossover claims.
func Crossover(a, b func(n int) float64, lo, hi, step int) int {
	for n := lo; n <= hi; n += step {
		if b(n) < a(n) {
			return n
		}
	}
	return -1
}

// RenderSeries writes a fixed-width table of the series to w.
func RenderSeries(w io.Writer, title string, ss []Series) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%8s", "bytes")
	for _, s := range ss {
		fmt.Fprintf(w, "  %26s", s.Label)
	}
	fmt.Fprintln(w)
	for i := range ss[0].X {
		fmt.Fprintf(w, "%8d", ss[0].X[i])
		for _, s := range ss {
			fmt.Fprintf(w, "  %23.1fµs", s.Y[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the series as CSV (size, one column per series).
func RenderCSV(w io.Writer, ss []Series) {
	fmt.Fprint(w, "bytes")
	for _, s := range ss {
		fmt.Fprintf(w, ",%s", strings.ReplaceAll(s.Label, ",", ";"))
	}
	fmt.Fprintln(w)
	for i := range ss[0].X {
		fmt.Fprintf(w, "%d", ss[0].X[i])
		for _, s := range ss {
			fmt.Fprintf(w, ",%.2f", s.Y[i])
		}
		fmt.Fprintln(w)
	}
}

// RenderFig6 writes the barrier table to w.
func RenderFig6(w io.Writer, rows []Fig6Row) {
	title := "Figure 6: MPI_Barrier latency"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%-30s  %5s  %12s\n", "configuration", "nodes", "latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s  %5d  %10.1fµs\n", r.Config, r.Nodes, r.Microus)
	}
	fmt.Fprintln(w)
}
