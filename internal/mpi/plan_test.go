package mpi_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/liveness"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// This battery pins the message schedules of the binomial-tree
// collectives: the virtual time at which every rank leaves Bcast and
// Reduce (every root) and Barrier and Allreduce on SCRAMNet at sizes
// 1, 2, 3, 5, 7 and 8, plus one suspect re-plan and one quorum run.
// Every rank enters at the same instant, so a change to a tree's shape,
// its send order or its per-hop cost moves at least one exit time.

var pinnedSizes = []int{1, 2, 3, 5, 7, 8}

// pinnedWorld is cluster.NewMPIWorld's SCRAMNet testbed (PIO-only BBP,
// default MPI configuration) with an n-rank world. The testbed needs
// two nodes, so n = 1 is a world over the first of two.
func pinnedWorld(t *testing.T, n int) (*sim.Kernel, *mpi.World) {
	t.Helper()
	k := sim.NewKernel()
	c, err := cluster.New(k, cluster.Options{Nodes: max(n, 2), Net: cluster.SCRAMNet, PIOOnlyBBP: true})
	if err != nil {
		t.Fatal(err)
	}
	return k, mpi.NewWorld(c.Endpoints[:n], mpi.DefaultConfig())
}

// pinnedPayload is rank-independent bytes for a broadcast from root.
func pinnedPayload(root int) []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(root*37 + i)
	}
	return b
}

// pinnedLanes is rank r's 16-byte SumU32 contribution; lane j of the
// sum over n ranks is n(n+1)/2 * (j+1).
func pinnedLanes(r int) []byte {
	b := make([]byte, 16)
	for j := 0; j < 4; j++ {
		putU32(b[4*j:], uint32(r+1)*uint32(j+1))
	}
	return b
}

func pinnedSumOK(b []byte, n int) bool {
	for j := 0; j < 4; j++ {
		if getU32(b[4*j:]) != uint32(n*(n+1)/2)*uint32(j+1) {
			return false
		}
	}
	return true
}

// runPinned runs body once on every rank of a fresh n-rank world and
// returns each rank's exit time.
func runPinned(t *testing.T, n int, body func(p *sim.Proc, cm *mpi.Comm) error) []sim.Time {
	t.Helper()
	k, w := pinnedWorld(t, n)
	defer k.Close()
	exits := make([]sim.Time, w.Size())
	w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
		if err := body(p, cm); err != nil {
			t.Errorf("rank %d: %v", cm.Rank(), err)
		}
		exits[cm.Rank()] = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return exits
}

// pinnedCheck compares got against the pinned row key.
func pinnedCheck(t *testing.T, key string, got []sim.Time) {
	t.Helper()
	if want, ok := pinnedExits[key]; !ok || !slices.Equal(got, want) {
		t.Errorf("%s: exits %v, want %v", key, got, want)
	}
}

func TestPinnedTreeSchedules(t *testing.T) {
	tree := mpi.WithAlgorithm(mpi.Tree)
	for _, n := range pinnedSizes {
		for root := 0; root < n; root++ {
			root := root
			got := runPinned(t, n, func(p *sim.Proc, cm *mpi.Comm) error {
				buf := make([]byte, 64)
				if cm.Rank() == root {
					copy(buf, pinnedPayload(root))
				}
				if err := cm.Bcast(p, root, buf, tree); err != nil {
					return err
				}
				if !bytes.Equal(buf, pinnedPayload(root)) {
					return fmt.Errorf("bcast from %d delivered the wrong payload", root)
				}
				return nil
			})
			pinnedCheck(t, fmt.Sprintf("bcast n=%d root=%d", n, root), got)

			got = runPinned(t, n, func(p *sim.Proc, cm *mpi.Comm) error {
				out := make([]byte, 16)
				if err := cm.Reduce(p, root, mpi.SumU32, pinnedLanes(cm.Rank()), out); err != nil {
					return err
				}
				if cm.Rank() == root && !pinnedSumOK(out, n) {
					return fmt.Errorf("reduce to %d: wrong sum", root)
				}
				return nil
			})
			pinnedCheck(t, fmt.Sprintf("reduce n=%d root=%d", n, root), got)
		}
		got := runPinned(t, n, func(p *sim.Proc, cm *mpi.Comm) error {
			return cm.Barrier(p, tree)
		})
		pinnedCheck(t, fmt.Sprintf("barrier n=%d", n), got)

		got = runPinned(t, n, func(p *sim.Proc, cm *mpi.Comm) error {
			out := make([]byte, 16)
			if err := cm.Allreduce(p, mpi.SumU32, pinnedLanes(cm.Rank()), out, tree); err != nil {
				return err
			}
			if !pinnedSumOK(out, n) {
				return fmt.Errorf("allreduce: wrong sum")
			}
			return nil
		})
		pinnedCheck(t, fmt.Sprintf("allreduce n=%d", n), got)
	}
}

// TestPinnedReplanSchedules pins the two membership-driven plans: a
// broadcast from root 3 while rank 5 is suspected (the
// collective_liveness_test fixture), and the quorum's Barrier,
// Bcast and Allreduce after the partition_test double cut declares the
// {4,0,1} majority. Ranks outside a run's plan record 0.
func TestPinnedReplanSchedules(t *testing.T) {

	t.Run("suspect", func(t *testing.T) {
		const nodes, victim, root = 8, 5, 3
		live := liveness.DefaultConfig()
		k, _, w := treeCluster(t, nodes, &live, suspectScript(victim), mpi.DefaultConfig())
		defer k.Close()
		exits := make([]sim.Time, nodes)
		w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
			delayUntil(p, sim.Time(0).Add(1720*sim.Microsecond))
			buf := make([]byte, 64)
			if cm.Rank() == root {
				copy(buf, pinnedPayload(root))
			}
			if err := cm.Bcast(p, root, buf); err != nil || !bytes.Equal(buf, pinnedPayload(root)) {
				t.Errorf("rank %d: %v (payload ok=%v)", cm.Rank(), err, bytes.Equal(buf, pinnedPayload(root)))
			}
			exits[cm.Rank()] = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got := w.Engine(root).Stats().CollReplans; got != 1 {
			t.Errorf("root cut %d re-plan epochs, want 1", got)
		}
		pinnedCheck(t, "suspect bcast n=8 root=3 victim=5", exits)
	})

	t.Run("quorum", func(t *testing.T) {
		const nodes, cutAt = 5, 2 * sim.Millisecond
		live := liveness.DefaultConfig()
		mcfg := mpi.DefaultConfig()
		mcfg.WaitTimeout = 100 * sim.Millisecond
		k, _, w := treeCluster(t, nodes, &live, doubleCut(cutAt, 80*sim.Millisecond), mcfg)
		defer k.Close()
		majority := map[int]bool{4: true, 0: true, 1: true}
		var barrier, bcast, allreduce [nodes]sim.Time
		w.RunSPMD(k, func(p *sim.Proc, cm *mpi.Comm) {
			me := cm.Rank()
			if !majority[me] {
				return
			}
			p.Delay(cutAt + 4*sim.Millisecond)
			if err := cm.Barrier(p); err != nil {
				t.Errorf("rank %d barrier: %v", me, err)
				return
			}
			barrier[me] = p.Now()
			buf := make([]byte, 64)
			if me == 4 {
				copy(buf, pinnedPayload(4))
			}
			if err := cm.Bcast(p, 4, buf); err != nil || !bytes.Equal(buf, pinnedPayload(4)) {
				t.Errorf("rank %d bcast: %v", me, err)
				return
			}
			bcast[me] = p.Now()
			out := make([]byte, 16)
			if err := cm.Allreduce(p, mpi.SumU32, pinnedLanes(me), out); err != nil {
				t.Errorf("rank %d allreduce: %v", me, err)
				return
			}
			// Lane j sums (r+1)(j+1) over the quorum ranks {0, 1, 4}.
			for j := 0; j < 4; j++ {
				if got := getU32(out[4*j:]); got != 8*uint32(j+1) {
					t.Errorf("rank %d lane %d: quorum sum %d", me, j, got)
				}
			}
			allreduce[me] = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		pinnedCheck(t, "quorum barrier n=5", barrier[:])
		pinnedCheck(t, "quorum bcast n=5 root=4", bcast[:])
		pinnedCheck(t, "quorum allreduce n=5", allreduce[:])

		// The quorum's root (rank 0) folds two 16-byte contributions, from
		// ranks 1 and 4, and pays CopyPerByte on each like Reduce does: it
		// leaves exactly that charge later than an uncharged fold did.
		// Ranks 1 and 4 see the later release through their receive
		// polls, so their shift is rounded by the poll period.
		charge := sim.Duration(2*16) * mpi.DefaultCosts().CopyPerByte
		if got := allreduce[0].Sub(quorumAllreduceUncharged[0]); got != charge {
			t.Errorf("quorum root left the allreduce %v after the uncharged fold, want %v", got, charge)
		}
	})
}

// pinnedExits holds every rank's exit time, in virtual nanoseconds, per
// collective run.
var pinnedExits = map[string][]sim.Time{
	"allreduce n=1": {0},
	"allreduce n=2": {81040, 97300},
	"allreduce n=3": {150320, 168550, 137050},
	"allreduce n=5": {245610, 264550, 265340, 282550, 204550},
	"allreduce n=7": {276120, 300550, 299840, 318550, 298620, 318550, 287050},
	"allreduce n=8": {300120, 323800, 322340, 344800, 326130, 350050, 348590, 371050},
	"barrier n=1":   {0},
	"barrier n=2":   {70600, 82600},
	"barrier n=3":   {129200, 141850, 113350},
	"barrier n=5":   {208050, 224350, 223700, 239350, 167350},
	"barrier n=7":   {232050, 249850, 252200, 267850, 254550, 272350, 240850},
	"barrier n=8":   {253050, 271600, 270200, 287350, 274050, 292600, 291200, 303100},

	"bcast n=1 root=0": {0},
	"bcast n=2 root=0": {34000, 60150},
	"bcast n=2 root=1": {60150, 34000},
	"bcast n=3 root=0": {68000, 94650, 61650},
	"bcast n=3 root=1": {61650, 68000, 93900},
	"bcast n=3 root=2": {93900, 60900, 68000},
	"bcast n=5 root=0": {102000, 130650, 131650, 159150, 64650},
	"bcast n=5 root=1": {64650, 102000, 129900, 130900, 157650},
	"bcast n=5 root=2": {156900, 63900, 102000, 129150, 130150},
	"bcast n=5 root=3": {130150, 159150, 63150, 102000, 128400},
	"bcast n=5 root=4": {128400, 129400, 156900, 62400, 102000},
	"bcast n=7 root=0": {102000, 137400, 133150, 167400, 134150, 168900, 129150},
	"bcast n=7 root=1": {127650, 102000, 136650, 132400, 165900, 133400, 167400},
	"bcast n=7 root=2": {166650, 126150, 102000, 136650, 131650, 163650, 132650},
	"bcast n=7 root=3": {132650, 171150, 129900, 102000, 135900, 130900, 162900},
	"bcast n=7 root=4": {162150, 131900, 169650, 128400, 102000, 135150, 130150},
	"bcast n=7 root=5": {130150, 166650, 131150, 166650, 126150, 102000, 134400},
	"bcast n=7 root=6": {133650, 129400, 165150, 130400, 165150, 124650, 102000},
	"bcast n=8 root=0": {102000, 136650, 133900, 168900, 134900, 170400, 165400, 198150},
	"bcast n=8 root=1": {195900, 102000, 136650, 133900, 168150, 134150, 168150, 163150},
	"bcast n=8 root=2": {161650, 199650, 102000, 136650, 132400, 165900, 133400, 167400},
	"bcast n=8 root=3": {166650, 160150, 197400, 102000, 135900, 131650, 164400, 132650},
	"bcast n=8 root=4": {132650, 171900, 164650, 200400, 102000, 135150, 130900, 162900},
	"bcast n=8 root=5": {162150, 131900, 170400, 163150, 198900, 102000, 134400, 130150},
	"bcast n=8 root=6": {130150, 167400, 131150, 168150, 161650, 195900, 102000, 134400},
	"bcast n=8 root=7": {134400, 129400, 165150, 131150, 168150, 160900, 195150, 102000},

	"reduce n=1 root=0": {0},
	"reduce n=2 root=0": {48840, 32200},
	"reduce n=2 root=1": {32200, 48840},
	"reduce n=3 root=0": {85920, 32200, 32200},
	"reduce n=3 root=1": {32200, 85170, 32200},
	"reduce n=3 root=2": {32200, 32200, 85920},
	"reduce n=5 root=0": {149010, 32200, 105790, 32200, 32200},
	"reduce n=5 root=1": {32200, 146010, 32200, 105790, 32200},
	"reduce n=5 root=2": {32200, 32200, 146010, 32200, 105790},
	"reduce n=5 root=3": {105790, 32200, 32200, 149010, 32200},
	"reduce n=5 root=4": {32200, 105790, 32200, 32200, 149010},
	"reduce n=7 root=0": {179520, 32200, 116290, 32200, 145870, 32200, 32200},
	"reduce n=7 root=1": {32200, 179520, 32200, 116290, 32200, 141370, 32200},
	"reduce n=7 root=2": {32200, 32200, 179520, 32200, 116290, 32200, 145870},
	"reduce n=7 root=3": {145870, 32200, 32200, 179520, 32200, 116290, 32200},
	"reduce n=7 root=4": {32200, 145870, 32200, 32200, 179520, 32200, 120790},
	"reduce n=7 root=5": {120790, 32200, 145870, 32200, 32200, 184020, 32200},
	"reduce n=7 root=6": {32200, 120790, 32200, 145870, 32200, 32200, 184020},
	"reduce n=8 root=0": {203520, 32200, 119290, 32200, 180130, 32200, 114040, 32200},
	"reduce n=8 root=1": {32200, 203520, 32200, 119290, 32200, 180130, 32200, 119290},
	"reduce n=8 root=2": {119290, 32200, 208770, 32200, 119290, 32200, 185380, 32200},
	"reduce n=8 root=3": {32200, 119290, 32200, 208770, 32200, 119290, 32200, 185380},
	"reduce n=8 root=4": {180130, 32200, 119290, 32200, 203520, 32200, 114040, 32200},
	"reduce n=8 root=5": {32200, 185380, 32200, 119290, 32200, 208770, 32200, 119290},
	"reduce n=8 root=6": {119290, 32200, 185380, 32200, 119290, 32200, 208770, 32200},
	"reduce n=8 root=7": {32200, 119290, 32200, 185380, 32200, 119290, 32200, 208770},

	"suspect bcast n=8 root=3 victim=5": {2147760, 2169910, 2339700, 1959800, 2053300, 2105850, 2161900, 2156850},
	"quorum barrier n=5":                {6236960, 6305980, 0, 0, 6276700},
	"quorum bcast n=5 root=4":           {6471340, 6451660, 0, 0, 6346200},
	"quorum allreduce n=5":              {6758710, 6879700, 0, 0, 6849250},
}

// quorumAllreduceUncharged is the quorum allreduce row when the quorum
// fold was not charged CopyPerByte.
var quorumAllreduceUncharged = []sim.Time{6758230, 6879700, 0, 0, 6848230}
