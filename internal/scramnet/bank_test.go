package scramnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/spin"
)

// TestNewRingAllocs pins what building the largest ring costs the host:
// banks and owner words are paged on first write, so New allocates a
// small fraction of the 256 replicated banks it models.
func TestNewRingAllocs(t *testing.T) {
	cfg := DefaultConfig(MaxNodes)
	k := sim.NewKernel()
	defer k.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err := New(k, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(MaxNodes) * uint64(cfg.MemBytes) / 100
	t.Logf("New(%d nodes, %d-byte banks) allocated %d bytes (limit %d)", MaxNodes, cfg.MemBytes, got, limit)
	if got >= limit {
		t.Fatalf("New allocated %d bytes, want under 1%% of the %d-byte banks (%d)", got, MaxNodes*cfg.MemBytes, limit)
	}
	if n.Nodes() != MaxNodes {
		t.Fatalf("ring has %d nodes", n.Nodes())
	}
}

// TestReducerTransitAllocs pins the in-network handler path at zero
// allocations: once warmed up, a streaming-reduction round whose header,
// vector lane and counter transit two Reducer nodes allocates nothing.
// Each card keeps one spin.HandlerCtx with its Word hook bound once.
func TestReducerTransitAllocs(t *testing.T) {
	const hdr, vec, ctr, contrib = 256, 260, 264, 512
	k := sim.NewKernel()
	defer k.Close()
	n, err := New(k, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2} {
		n.NIC(i).mem.write(contrib, []byte{byte(i), 0, 0, 0})
		n.NIC(i).InstallHandler(hdr, ctr+4-hdr, &spin.Reducer{HdrOff: hdr, VecOff: vec, CtrOff: ctr, MaxBytes: 4, ContribOff: contrib})
	}
	var round uint32
	resume := k.Spawn("initiator", func(p *sim.Proc) {
		nic := n.NIC(0)
		for {
			p.Park()
			round++
			nic.WriteWord(p, hdr, spin.HdrWord(spin.OpSumU32, 4))
			nic.WriteWord(p, vec, 10)
			nic.WriteWord(p, ctr, spin.CounterWord(round, 0))
		}
	}).Resume
	revolve := func() {
		k.At(k.Now(), resume)
		k.RunFor(50 * sim.Microsecond)
	}
	revolve()
	if allocs := testing.AllocsPerRun(50, revolve); allocs != 0 {
		t.Fatalf("a Reducer round allocates %.1f times, want 0", allocs)
	}
	if got := n.NIC(0).SampleWord(vec); got != 13 {
		t.Fatalf("initiator's vector lane = %d after the strip, want 10+1+2", got)
	}
	if _, count := spin.DecodeCounter(n.NIC(0).SampleWord(ctr)); count != 2 {
		t.Fatalf("counter = %d, want both transit nodes", count)
	}
	if runs := n.NIC(1).HandlerStats().HandlersRun; runs == 0 {
		t.Fatal("no handler ran")
	}
}

// fuzzBankBytes is FuzzBank's bank size: three whole pages and a
// partial fourth, so spans cross page boundaries and reach a tail page.
const fuzzBankBytes = 3*pageBytes + 12

// FuzzBank drives the paged bank through every access path against a
// flat []byte reference. Each input decodes to a sequence of
//
//	op, off (2 bytes), len, fill
//
// records: remote applies and strip-applies, PIO, DMA and word writes
// from node 0 of a two-node ring, and PIO, DMA, word, multi-word and
// Peek reads, plus claims and transfers on a paged owner table checked
// against a map. Offsets and lengths are reduced into the bank, so
// spans cross pages and reads hit pages nothing has written. Once the
// ring is quiescent, both banks must equal their references byte for
// byte (node 1 sees node 0's writes only), and node 1 must hold a page
// exactly where a write landed.
func FuzzBank(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		k := sim.NewKernel()
		defer k.Close()
		cfg := DefaultConfig(2)
		cfg.Mode = VariablePackets
		cfg.MemBytes = fuzzBankBytes
		n, err := New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nic, peer := n.NIC(0), n.NIC(1)
		ref0 := make([]byte, fuzzBankBytes) // node 0's bank
		ref1 := make([]byte, fuzzBankBytes) // node 1's: node 0's writes only
		touched := make([]bool, len(peer.mem.pages))
		owners := newOwnerTable(true, fuzzBankBytes)
		refOwners := map[int]int{}
		var bad string
		fail := func(format string, args ...any) {
			if bad == "" {
				bad = fmt.Sprintf(format, args...)
			}
		}
		k.Spawn("ops", func(p *sim.Proc) {
			for ; len(in) >= 5 && bad == ""; in = in[5:] {
				op := in[0] % 13
				ln := 1 + int(in[3])%(2*pageBytes/8)
				if op == 2 || op == 9 { // word write, word read
					ln = 4
				}
				if op == 10 { // multi-word read
					ln = 4 * (1 + int(in[3])%8)
				}
				off := int(binary.LittleEndian.Uint16(in[1:])) % (fuzzBankBytes - ln + 1)
				data := make([]byte, ln)
				for i := range data {
					data[i] = in[4] + byte(7*i)
				}
				var got []byte
				switch op {
				case 0, 1: // remote apply, strip-apply
					pkt := n.newPacket(1, off, data, false, 0, 0)
					if op == 0 {
						nic.apply(pkt)
					} else {
						nic.stripApply(pkt)
					}
					n.release(pkt)
					copy(ref0[off:], data)
					continue
				case 2:
					nic.WriteWord(p, off, binary.LittleEndian.Uint32(data))
				case 3:
					nic.Write(p, off, data)
				case 4:
					nic.WriteDMA(p, off, data)
				case 5, 6: // owner claim, owner transfer
					ownerOp(owners, refOwners, op == 6, int(in[4]%6)-2, off, ln, fail)
					continue
				case 7: // into a dirty buffer: untouched pages must read as zeros
					got = bytes.Repeat([]byte{0xa5}, ln)
					nic.Read(p, off, got)
				case 8:
					got = bytes.Repeat([]byte{0x5a}, ln)
					nic.ReadDMA(p, off, got)
				case 9:
					got = binary.LittleEndian.AppendUint32(nil, nic.ReadWord(p, off))
				case 10:
					w := make([]uint32, ln/4)
					nic.SampleWords(off, w)
					for _, v := range w {
						got = binary.LittleEndian.AppendUint32(got, v)
					}
				default:
					got = nic.Peek(off, ln)
				}
				if got != nil {
					if want := ref0[off : off+ln]; !bytes.Equal(got, want) {
						fail("op %d read [%d,%d) = %x, want %x", op, off, off+ln, got, want)
					}
					continue
				}
				copy(ref0[off:], data)
				copy(ref1[off:], data)
				for pi := off >> pageShift; pi <= (off+ln-1)>>pageShift; pi++ {
					touched[pi] = true
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if bad != "" {
			t.Fatal(bad)
		}
		if got := nic.Peek(0, fuzzBankBytes); !bytes.Equal(got, ref0) {
			t.Fatalf("node 0's bank differs from its reference:\n got %x\nwant %x", got, ref0)
		}
		if got := peer.Peek(0, fuzzBankBytes); !bytes.Equal(got, ref1) {
			t.Fatalf("node 1's bank differs from node 0's writes:\n got %x\nwant %x", got, ref1)
		}
		for pi, p := range peer.mem.pages {
			if (p != nil) != touched[pi] {
				t.Fatalf("node 1 page %d allocated %v, written %v", pi, p != nil, touched[pi])
			}
		}
	})
}

// ownerOp claims (check) or transfers (assign) the words of [off,
// off+n) for writer on the paged table t and on the map reference ref,
// and reports through fail any difference in the verdict or the owners.
func ownerOp(t *ownerTable, ref map[int]int, transfer bool, writer, off, n int, fail func(string, ...any)) {
	first, last := off/4, (off+n-1)/4
	wantPanic := false
	for w := first; w <= last; w++ {
		if transfer {
			ref[w] = writer
		} else if prev, ok := ref[w]; !ok {
			ref[w] = writer
		} else if prev != writer {
			wantPanic = true
			break
		}
	}
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		if transfer {
			t.assign(writer, off, n)
		} else {
			t.check(writer, off, n)
		}
		return false
	}()
	if panicked != wantPanic {
		fail("owner claim of [%d,%d) by %d panicked %v, want %v", off, off+n, writer, panicked, wantPanic)
	}
	for w := first; w <= last; w++ {
		prev, owned := 0, false
		if p := t.pages[w/pageWords]; p != nil && p[w%pageWords] != 0 {
			prev, owned = int(int32(p[w%pageWords]^ownerFlip)), true
		}
		if want, ok := ref[w]; owned != ok || prev != want {
			fail("owner of word %d = %d (owned %v), want %d (owned %v)", w, prev, owned, want, ok)
		}
	}
}
