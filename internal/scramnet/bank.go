package scramnet

import (
	"encoding/binary"
	"fmt"
)

// A replicated bank is a table of fixed-size pages, each allocated on
// the first write that lands in it; a page never written reads as
// zeros, which is what a freshly powered card's memory holds. BBP
// touches a few KiB of the 2 MiB bank, so a NIC costs its page table
// plus the pages its ring has written, not the whole bank: the
// 256-node ring of E14 would otherwise zero 512 MiB per run.
//
// pageBytes is a power of two and a word multiple, so an aligned word
// never straddles two pages. It was chosen by measurement (1 KiB):
// larger pages raise the allocation of every freshly built testbed's
// first touches, and smaller ones grow the page table every NIC carries
// from construction on.
const (
	pageShift = 10
	pageBytes = 1 << pageShift
	pageMask  = pageBytes - 1
	pageWords = pageBytes / 4
)

type page [pageBytes]byte

// bank is one NIC's replica of the shared memory.
type bank struct {
	size  int
	pages []*page
}

func newBank(size int) bank {
	return bank{size: size, pages: make([]*page, (size+pageMask)>>pageShift)}
}

// page returns page pi, allocating it on first use.
func (b *bank) page(pi int) *page {
	p := b.pages[pi]
	if p == nil {
		p = new(page)
		b.pages[pi] = p
	}
	return p
}

// write copies data into the bank at off.
func (b *bank) write(off int, data []byte) {
	for len(data) > 0 {
		n := copy(b.page(off >> pageShift)[off&pageMask:], data)
		off += n
		data = data[n:]
	}
}

// read copies the bank bytes at off into dst.
func (b *bank) read(off int, dst []byte) {
	for len(dst) > 0 {
		po := off & pageMask
		n := min(len(dst), pageBytes-po)
		if p := b.pages[off>>pageShift]; p != nil {
			copy(dst[:n], p[po:])
		} else {
			clear(dst[:n])
		}
		off += n
		dst = dst[n:]
	}
}

// word returns the little-endian word at off.
func (b *bank) word(off int) uint32 {
	if po := off & pageMask; po <= pageBytes-4 {
		if p := b.pages[off>>pageShift]; p != nil {
			return binary.LittleEndian.Uint32(p[po:])
		}
		return 0
	}
	var w [4]byte
	b.read(off, w[:])
	return binary.LittleEndian.Uint32(w[:])
}

// ownerTable tracks, per word offset, which host first wrote it
// (SingleWriterCheck). Owners are paged on the banks' grid and a page
// is allocated on the first claim in it. A hierarchy shares one table
// across its rings so the discipline is enforced globally.
type ownerTable struct {
	enabled bool
	pages   []*ownerPage
}

// ownerPage holds one bank page's word owners. A slot stores its
// owner's id with the sign bit flipped, so that the zero value (the id
// math.MinInt32, which no host or bridge slot has) means unowned.
type ownerPage [pageWords]uint32

const ownerFlip = 1 << 31

func newOwnerTable(enabled bool, memBytes int) *ownerTable {
	return &ownerTable{enabled: enabled, pages: make([]*ownerPage, (memBytes+pageMask)>>pageShift)}
}

// slot returns the owner slot of word w, allocating its page on first
// use.
func (t *ownerTable) slot(w int) *uint32 {
	pi := w / pageWords
	p := t.pages[pi]
	if p == nil {
		p = new(ownerPage)
		t.pages[pi] = p
	}
	return &p[w%pageWords]
}

// assign transfers ownership of the words covering [off, off+size) to
// writer, overwriting any previous owner. The BillBoard layer uses it
// when a process lends part of its data partition to a peer (a posted
// rendezvous window): the discipline stays one-writer-per-word at any
// instant, but the writer changes hands at well-defined protocol points.
func (t *ownerTable) assign(writer, off, size int) {
	if !t.enabled {
		return
	}
	for w := off / 4; w <= (off+size-1)/4; w++ {
		*t.slot(w) = uint32(int32(writer)) ^ ownerFlip
	}
}

func (t *ownerTable) check(writer, off, size int) {
	if !t.enabled {
		return
	}
	for w := off / 4; w <= (off+size-1)/4; w++ {
		s := t.slot(w)
		if *s == 0 {
			*s = uint32(int32(writer)) ^ ownerFlip
		} else if prev := int(int32(*s ^ ownerFlip)); prev != writer {
			panic(fmt.Sprintf("scramnet: single-writer violation: word %#x written by node %d then node %d", w*4, prev, writer))
		}
	}
}
