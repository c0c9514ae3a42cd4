package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// ProcNull is the null neighbor rank returned by Cart.Shift at a
// non-periodic boundary (MPI_PROC_NULL).
const ProcNull = -2

// Cart is a Cartesian process topology over a communicator, with
// row-major rank ordering as in MPICH.
type Cart struct {
	comm     *Comm
	dims     []int
	periodic []bool
}

// CartCreate builds a Cartesian topology. The product of dims must
// equal the communicator size.
func CartCreate(c *Comm, dims []int, periodic []bool) (*Cart, error) {
	if len(dims) == 0 || len(dims) != len(periodic) {
		return nil, fmt.Errorf("mpi: cart dims/periodic length mismatch (%d vs %d)", len(dims), len(periodic))
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("mpi: cart dimension %d", d)
		}
		n *= d
	}
	if n != c.Size() {
		return nil, fmt.Errorf("mpi: cart grid %d does not match communicator size %d", n, c.Size())
	}
	return &Cart{
		comm:     c,
		dims:     append([]int(nil), dims...),
		periodic: append([]bool(nil), periodic...),
	}, nil
}

// Comm returns the underlying communicator.
func (ct *Cart) Comm() *Comm { return ct.comm }

// Coords returns the grid coordinates of a communicator rank.
func (ct *Cart) Coords(rank int) []int {
	coords := make([]int, len(ct.dims))
	for i := len(ct.dims) - 1; i >= 0; i-- {
		coords[i] = rank % ct.dims[i]
		rank /= ct.dims[i]
	}
	return coords
}

// Rank returns the communicator rank at the given coordinates, reducing
// periodic dimensions modulo their extent. ok is false when a
// non-periodic coordinate falls outside the grid.
func (ct *Cart) Rank(coords []int) (rank int, ok bool) {
	if len(coords) != len(ct.dims) {
		return 0, false
	}
	rank = 0
	for i, c := range coords {
		d := ct.dims[i]
		if ct.periodic[i] {
			c = ((c % d) + d) % d
		} else if c < 0 || c >= d {
			return 0, false
		}
		rank = rank*d + c
	}
	return rank, true
}

// Shift returns the source and destination ranks for a displacement
// along one dimension (MPI_Cart_shift): data flows src → me → dst.
// Either may be ProcNull at a non-periodic edge.
func (ct *Cart) Shift(dim, disp int) (src, dst int) {
	me := ct.Coords(ct.comm.Rank())
	up := append([]int(nil), me...)
	up[dim] += disp
	down := append([]int(nil), me...)
	down[dim] -= disp
	dst = ProcNull
	if r, ok := ct.Rank(up); ok {
		dst = r
	}
	src = ProcNull
	if r, ok := ct.Rank(down); ok {
		src = r
	}
	return src, dst
}

// SendrecvShift exchanges halo buffers along a Cartesian shift: Shift
// names the partners and Sendrecv skips a ProcNull one. received
// reports whether recvBuf was filled.
func (ct *Cart) SendrecvShift(p *sim.Proc, dim, disp, tag int, sendBuf, recvBuf []byte) (received bool, err error) {
	src, dst := ct.Shift(dim, disp)
	if _, err = ct.comm.Sendrecv(p, dst, tag, sendBuf, src, tag, recvBuf); err != nil {
		return false, err
	}
	return src != ProcNull, nil
}
