package xport

// Fabric is a frame-level network: NICs, links, and a switch or ring.
// The TCP-lite stack (internal/tcpip) and the native Myrinet API run
// over any Fabric. The switched fabrics of this repository are all
// Switch, calibrated by the Fast Ethernet, ATM and Myrinet profiles
// (each package's DefaultConfig); fault.Fabric wraps any of them.
//
// Transmit is event-driven and charges no caller CPU time: host-side
// costs (driver, DMA, interrupts) belong to the protocol stack above.
// Frames between one (src, dst) pair are delivered reliably and in
// order; that is a property of every switched fabric modeled here.
type Fabric interface {
	// Nodes is the number of attached hosts.
	Nodes() int
	// MTU is the largest frame payload the fabric accepts.
	MTU() int
	// Transmit queues frame from src's NIC to dst's. It copies the
	// frame: the caller may reuse the slice once Transmit returns.
	Transmit(src, dst int, frame []byte)
	// SetHandler installs dst-side delivery: fn runs (in event context,
	// zero CPU charged) when a frame has fully arrived at node's NIC.
	// The slice fn receives is valid only until fn returns; a handler
	// that keeps a frame must copy it.
	SetHandler(node int, fn func(src int, frame []byte))
}
