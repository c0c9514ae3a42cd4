package mpi

// FreeRequests returns the engine's request free list, for the
// recycling tests in package mpi_test.
func (e *Engine) FreeRequests() []*Request { return e.free }
