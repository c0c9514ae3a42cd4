package xport

// FrameObjects reports how many frame objects s ever allocated and how
// many are back on its free list. It panics if a free frame is listed
// twice or still names its switch.
func (s *Switch) FrameObjects() (made, free int) {
	seen := map[*frame]bool{}
	for _, f := range s.free {
		if seen[f] {
			panic("xport: a frame is on the free list twice")
		}
		if f.s != nil {
			panic("xport: a free frame still names its switch")
		}
		seen[f] = true
	}
	return s.made, len(s.free)
}
