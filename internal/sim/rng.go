package sim

// RNG is a small deterministic pseudo-random generator (splitmix64) used
// by workload generators. It is independent of math/rand so that
// simulation results cannot drift with Go releases.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform duration in [0, d).
func (r *RNG) Duration(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(r.Uint64() % uint64(d))
}

// Bytes fills b with random bytes.
func (r *RNG) Bytes(b []byte) {
	for i := range b {
		if i%8 == 0 {
			v := r.Uint64()
			for j := 0; j < 8 && i+j < len(b); j++ {
				b[i+j] = byte(v >> (8 * j))
			}
		}
	}
}
