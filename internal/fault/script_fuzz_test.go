package fault_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/liveness"
	"repro/internal/sim"
)

// scriptRecord is the size of one encoded action (decodeScript).
const scriptRecord = 9

// decodeScript turns arbitrary bytes into a fault.Script: an 8-byte
// seed, then one action per 9 bytes (at most 32). Each field's range
// reaches just past what a 4-node cluster accepts, so that decoded
// scripts are both valid and invalid: the kind takes the six kinds and
// one value on each side, the node -5..5, and the time ±1.6 ms. The
// loss rate is a fraction in [0, 1.1], or, when the record's last byte
// is odd, any float32 (NaN and the infinities included).
func decodeScript(data []byte) *fault.Script {
	s := &fault.Script{}
	if len(data) >= 8 {
		s.Seed = binary.LittleEndian.Uint64(data)
		data = data[8:]
	}
	for len(data) >= scriptRecord && len(s.Actions) < 32 {
		r := data[:scriptRecord]
		data = data[scriptRecord:]
		bits := binary.LittleEndian.Uint32(r[4:])
		rate := float64(bits%1101) / 1000
		if r[8]&1 != 0 {
			rate = float64(math.Float32frombits(bits))
		}
		s.Actions = append(s.Actions, fault.Action{
			At:   sim.Time(0).Add(sim.Duration(int16(binary.LittleEndian.Uint16(r[2:]))) * 50 * sim.Nanosecond),
			Kind: fault.Kind(int(r[0]%8) - 1),
			Node: int(int8(r[1])) % 6,
			Rate: rate,
		})
	}
	return s
}

// FuzzScriptValidate decodes its input into a fault.Script. Validate
// must not panic on it, and a script that Validate and cluster.New
// accept must run to a 3 ms horizon on a 4-node SCRAMNet cluster, with
// the retry extension, the failure detector and live traffic, without
// panicking. Its seed corpus is under testdata/fuzz/FuzzScriptValidate.
func FuzzScriptValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeScript(data)
		if s.Validate() != nil {
			return
		}
		k := sim.NewKernel()
		defer k.Close()
		bbp := core.DefaultConfig()
		bbp.Retry = core.DefaultRetryConfig()
		bbp.RecvTimeout = sim.Millisecond
		live := liveness.DefaultConfig()
		c, err := cluster.New(k, cluster.Options{Nodes: 4, Net: cluster.SCRAMNet, BBP: &bbp, Liveness: &live, Faults: s})
		if err != nil {
			return // a node or segment outside the cluster
		}
		for i, ep := range c.Endpoints {
			k.Spawn(fmt.Sprintf("node%d", i), func(p *sim.Proc) {
				buf := make([]byte, 256)
				for j := 0; j < 3; j++ {
					p.Delay(sim.Duration(100*(i+1)) * sim.Microsecond)
					ep.Send(p, (i+1)%4, buf[:64*j])
					if i == 0 {
						ep.Mcast(p, []int{1, 2, 3}, buf[:16])
					}
					ep.Recv(p, (i+3)%4, buf)
				}
			})
		}
		k.RunUntil(sim.Time(0).Add(3 * sim.Millisecond))
	})
}
