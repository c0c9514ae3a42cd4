package xport_test

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/ethernet"
	"repro/internal/fault"
	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/xport"
	"repro/internal/xport/xporttest"
)

// Every fabric in the testbed runs the shared contract battery — the
// frame-level guarantees (addressing, integrity, per-pair FIFO,
// isolation, physical latency) that the TCP-lite stacks and the native
// Myrinet API are written against.

func TestFastEthernetFabricContract(t *testing.T) {
	xporttest.FabricContract(t, func(k *sim.Kernel, nodes int) xport.Fabric {
		n, err := xport.NewSwitch(k, ethernet.DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
}

func TestATMFabricContract(t *testing.T) {
	xporttest.FabricContract(t, func(k *sim.Kernel, nodes int) xport.Fabric {
		n, err := xport.NewSwitch(k, atm.DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
}

func TestMyrinetFabricContract(t *testing.T) {
	xporttest.FabricContract(t, func(k *sim.Kernel, nodes int) xport.Fabric {
		n, err := xport.NewSwitch(k, myrinet.DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		return n
	})
}

// The fault-injection wrapper must itself honor the fabric contract
// when no faults are active: transparent pass-through.
func TestFaultWrapperFabricContract(t *testing.T) {
	xporttest.FabricContract(t, func(k *sim.Kernel, nodes int) xport.Fabric {
		n, err := xport.NewSwitch(k, ethernet.DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		return fault.NewFabric(k, n, 1)
	})
}
