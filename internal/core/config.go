// Package core implements the HyVE architecture simulator: the hybrid
// vertex-edge memory hierarchy (paper §3), the super-block scheduler with
// inter-PU data sharing (§4.2–4.3, Algorithm 2), and bank-level power
// gating of the non-volatile edge memory (§4.1). The same simulator,
// configured with different memory bindings, also produces the paper's
// accelerator baselines (acc+DRAM, acc+ReRAM, acc+SRAM+DRAM of Fig. 16).
//
// The simulator is block-grained and access-exact (DESIGN.md §4.1): it
// walks the exact super-block schedule over the exact partitioned graph,
// charges every device access at its calibrated operating point, and
// bounds per-edge time by the pipeline maximum of Eq. (1).
package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/device/dram"
	"repro/internal/device/rram"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/units"
)

// SimSchema identifies the semantic version of the simulator for
// content-addressed result caching (internal/cache): two runs of the
// same point under the same SimSchema produce byte-identical results.
// Bump it on ANY change that can alter simulation output — cost model
// constants, scheduling, accounting, device pricing — so cached results
// from an older simulator can never be mistaken for current ones.
const SimSchema = "hyve/sim/v1"

// MemKind selects the technology backing a memory role.
type MemKind int

// Memory technologies.
const (
	MemDRAM MemKind = iota
	MemReRAM
)

func (k MemKind) String() string {
	switch k {
	case MemDRAM:
		return "DRAM"
	case MemReRAM:
		return "ReRAM"
	default:
		return fmt.Sprintf("MemKind(%d)", int(k))
	}
}

// Config describes one accelerator memory-hierarchy configuration.
type Config struct {
	// Name labels the configuration in reports ("acc+HyVE", …).
	Name string
	// NumPUs is N, the processing-unit count (paper: 8).
	NumPUs int
	// SRAMBytes is the per-PU on-chip vertex memory capacity (source
	// section + destination section together), when UseOnChipSRAM.
	SRAMBytes int64
	// UseOnChipSRAM enables the on-chip vertex memory; without it,
	// per-edge vertex accesses go straight to the off-chip vertex
	// memory (the acc+DRAM / acc+ReRAM baselines).
	UseOnChipSRAM bool
	// EdgeMemory and VertexMemory pick technologies for the two off-chip
	// roles. HyVE: ReRAM edges + DRAM vertices.
	EdgeMemory   MemKind
	VertexMemory MemKind
	// DataSharing enables the §4.2 router scheme (sources handed between
	// PUs instead of reloaded from off-chip).
	DataSharing bool
	// PowerGating enables §4.1 bank-level power gating of a non-volatile
	// edge memory. It has no effect on a DRAM edge memory (gating DRAM
	// loses data).
	PowerGating bool

	// RRAM, DRAM, and Gate are the device design points.
	RRAM rram.Config
	DRAM dram.Config
	Gate mem.PowerGateParams

	// CustomEdgeDevice, when non-nil, overrides the edge-memory device
	// entirely (used by the NVM-alternatives ablation to try PCM or
	// STT-MRAM in the edge role). EdgeMemory still selects whether the
	// role is treated as non-volatile for power gating.
	CustomEdgeDevice device.Memory

	// Fault configures the edge-memory fault-injection and resilience
	// layer: seeded read-disturb/stuck-at/bank-failure injection, SECDED
	// ECC priced into every edge access, spare-bank remapping. The zero
	// value disables the layer entirely; a disabled-fault simulation is
	// bit-identical to one predating the layer (golden-tested).
	Fault fault.Config

	// Parallelism bounds the host CPU workers a single run may use for
	// its own internal work: the parallel grid build and the
	// block-parallel functional execution. It is a host-resource knob,
	// not a model parameter — results are bit-identical at every value.
	// 0 (the default) means GOMAXPROCS; 1 reproduces the fully
	// sequential behavior.
	Parallelism int

	// SyncOverhead is the per-step PU barrier cost (Algorithm 2 line 12).
	SyncOverhead units.Time
	// RerouteCycles is the router reconfiguration cost in on-chip SRAM
	// cycles (§4.2: "the access latency of the remote interval is
	// approximately 5 to 10 SRAM operating clock cycles").
	RerouteCycles int
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.NumPUs <= 0 {
		return fmt.Errorf("core: non-positive PU count %d", c.NumPUs)
	}
	if c.UseOnChipSRAM && c.SRAMBytes <= 0 {
		return fmt.Errorf("core: on-chip SRAM enabled with capacity %d", c.SRAMBytes)
	}
	if c.DataSharing && !c.UseOnChipSRAM {
		return fmt.Errorf("core: data sharing requires on-chip vertex memory")
	}
	if c.PowerGating && c.EdgeMemory != MemReRAM {
		return fmt.Errorf("core: power gating requires a non-volatile edge memory")
	}
	if c.SyncOverhead < 0 || c.RerouteCycles < 0 {
		return fmt.Errorf("core: negative scheduling overheads")
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: negative parallelism %d", c.Parallelism)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

func baseConfig(name string) Config {
	return Config{
		Name:          name,
		NumPUs:        8,
		SRAMBytes:     2 << 20,
		UseOnChipSRAM: true,
		EdgeMemory:    MemReRAM,
		VertexMemory:  MemDRAM,
		RRAM:          rram.DefaultConfig(),
		DRAM:          dram.DefaultConfig(),
		Gate:          mem.DefaultPowerGateParams(),
		SyncOverhead:  5 * units.Nanosecond,
		RerouteCycles: 10,
	}
}

// HyVE returns the base acc+HyVE configuration (§3): ReRAM edge memory,
// DRAM off-chip vertex memory, SRAM on-chip vertex memory — without the
// §4 optimizations.
func HyVE() Config { return baseConfig("acc+HyVE") }

// HyVEOpt returns acc+HyVE-opt: HyVE plus data sharing and bank-level
// power gating.
func HyVEOpt() Config {
	c := baseConfig("acc+HyVE-opt")
	c.DataSharing = true
	c.PowerGating = true
	return c
}

// SRAMDRAM returns the acc+SRAM+DRAM ("SD") conventional hierarchy:
// like HyVE but with a DRAM edge memory.
func SRAMDRAM() Config {
	c := baseConfig("acc+SRAM+DRAM")
	c.EdgeMemory = MemDRAM
	return c
}

// AccDRAM returns the acc+DRAM true baseline: DRAM everywhere, no
// on-chip vertex memory.
func AccDRAM() Config {
	c := baseConfig("acc+DRAM")
	c.EdgeMemory = MemDRAM
	c.UseOnChipSRAM = false
	c.SRAMBytes = 0
	return c
}

// AccReRAM returns acc+ReRAM: naive technology substitution, ReRAM for
// both edge and vertex roles, no on-chip vertex memory.
func AccReRAM() Config {
	c := baseConfig("acc+ReRAM")
	c.EdgeMemory = MemReRAM
	c.VertexMemory = MemReRAM
	c.UseOnChipSRAM = false
	c.SRAMBytes = 0
	return c
}

// Fig16Configs returns the accelerator configurations of Fig. 16, in
// presentation order.
func Fig16Configs() []Config {
	return []Config{AccDRAM(), AccReRAM(), SRAMDRAM(), HyVE(), HyVEOpt()}
}
