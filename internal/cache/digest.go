// Package cache gives every simulation point a canonical identity and
// makes result reuse flow through it: a versioned content digest over
// (Config, Workload, code-schema version), a sharded in-memory LRU plus
// an on-disk content-addressed store of results, and one Scheduler
// through which experiments, the service and cluster jobs submit points
// — so identical points execute exactly once. A nil *Scheduler means no
// cache: every point executes. Each command's main builds the scheduler
// it uses (cache.New, or cache.Off for -no-cache).
//
// The digest is the single source of truth for "same point": two points
// with equal digests produce byte-identical results (pinned by the
// cache-hit-identity conformance invariant and the cold-vs-warm golden
// tests), and anything that could change result bytes — a config knob, a
// workload field, the graph's actual edges, the simulator's semantic
// version — is folded into it. The one host-resource knob, which is
// bit-identity invariant by contract (Config.Parallelism), is
// deliberately excluded.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
)

// DigestSchema versions the canonical serialization itself. Bump it
// whenever the field set or encoding below changes, so digests from an
// older layout can never collide with new ones; core.SimSchema (also
// folded in) covers semantic changes to the simulator.
const DigestSchema = "hyve/point/v1"

// Digest is the canonical content address of one simulation point.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex (the on-disk file name).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Hasher accumulates tagged fields into a canonical digest. Every write
// is framed as tag NUL type-byte payload, so adjacent fields can never
// alias each other regardless of value bytes; tags are plain ASCII
// without NULs by convention.
type Hasher struct {
	h   hash.Hash
	buf [9]byte
}

// NewHasher starts a digest computation.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

func (h *Hasher) frame(tag string, kind byte) {
	h.h.Write([]byte(tag))
	h.buf[0] = 0
	h.buf[1] = kind
	h.h.Write(h.buf[:2])
}

// Str folds a length-framed string field.
func (h *Hasher) Str(tag, v string) {
	h.frame(tag, 's')
	binary.LittleEndian.PutUint64(h.buf[:8], uint64(len(v)))
	h.h.Write(h.buf[:8])
	h.h.Write([]byte(v))
}

// U64 folds an unsigned integer field.
func (h *Hasher) U64(tag string, v uint64) {
	h.frame(tag, 'u')
	binary.LittleEndian.PutUint64(h.buf[:8], v)
	h.h.Write(h.buf[:8])
}

// I64 folds a signed integer field.
func (h *Hasher) I64(tag string, v int64) {
	h.frame(tag, 'i')
	binary.LittleEndian.PutUint64(h.buf[:8], uint64(v))
	h.h.Write(h.buf[:8])
}

// F64 folds a float field by its exact bit pattern.
func (h *Hasher) F64(tag string, v float64) {
	h.frame(tag, 'f')
	binary.LittleEndian.PutUint64(h.buf[:8], math.Float64bits(v))
	h.h.Write(h.buf[:8])
}

// Bool folds a boolean field.
func (h *Hasher) Bool(tag string, v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	h.frame(tag, 'b')
	h.h.Write([]byte{b})
}

// Sum finishes the computation.
func (h *Hasher) Sum() Digest {
	var d Digest
	h.h.Sum(d[:0])
	return d
}

// GraphDigest hashes the graph's actual content — vertex count, the edge
// list, and weights when present — so two differently labeled or
// differently provenanced instances with equal structure share an
// identity, and a re-scaled or re-seeded instance under the same dataset
// name cannot collide. It is graph.ContentDigest (the same digest v2
// containers carry in their headers, which is what makes a prepared-file
// load and an in-process generation indistinguishable here), memoized on
// the graph instance and dropped with it.
func GraphDigest(g *graph.Graph) Digest { return Digest(graph.ContentDigest(g)) }

// PointDigest computes the canonical identity of one simulation point:
// every Config and Workload field that can influence result bytes,
// serialized in a fixed order under DigestSchema and core.SimSchema.
// Config.Parallelism is excluded — results are bit-identical at every
// parallelism by contract.
func PointDigest(cfg core.Config, w core.Workload) (Digest, error) {
	if w.Graph == nil {
		return Digest{}, fmt.Errorf("cache: workload has no graph")
	}
	if w.Program == nil {
		return Digest{}, fmt.Errorf("cache: workload has no program")
	}
	h := NewHasher()
	h.Str("schema", DigestSchema)
	h.Str("sim", core.SimSchema)

	// Config.
	h.Str("cfg.name", cfg.Name)
	h.I64("cfg.pus", int64(cfg.NumPUs))
	h.I64("cfg.sram", cfg.SRAMBytes)
	h.Bool("cfg.onchip", cfg.UseOnChipSRAM)
	h.I64("cfg.edge_mem", int64(cfg.EdgeMemory))
	h.I64("cfg.vertex_mem", int64(cfg.VertexMemory))
	h.Bool("cfg.sharing", cfg.DataSharing)
	h.Bool("cfg.gating", cfg.PowerGating)
	h.F64("cfg.sync", float64(cfg.SyncOverhead))
	h.I64("cfg.reroute", int64(cfg.RerouteCycles))

	r := cfg.RRAM
	h.I64("rram.density", int64(r.DensityGb))
	h.I64("rram.banks", int64(r.Banks))
	h.I64("rram.output", int64(r.OutputBits))
	h.I64("rram.opt", int64(r.Optimize))
	h.F64("rram.cell.vread", r.Cell.ReadVoltage)
	h.F64("rram.cell.vset", r.Cell.SetVoltage)
	h.F64("rram.cell.pread", float64(r.Cell.ReadPower))
	h.F64("rram.cell.tset", float64(r.Cell.SetPulse))
	h.F64("rram.cell.eset", float64(r.Cell.SetEnergy))
	h.F64("rram.cell.ron", r.Cell.OnRes)
	h.F64("rram.cell.roff", r.Cell.OffRes)
	h.I64("rram.cell.bits", int64(r.Cell.Bits))

	d := cfg.DRAM
	h.I64("dram.density", int64(d.DensityGb))
	h.I64("dram.rate", int64(d.DataRateMTs))
	h.F64("dram.vdd", d.VDD)
	h.F64("dram.idd0", d.Currents.IDD0)
	h.F64("dram.idd2n", d.Currents.IDD2N)
	h.F64("dram.idd3n", d.Currents.IDD3N)
	h.F64("dram.idd4r", d.Currents.IDD4R)
	h.F64("dram.idd4w", d.Currents.IDD4W)
	h.F64("dram.idd5b", d.Currents.IDD5B)
	h.I64("dram.row", int64(d.RowBytes))

	g := cfg.Gate
	h.F64("gate.wake_lat", float64(g.WakeLatency))
	h.F64("gate.wake_e", float64(g.WakeEnergy))
	h.F64("gate.sleep_e", float64(g.SleepEnergy))
	h.F64("gate.idle", float64(g.IdleTimeout))
	h.Bool("gate.predictive", g.Predictive)

	f := cfg.Fault
	h.Bool("fault.enabled", f.Enabled)
	h.U64("fault.seed", f.Seed)
	h.F64("fault.ber", f.RawBER)
	h.F64("fault.stuck", f.StuckBitRate)
	h.I64("fault.failed", int64(f.FailedBanks))
	h.I64("fault.spares", int64(f.SpareBanks))
	h.I64("fault.ecc", int64(f.ECC))
	h.I64("fault.word_bits", int64(f.WordBits))
	h.Bool("fault.abort", f.AbortOnUncorrectable)

	// A custom edge device is fingerprinted behaviorally: its name plus
	// every cost the simulator can observe through the device.Memory
	// interface. Two devices indistinguishable through that interface
	// produce identical simulations, so the fingerprint is exactly as
	// fine as it needs to be.
	h.Bool("dev.custom", cfg.CustomEdgeDevice != nil)
	if dev := cfg.CustomEdgeDevice; dev != nil {
		h.Str("dev.name", dev.Name())
		h.I64("dev.line", int64(dev.LineBytes()))
		h.I64("dev.capacity", dev.CapacityBytes())
		for _, seq := range []bool{true, false} {
			rc, wc := dev.Read(seq), dev.Write(seq)
			h.Bool("dev.seq", seq)
			h.F64("dev.read_lat", float64(rc.Latency))
			h.F64("dev.read_e", float64(rc.Energy))
			h.F64("dev.write_lat", float64(wc.Latency))
			h.F64("dev.write_e", float64(wc.Energy))
		}
		h.F64("dev.background", float64(dev.Background()))
	}

	// Workload.
	h.Str("wl.dataset", w.DatasetName)
	gd := GraphDigest(w.Graph)
	h.Str("wl.graph", gd.String())
	h.I64("wl.full_v", w.FullVertices)
	h.I64("wl.full_e", w.FullEdges)
	h.Str("wl.program", w.Program.Name())
	h.I64("wl.iters", int64(w.Iterations))
	h.F64("wl.activity", w.ActivityFactor)
	h.F64("wl.update", w.UpdateFactor)

	return h.Sum(), nil
}
