package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// validV2 renders g into v2 container bytes through a temp file (the
// writer needs a seeker).
func validV2(t testing.TB, g *Graph, seed uint64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.hyve2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(f, g, seed); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func fuzzV2Graph(t testing.TB) *Graph {
	t.Helper()
	g, err := GenerateRMAT(256, 1024, RMATParams{A: 0.6, B: 0.15, C: 0.15, D: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fuzzV2Weighted is fuzzV2Graph with weights attached: its container
// holds two sections, so table mutations can address entries 0 and 1.
func fuzzV2Weighted(t testing.TB) *Graph {
	t.Helper()
	wg := fuzzV2Graph(t).Clone()
	AttachUniformWeights(wg, 8, 2)
	return wg
}

// FuzzReadV2 throws arbitrary bytes at both v2 readers. Neither may
// panic, loop, or over-allocate; and they must agree — any input one
// reader accepts, the other must accept with a bit-identical graph
// (the differential half of the v2-load-identity invariant).
func FuzzReadV2(f *testing.F) {
	g := fuzzV2Graph(f)
	f.Add(validV2(f, g, 0))
	f.Add(validV2(f, g, 7))
	f.Add(validV2(f, fuzzV2Weighted(f), 0))
	f.Add(validV2(f, &Graph{NumVertices: 256}, 0))
	f.Add([]byte("HyV2"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<22 {
			return
		}
		a, errA := parseV2Bytes(data, false)
		b, errB := ReadV2(bytes.NewReader(data), int64(len(data)))
		if (errA == nil) != (errB == nil) {
			t.Fatalf("readers disagree: parse err=%v, stream err=%v", errA, errB)
		}
		if errA != nil {
			return
		}
		da, db := ContentDigest(a.Graph()), ContentDigest(b.Graph())
		if da != db {
			t.Fatalf("readers decoded different graphs: %x vs %x", da, db)
		}
		// Whatever parsed must satisfy the graph's own validator.
		if err := a.Graph().Validate(); err != nil {
			t.Fatalf("accepted container fails Validate: %v", err)
		}
	})
}

// TestReadV2HostileInputs pins crafted attacks on the container format:
// each mutation of a valid file must be rejected by both readers, never
// crash them. These are the crashers-by-construction for the section
// table; fuzzing found no additional classes beyond these.
func TestReadV2HostileInputs(t *testing.T) {
	valid := validV2(t, fuzzV2Weighted(t), 3)
	tableOff := binary.LittleEndian.Uint64(valid[32:])
	nSecs := binary.LittleEndian.Uint32(valid[12:])

	// entry returns the byte offset of field fld (0=kind,1=enc,2=off,
	// 3=size,4=count... as laid out in 40-byte entries) of table entry i.
	entryOff := func(i int) uint64 { return tableOff + uint64(i)*v2EntrySize }

	put32 := func(b []byte, at uint64, v uint32) { binary.LittleEndian.PutUint32(b[at:], v) }
	put64 := func(b []byte, at uint64, v uint64) { binary.LittleEndian.PutUint64(b[at:], v) }

	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad-magic", func(b []byte) { put32(b, 0, 0xDEADBEEF) }},
		{"bad-version", func(b []byte) { put32(b, 4, 99) }},
		{"unknown-flags", func(b []byte) { put32(b, 8, 0x80) }},
		// Bit 1 marked the retired compressed-CSR sections.
		{"csr-flag", func(b []byte) { put32(b, 8, binary.LittleEndian.Uint32(b[8:])|1<<1) }},
		{"huge-verts", func(b []byte) { put64(b, 16, 1<<40) }},
		{"huge-edges", func(b []byte) { put64(b, 24, 1<<40) }},
		{"table-out-of-file", func(b []byte) { put64(b, 32, uint64(len(b))) }},
		{"table-misaligned", func(b []byte) { put64(b, 32, tableOff+3) }},
		{"too-many-sections", func(b []byte) { put32(b, 12, v2MaxSections+1) }},
		{"nonzero-reserved", func(b []byte) { put64(b, 80, 4096) }},
		{"grid-p-without-flag", func(b []byte) { put32(b, 40, 5) }},
		{"section-misaligned", func(b []byte) { put64(b, entryOff(0)+8, 4096+8) }},
		{"section-past-eof", func(b []byte) { put64(b, entryOff(0)+16, uint64(len(b))) }},
		{"section-count-mismatch", func(b []byte) { put64(b, entryOff(0)+24, 1) }},
		{"unknown-encoding", func(b []byte) { put32(b, entryOff(0)+4, 1) }},
		{"duplicate-section", func(b []byte) {
			// Make entry 1 a copy of entry 0.
			copy(b[entryOff(1):entryOff(1)+v2EntrySize], b[entryOff(0):entryOff(0)+v2EntrySize])
		}},
		{"overlapping-sections", func(b []byte) {
			// Point entry 1's payload at entry 0's region (keep its own
			// kind/enc/size/count so only the overlap trips).
			put64(b, entryOff(1)+8, binary.LittleEndian.Uint64(b[entryOff(0)+8:]))
		}},
		{"edge-out-of-range", func(b []byte) {
			// Corrupt the first stored destination to an id ≥ |V|.
			off := binary.LittleEndian.Uint64(b[entryOff(0)+8:])
			put32(b, off+4, 1<<30)
		}},
		{"truncated", func(b []byte) {}}, // handled below: data[:100]
		{"missing-section", func(b []byte) { put32(b, 12, nSecs-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), valid...)
			tc.mutate(data)
			if tc.name == "truncated" {
				data = data[:100]
			}
			if _, err := parseV2Bytes(data, false); err == nil {
				t.Errorf("parseV2Bytes accepted %s", tc.name)
			}
			if _, err := ReadV2(bytes.NewReader(data), int64(len(data))); err == nil {
				t.Errorf("ReadV2 accepted %s", tc.name)
			}
		})
	}
}
