package graphr

import (
	"encoding/binary"
	"testing"
)

// FuzzCrossbarBlock derives a quantizer geometry, an 8×8 code block
// (anywhere from empty to full, saturated codes included) and an input
// vector from the fuzz bytes, and requires the flat evaluation of the
// block's non-empty cells to equal CrossbarMVM's shift-add exactly.
func FuzzCrossbarBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0x01, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff})
	full := make([]byte, 2+8+64*4+8*4)
	for i := range full {
		full[i] = 0xff
	}
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) []byte {
			var buf [8]byte
			copy(buf[:n], data)
			data = data[min(n, len(data)):]
			return buf[:n]
		}
		cellBits := []int{1, 2, 4}[int(next(1)[0])%3]
		valueBits := cellBits * (1 + int(next(1)[0])%(30/cellBits))
		q, err := NewQuantizer(valueBits, cellBits, 1)
		if err != nil {
			t.Fatalf("derived geometry %d/%d refused: %v", valueBits, cellBits, err)
		}
		fullCode := q.Levels() - 1
		occupied := binary.LittleEndian.Uint64(next(8))
		cells := make([][]uint32, blockDim)
		for i := range cells {
			cells[i] = make([]uint32, blockDim)
			for j := range cells[i] {
				if occupied>>(i*blockDim+j)&1 == 0 {
					continue
				}
				// The top bit saturates the cell; otherwise any non-zero code.
				v := binary.LittleEndian.Uint32(next(4))
				cells[i][j] = fullCode
				if v>>31 == 0 {
					cells[i][j] = 1 + v%fullCode
				}
			}
		}
		in := make([]uint32, blockDim)
		for i := range in {
			in[i] = binary.LittleEndian.Uint32(next(4)) & fullCode
		}
		requireColumnsMatchMVM(t, q, cells, in)
	})
}
