//go:build linux || darwin

package graph

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps f read-only and returns the mapping plus its unmap
// function. The mapping outlives f (closing the file descriptor does
// not tear down an established mapping), so callers may close f
// immediately. On error OpenV2 falls back to ReadV2's streaming reads.
func mapFile(f *os.File) ([]byte, func() error, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size <= 0 || size != int64(int(size)) {
		return nil, nil, fmt.Errorf("graph: unmappable file size %d", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: mmap: %w", err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
