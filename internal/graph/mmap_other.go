//go:build !(linux || darwin)

package graph

import (
	"errors"
	"os"
)

// mapFile is unsupported on this platform; OpenV2 falls back to
// ReadV2's streaming reads.
func mapFile(f *os.File) ([]byte, func() error, error) {
	return nil, nil, errors.ErrUnsupported
}
