//go:build !(linux || darwin)

package graph

import (
	"errors"
	"os"
)

// MapFile is unsupported on this platform; callers fall back to
// streaming reads (OpenV2 → ReadV2).
func MapFile(f *os.File) ([]byte, func() error, error) {
	return nil, nil, errors.ErrUnsupported
}
