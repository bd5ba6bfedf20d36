//go:build unix

package persist

import (
	"os"
	"syscall"
)

// mapFile maps the file at path read-only and shared, and returns the
// func that unmaps it; a file without a data block is read, unmap nil.
func mapFile(path string) ([]byte, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() < 2*runBlock {
		data, err := os.ReadFile(path)
		return data, nil, err
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	return data, func() { syscall.Munmap(data) }, err
}
