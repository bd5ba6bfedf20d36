//go:build !unix

package persist

import "os"

// mapFile reads the file at path: this host maps nothing, so unmap is nil.
func mapFile(path string) ([]byte, func(), error) {
	data, err := os.ReadFile(path)
	return data, nil, err
}
