//go:build !race

package registry

const lookupStride = 1
