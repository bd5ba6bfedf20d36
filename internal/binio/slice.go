package binio

import (
	"encoding/binary"
	"reflect"
	"slices"
	"unsafe"
)

// hostLittleEndian reports whether memory holds numbers as the wire does.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// PutSlice writes a uint32 element count, then Wire(s).
func PutSlice[E any](w *Writer, s []E) {
	w.U32(uint32(len(s)))
	w.Bytes(Wire(s))
}

// GetSlice reads a slice PutSlice wrote, its count gated by Count.
func GetSlice[E any](r *Reader) []E { return GetArray[E](r, r.Count(sizeOf[E]())) }

// GetArray reads n elements Wire wrote, taking their bytes before it
// allocates: n past the remaining bytes is an error, not an allocation.
func GetArray[E any](r *Reader, n int) []E { return turned[E](r.take(n * sizeOf[E]())) }

// Wire is s as the wire holds it, every number little-endian: s's own
// memory on a little-endian host, a turned copy elsewhere. E is a
// number or an unpadded struct of numbers and such structs.
func Wire[E any](s []E) []byte {
	if !hostLittleEndian {
		s = slices.Clone(s)
		turn(s)
	}
	return view(s)
}

// FromWire is the inverse of Wire: b's own memory as a []E when the
// host is little-endian and b is aligned for E, and otherwise a turned
// copy, as GetArray reads. An alias lives no longer than b's memory.
func FromWire[E any](b []byte) []E {
	p := unsafe.Pointer(unsafe.SliceData(b))
	if hostLittleEndian && uintptr(p)%unsafe.Alignof(*new(E)) == 0 {
		return unsafe.Slice((*E)(p), len(b)/sizeOf[E]())
	}
	return turned[E](b)
}

// turned is a copy of the wire bytes p as elements in the host's order.
func turned[E any](p []byte) []E {
	s := make([]E, len(p)/sizeOf[E]())
	copy(view(s), p)
	turn(s)
	return s
}

// Checked returns v once r has read it whole and check passes, and
// otherwise nil and the first failure. check runs only on a whole read.
func Checked[T any](r *Reader, v *T, check func() error) (*T, error) {
	if r.err == nil {
		r.err = check()
	}
	if r.err != nil {
		return nil, r.err
	}
	return v, nil
}

func sizeOf[E any]() int { return int(unsafe.Sizeof(*new(E))) }

// view is s as the bytes memory holds it in.
func view[E any](s []E) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*sizeOf[E]())
}

// turn reverses the bytes of every number in s on a big-endian host,
// between its memory's order and the wire's.
func turn[E any](s []E) {
	if !hostLittleEndian {
		b := view(s)
		for _, n := range numbers(reflect.TypeFor[E](), 0, nil) {
			for at := n[0]; at < len(b); at += sizeOf[E]() {
				slices.Reverse(b[at : at+n[1]])
			}
		}
	}
}

// numbers appends the offset and size of every number in a t at off.
func numbers(t reflect.Type, off int, out [][2]int) [][2]int {
	if t.Kind() != reflect.Struct {
		return append(out, [2]int{off, int(t.Size())})
	}
	for i := range t.NumField() {
		out = numbers(t.Field(i).Type, off+int(t.Field(i).Offset), out)
	}
	return out
}
