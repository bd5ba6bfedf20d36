package persist

// Tombstone-bit serialization: the parallel tombstone array of an LSM
// tier run, packed eight bits per byte under the standard CRC64 frame.
// Runs without tombstones simply omit the artifact (RunMeta.Tombs
// empty), so the file always describes at least one set bit's worth of
// deletes.

import (
	"os"

	"repro/internal/binio"
)

var tombsMagic = []byte("sosdTMB1")

// encodeTombs writes the tombstone bits of a run (tombs[i] == pair i
// is a delete marker) with the standard frame.
func encodeTombs(w *binio.Writer, tombs []bool) error {
	return WriteFrame(w, tombsMagic, func() error {
		w.U64(uint64(len(tombs)))
		var b byte
		for i, t := range tombs {
			if t {
				b |= 1 << (uint(i) & 7)
			}
			if i&7 == 7 {
				w.U8(b)
				b = 0
			}
		}
		if len(tombs)&7 != 0 {
			w.U8(b)
		}
		return nil
	})
}

// decodeTombs parses and validates a tombstone image, returning the
// unpacked bit array. count must match the run's pair count; padding
// bits past count must be zero, so a tombstone file cannot smuggle
// undecoded state.
func decodeTombs(data []byte, count int) ([]bool, error) {
	r, err := OpenFrame(data, tombsMagic, "tombs")
	if err != nil {
		return nil, err
	}
	n := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n != uint64(count) {
		return nil, binio.Corruptf("persist: tombs count %d, run has %d pairs", n, count)
	}
	packed := r.Bytes(int((n + 7) / 8))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, binio.Corruptf("persist: %d trailing bytes after tombs", r.Remaining())
	}
	tombs := make([]bool, count)
	for i := range tombs {
		tombs[i] = packed[i>>3]&(1<<(uint(i)&7)) != 0
	}
	if count&7 != 0 && len(packed) > 0 {
		if packed[len(packed)-1]>>uint(count&7) != 0 {
			return nil, binio.Corruptf("persist: tombs padding bits set")
		}
	}
	return tombs, nil
}

// WriteTombs atomically writes a run's tombstone bits to path.
func WriteTombs(path string, tombs []bool) error {
	return AtomicWrite(path, func(w *binio.Writer) error { return encodeTombs(w, tombs) })
}

// ReadTombs loads and validates the tombstone file at path; count is
// the owning run's pair count.
func ReadTombs(path string, count int) ([]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeTombs(data, count)
}
