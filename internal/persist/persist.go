// Package persist is the durability layer of the serving stack: a
// versioned, checksummed, little-endian binary format for sorted runs
// (one file each: block-aligned key and payload arrays that are served
// from the mapped file without a heap copy, then the run's tombstone
// bits and its built index, framed by the per-family codecs
// in internal/registry), per-shard write-ahead logs, and the snapshot
// manifest tying them together. serve.Store composes these into
// Snapshot/Open; this package owns only the bytes.
//
// Crash-safety discipline, used by every artifact: files are written
// to a temp name in the destination directory, fsynced, renamed into
// place, and the directory fsynced — a reader never observes a
// half-written file, only the old version or the new one. Every file
// carries a magic string, a format version, and a trailing CRC64 over
// its full contents (a run file checksums each block and section
// separately so the header can be validated without streaming the data
// twice). Decoders validate every structural invariant and size every
// allocation against the bytes actually present, so corrupt or
// truncated input returns an error wrapped in binio.ErrCorrupt — never
// a panic, never an unbounded allocation. See DESIGN.md "Persistence".
package persist

import (
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/registry"
)

// Format version, bumped on any incompatible layout change. Decoders
// reject other versions rather than guessing.
const formatVersion = 1

// maxTagLen bounds manifest/frame strings (family tags, config IDs,
// file names) — anything longer is corruption.
const maxTagLen = 4096

var indexMagic = []byte("sosdIDX1")

// AtomicWrite writes a file via temp + fsync + rename + directory
// fsync, the commit discipline shared by every persisted artifact.
// write receives a span-buffered binio.Writer over the temp file.
func AtomicWrite(path string, write func(w *binio.Writer) error) error {
	f, err := commitFile(path, direct, &snapshotBytes, write)
	if err == nil {
		f.Close() // fsynced and renamed: Close has nothing left to report
	}
	return err
}

func direct(f *os.File) io.Writer { return f }

// commitFile is that discipline: encode into a temp file next to path,
// Flush the Writer, fsync (the bytes now count towards written), rename
// into place, fsync the directory. An error before the rename removes
// the temp file. The file comes back open: the descriptor survives the
// rename, so a WAL appends to the inode it committed. sink stands
// between Writer and file so tests can fail a write.
func commitFile(path string, sink func(*os.File) io.Writer, written *atomic.Uint64, write func(w *binio.Writer) error) (*os.File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	w := binio.NewWriter(sink(tmp))
	if err = write(w); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
		fsyncs.Add(1)
	}
	if err == nil {
		written.Add(uint64(w.Len()))
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := SyncDir(dir); err != nil {
		tmp.Close()
		return nil, err
	}
	return tmp, nil
}

// SyncDir fsyncs a directory so a completed rename survives power loss.
// Some filesystems cannot fsync a directory and return EINVAL, which
// is no error here; any other failure (EIO) means the rename may not be
// durable, and is returned.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	fsyncs.Add(1)
	return dirSyncErr(d.Sync())
}

// dirSyncErr drops the EINVAL of a filesystem that cannot fsync a
// directory and keeps every other error.
func dirSyncErr(err error) error {
	if errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}

// encoder is an index that writes its own codec payload.
type encoder interface {
	core.Index
	Encode(w *binio.Writer) error
}

// indexEncoder returns idx as the encoder its frame is written with.
// Families without a codec (and the zero-size empty-table index) cannot
// be encoded: the error matches errors.ErrUnsupported, and callers fall
// back to rebuild-at-load.
func indexEncoder(idx core.Index) (encoder, error) {
	enc, ok := idx.(encoder)
	if _, decodes := registry.CodecFor(idx.Name()); !ok || !decodes {
		return nil, fmt.Errorf("persist: no codec for index family %q: %w", idx.Name(), errors.ErrUnsupported)
	}
	return enc, nil
}

func encodeIndex(w *binio.Writer, idx encoder) error {
	return WriteFrame(w, indexMagic, func() error {
		w.Str(idx.Name())
		return idx.Encode(w)
	})
}

// decodeIndex reconstructs a built index from an encoded frame,
// verifying magic, version, and checksum before handing the payload to
// the family decoder. The whole frame must be consumed — trailing
// garbage is corruption.
func decodeIndex(data []byte) (core.Index, error) {
	r, err := OpenFrame(data, indexMagic, "index")
	if err != nil {
		return nil, err
	}
	family := r.Str(maxTagLen)
	if err := r.Err(); err != nil {
		return nil, err
	}
	decode, ok := registry.CodecFor(family)
	if !ok {
		return nil, binio.Corruptf("persist: no codec for index family %q", family)
	}
	idx, err := decode(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, binio.Corruptf("persist: %d trailing bytes after index payload", r.Remaining())
	}
	return idx, nil
}

// WriteFrame writes the envelope every checked artifact shares: magic,
// formatVersion, what body writes to w, then the CRC64 of all of it.
func WriteFrame(w *binio.Writer, magic []byte, body func() error) error {
	w.Bytes(magic)
	w.U32(formatVersion)
	if err := body(); err != nil {
		return err
	}
	w.U64(w.Sum64())
	return w.Err()
}

// OpenFrame checks a WriteFrame envelope — trailing CRC64, magic,
// formatVersion — and returns a reader over the body. what names the
// artifact in errors.
func OpenFrame(data, magic []byte, what string) (*binio.Reader, error) {
	if len(data) < 8 {
		return nil, binio.Corruptf("persist: %s shorter than its checksum", what)
	}
	body := data[:len(data)-8]
	want := binio.NewReader(data[len(data)-8:]).U64()
	if got := crc64.Checksum(body, binio.CRCTable); got != want {
		return nil, binio.Corruptf("persist: %s checksum mismatch (have %x, want %x)", what, got, want)
	}
	r := binio.NewReader(body)
	if string(r.Bytes(len(magic))) != string(magic) {
		return nil, binio.Corruptf("persist: bad %s magic", what)
	}
	if v := r.U32(); v != formatVersion {
		return nil, binio.Corruptf("persist: %s format version %d, want %d", what, v, formatVersion)
	}
	return r, nil
}
