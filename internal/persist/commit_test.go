package persist

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/binio"
	"repro/internal/dataset"
	"repro/internal/registry"
)

// countedFile stands between commitFile's Writer and its temp file:
// it counts the writes and fails the failAt-th (0: never).
type countedFile struct {
	f      *os.File
	writes int
	failAt int
}

var errDiskFull = errors.New("disk full")

func (c *countedFile) Write(p []byte) (int, error) {
	if c.writes++; c.writes == c.failAt {
		return 0, errDiskFull
	}
	return c.f.Write(p)
}

func (c *countedFile) sink(f *os.File) io.Writer {
	c.f = f
	return c
}

// rmiEncoder builds an RMI over n osm keys and returns its frame
// encoder. osm's mid rung keeps the 16-byte linear leaf, so from 150k
// keys on the frame is more than one binio.BufSize span.
func rmiEncoder(t *testing.T, n int) func(w *binio.Writer) error {
	t.Helper()
	keys := dataset.MustGenerate(dataset.OSM, n, 1)
	nb, ok := registry.Builder("RMI", keys)
	if !ok {
		t.Fatal("RMI: no builder")
	}
	built, err := nb.Builder.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	return func(w *binio.Writer) error { return EncodeIndex(w, built) }
}

// TestCommitLeavesInSpans: an encoded index reaches its file in spans
// of binio.BufSize, not one write per field (a 250k-key RMI was ~37k
// writes), and the file is the in-memory encoding byte for byte.
func TestCommitLeavesInSpans(t *testing.T) {
	encode := rmiEncoder(t, 250_000)
	mem := binio.NewWriter(nil)
	if err := encode(mem); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rmi.idx")
	var c countedFile
	var written atomic.Uint64
	f, err := commitFile(path, c.sink, &written, encode)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, mem.Buffered()) || written.Load() != uint64(len(file)) {
		t.Fatalf("file (%d bytes, reported %d) differs from the in-memory encoding (%d bytes)", len(file), written.Load(), mem.Len())
	}
	t.Logf("%d bytes in %d writes", len(file), c.writes)
	if limit := len(file)/binio.BufSize + 2; c.writes > limit {
		t.Errorf("%d-byte index left in %d writes, want at most %d", len(file), c.writes, limit)
	}
	if _, err := decodeIndex(file); err != nil {
		t.Errorf("committed index does not decode: %v", err)
	}
}

// TestCommitFailedWriteLeavesNothing fails every write of an index file
// and of a seeded WAL in turn — the last of them is the explicit Flush
// before the fsync: the sink's error comes back, no temp file stays
// behind, and the previous file at the path is untouched.
func TestCommitFailedWriteLeavesNothing(t *testing.T) {
	encodeIdx := rmiEncoder(t, 150_000)
	seed := make([]Op, 7000) // 168 KB of records: three spans
	for i := range seed {
		seed[i] = Op{Key: uint64(i), Val: uint64(2 * i), Tomb: i%5 == 0}
	}
	for name, encode := range map[string]func(*binio.Writer) error{"index": encodeIdx, "wal": seedWAL(seed)} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
			t.Fatal(err)
		}
		var clean countedFile
		var written atomic.Uint64
		f, err := commitFile(filepath.Join(t.TempDir(), name), clean.sink, &written, encode)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		committed := written.Load()
		if clean.writes < 2 {
			t.Fatalf("%s: only %d writes; the case needs a mid-file failure and a final one", name, clean.writes)
		}
		for k := 1; k <= clean.writes; k++ {
			c := countedFile{failAt: k}
			if _, err := commitFile(path, c.sink, &written, encode); !errors.Is(err, errDiskFull) {
				t.Fatalf("%s, write %d of %d failing: err = %v, want the sink's", name, k, clean.writes, err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != name {
				t.Fatalf("%s, write %d failing: directory holds %v, want only %s", name, k, entries, name)
			}
			if have, _ := os.ReadFile(path); string(have) != "previous" {
				t.Fatalf("%s, write %d failing: the committed file was replaced", name, k)
			}
			if written.Load() != committed {
				t.Fatalf("%s, write %d failing: %d bytes counted as written", name, k, written.Load()-committed)
			}
		}
	}
}

// TestDirSyncErrKeepsAllButEINVAL: a directory fsync's EINVAL (a
// filesystem that cannot fsync directories) is forgiven, bare or
// wrapped as os.File.Sync wraps it; EIO, which leaves the rename's
// durability unknown, is returned.
func TestDirSyncErrKeepsAllButEINVAL(t *testing.T) {
	for _, c := range []struct {
		err  error
		keep bool
	}{
		{nil, false},
		{syscall.EINVAL, false},
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.EINVAL}, false},
		{syscall.EIO, true},
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.EIO}, true},
	} {
		if got := dirSyncErr(c.err); (got != nil) != c.keep || c.keep && got != c.err {
			t.Errorf("dirSyncErr(%v) = %v, want kept %v", c.err, got, c.keep)
		}
	}
}
