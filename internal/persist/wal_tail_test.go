package persist

import (
	"os"
	"path/filepath"
	"testing"
)

func tailTestOps(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Key: uint64(i * 7), Val: uint64(i) | 1, Tomb: i%5 == 0}
	}
	return ops
}

func TestWALTailFrom(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	seed := tailTestOps(10)
	w, err := CreateWAL(path, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appended := tailTestOps(2500)[10:] // distinct suffix past the seed
	for _, op := range appended {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	all := append(append([]Op(nil), seed...), appended...)
	if w.Records() != len(all) {
		t.Fatalf("Records() = %d, want %d", w.Records(), len(all))
	}

	for _, from := range []int{0, 1, 10, 1024, 1025, len(all) - 1, len(all), len(all) + 5, -3} {
		got, err := w.TailFrom(from)
		if err != nil {
			t.Fatalf("TailFrom(%d): %v", from, err)
		}
		lo := from
		if lo < 0 {
			lo = 0
		}
		if lo > len(all) {
			lo = len(all)
		}
		want := all[lo:]
		if len(got) != len(want) {
			t.Fatalf("TailFrom(%d): %d ops, want %d", from, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("TailFrom(%d): op %d = %+v, want %+v", from, i, got[i], want[i])
			}
		}
	}

	// The standalone reader sees the same records through its own
	// descriptor while the WAL is still open for appends.
	got, err := TailWAL(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all)-100 || got[0] != all[100] {
		t.Fatalf("TailWAL(100): %d ops (first %+v), want %d (first %+v)",
			len(got), got[0], len(all)-100, all[100])
	}
}

func TestWALTailTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	w, err := CreateWAL(path, tailTestOps(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half and corrupt the one before it: the
	// tail readers must stop cleanly at record 6, like ReplayWAL.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderLen+6*walRecordLen+4] ^= 0xff               // corrupt record 6's key
	torn := data[:walHeaderLen+7*walRecordLen+walRecordLen/2] // record 7 half-written
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	ops, err := TailWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 6 {
		t.Fatalf("TailWAL over torn log: %d ops, want 6", len(ops))
	}
	ops, err = TailWAL(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("TailWAL(4) over torn log: %d ops, want 2", len(ops))
	}
	// Reads entirely inside the corrupt region see nothing.
	ops, err = TailWAL(path, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("TailWAL(6) over torn log: %d ops, want 0", len(ops))
	}
}

func TestWALTailBadHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	if err := os.WriteFile(path, []byte("notawal!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := TailWAL(path, 0); err == nil {
		t.Fatal("TailWAL accepted a file shorter than the header")
	}
	if err := os.WriteFile(path, []byte("sosdXXX90123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := TailWAL(path, 0); err == nil {
		t.Fatal("TailWAL accepted a bad magic")
	}
}
