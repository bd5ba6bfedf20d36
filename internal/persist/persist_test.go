package persist

import (
	"bytes"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
)

// buildFamilies returns, for every family with a registered codec, a
// built mid-sweep index over keys.
func buildFamilies(t *testing.T, keys []core.Key) map[string]core.Index {
	t.Helper()
	out := map[string]core.Index{}
	for _, family := range codecFamilies() {
		nb, ok := registry.Builder(family, keys)
		if !ok {
			t.Fatalf("%s: no builder", family)
		}
		idx, err := nb.Builder.Build(keys)
		if err != nil {
			t.Fatalf("%s: build: %v", family, err)
		}
		out[family] = idx
	}
	return out
}

// TestIndexRoundTripEquivalence is the core codec contract: for every
// family, Encode→Decode must reproduce bit-identical Lookup bounds
// across the full key set, absent keys in every gap neighbourhood, and
// both extremes — i.e. the decoded index is indistinguishable from the
// trained one.
func TestIndexRoundTripEquivalence(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 5000, 23)
	dir := t.TempDir()
	for family, idx := range buildFamilies(t, keys) {
		path := filepath.Join(dir, family+".idx")
		if err := WriteIndex(path, idx); err != nil {
			t.Fatalf("%s: write: %v", family, err)
		}
		got, err := ReadIndex(path)
		if err != nil {
			t.Fatalf("%s: read: %v", family, err)
		}
		if got.Name() != idx.Name() {
			t.Fatalf("%s: decoded name %q", family, got.Name())
		}
		if got.SizeBytes() != idx.SizeBytes() {
			t.Errorf("%s: decoded SizeBytes %d != %d", family, got.SizeBytes(), idx.SizeBytes())
		}
		probes := make([]core.Key, 0, 3*len(keys)+4)
		probes = append(probes, 0, ^core.Key(0))
		for _, k := range keys {
			probes = append(probes, k)
			probes = append(probes, k+1) // gap above (absent unless dup-adjacent)
			if k > 0 {
				probes = append(probes, k-1)
			}
		}
		for _, x := range probes {
			want := idx.Lookup(x)
			have := got.Lookup(x)
			if want != have {
				t.Fatalf("%s: Lookup(%d) = %v after decode, want %v", family, x, have, want)
			}
			if !core.ValidBound(keys, x, have) {
				t.Fatalf("%s: decoded bound %v invalid for key %d", family, have, x)
			}
		}
	}
}

// TestIndexFrameCorruption flips every byte of an encoded frame (in
// strides, for speed) and requires a clean error each time.
func TestIndexFrameCorruption(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 2000, 7)
	for family, idx := range buildFamilies(t, keys) {
		buf := binio.NewWriter(nil)
		if err := EncodeIndex(buf, idx); err != nil {
			t.Fatalf("%s: encode: %v", family, err)
		}
		data := buf.Buffered()
		if _, err := decodeIndex(data); err != nil {
			t.Fatalf("%s: clean decode failed: %v", family, err)
		}
		for pos := 0; pos < len(data); pos += 7 {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 0x40
			if _, err := decodeIndex(mut); err == nil {
				t.Fatalf("%s: bit flip at %d decoded without error", family, pos)
			}
		}
		for cut := 0; cut < len(data); cut += 11 {
			if _, err := decodeIndex(data[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d decoded without error", family, cut)
			}
		}
	}
}

func TestTableRoundTrip(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Face, 30000, 3)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i) * 11
	}
	path := filepath.Join(t.TempDir(), "t.tab")
	if err := WriteTable(path, keys, payloads); err != nil {
		t.Fatalf("write: %v", err)
	}
	gk, gp, err := ReadTable(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(gk) != len(keys) || len(gp) != len(payloads) {
		t.Fatalf("lengths %d/%d", len(gk), len(gp))
	}
	for i := range keys {
		if gk[i] != keys[i] || gp[i] != payloads[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
	// The data blocks must start on block boundaries.
	st, _ := os.Stat(path)
	if st.Size()%8 != 0 || st.Size() < int64(16*len(keys)) {
		t.Fatalf("suspicious file size %d", st.Size())
	}
}

// TestTableGoldenBytes pins the table file byte for byte to what commit
// 9ff2292 wrote (CRC64 of the whole file), across the empty table, a
// single block, both sides of a block boundary and a multi-block table:
// skipping the second hash of the data blocks must not move a byte, and
// the file must still read back.
func TestTableGoldenBytes(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 10_000, 1)
	payloads := dataset.Payloads(len(keys), 1)
	golden := []struct {
		n    int
		size int
		crc  uint64
	}{
		{0, 4096, 0x0b08c209f7d27b3c},
		{1, 8200, 0x753b2fac2f168ce7},
		{511, 12280, 0xa5ded6052ec15de1},
		{512, 12288, 0xfe125801616a81b3},
		{10_000, 166016, 0x4598d5cb530f8751},
	}
	for _, g := range golden {
		path := filepath.Join(t.TempDir(), "t.tab")
		if err := WriteTable(path, keys[:g.n], payloads[:g.n]); err != nil {
			t.Fatalf("n=%d: write: %v", g.n, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := crc64.Checksum(file, binio.CRCTable); len(file) != g.size || got != g.crc {
			t.Errorf("n=%d: file is %d bytes, CRC64 %016x; want %d bytes, %016x", g.n, len(file), got, g.size, g.crc)
		}
		gk, gp, err := readTableFrom(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			t.Fatalf("n=%d: read: %v", g.n, err)
		}
		if !slices.Equal(gk, keys[:g.n]) || !slices.Equal(gp, payloads[:g.n]) {
			t.Errorf("n=%d: table did not round-trip", g.n)
		}
	}
}

func TestTableEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.tab")
	if err := WriteTable(path, nil, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	gk, gp, err := ReadTable(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(gk) != 0 || len(gp) != 0 {
		t.Fatalf("non-empty result")
	}
}

func TestTableCorruption(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 2000, 5)
	payloads := make([]uint64, len(keys))
	path := filepath.Join(t.TempDir(), "t.tab")
	if err := WriteTable(path, keys, payloads); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, _ := os.ReadFile(path)
	for _, pos := range []int{0, 9, 20, 30, 50, 4096, 4104, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 1
		if _, _, err := readTableFrom(bytes.NewReader(mut), int64(len(mut))); err == nil {
			t.Errorf("bit flip at %d read without error", pos)
		}
	}
	for _, cut := range []int{0, 10, 59, 4095, 4100, len(data) / 2} {
		if _, _, err := readTableFrom(bytes.NewReader(data[:cut]), int64(cut)); err == nil {
			t.Errorf("truncation at %d read without error", cut)
		}
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	seed := []Op{{Key: 10, Val: 1}, {Key: 20, Val: 2, Tomb: true}}
	w, err := CreateWAL(path, seed)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Append(Op{Key: core.Key(100 + i), Val: uint64(i), Tomb: i%7 == 0}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w2, ops, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w2.Close()
	if len(ops) != 102 {
		t.Fatalf("replayed %d ops, want 102", len(ops))
	}
	if ops[0] != seed[0] || ops[1] != seed[1] {
		t.Fatalf("seed ops wrong: %+v", ops[:2])
	}
	for i := 0; i < 100; i++ {
		want := Op{Key: core.Key(100 + i), Val: uint64(i), Tomb: i%7 == 0}
		if ops[2+i] != want {
			t.Fatalf("op %d = %+v, want %+v", i, ops[2+i], want)
		}
	}
}

// TestWALTornTail simulates a crash mid-append: a partial record (and
// then a bit-flipped record) at the tail must end replay cleanly,
// keeping every record before it, and OpenWAL must truncate so new
// appends extend the intact prefix.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	w, err := CreateWAL(path, nil)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 10; i++ {
		w.Append(Op{Key: core.Key(i), Val: uint64(i)})
	}
	w.Close()

	// Torn write: append half a record.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write(bytes.Repeat([]byte{0xAA}, 13))
	f.Close()

	w2, ops, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	if len(ops) != 10 {
		t.Fatalf("replayed %d ops, want 10", len(ops))
	}
	// The torn tail must be gone: a fresh append then a reopen yields 11.
	if err := w2.Append(Op{Key: 99, Val: 99}); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	w2.Close()
	_, ops, err = OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(ops) != 11 || ops[10].Key != 99 {
		t.Fatalf("after truncate+append: %d ops, last %+v", len(ops), ops[len(ops)-1])
	}

	// Bit flip inside an earlier record: replay stops there.
	data, _ := os.ReadFile(path)
	data[walHeaderLen+3*walRecordLen+5] ^= 1
	ops, _, err = replayWAL(data)
	if err != nil {
		t.Fatalf("replay flipped: %v", err)
	}
	if len(ops) != 3 {
		t.Fatalf("replay after mid-log flip: %d ops, want 3", len(ops))
	}

	// A bad header is corruption, not a torn tail.
	data[0] ^= 1
	if _, _, err := replayWAL(data); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("bad header: err = %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Family: "PGM",
		Gen:    7,
		Shards: []ShardMeta{
			{Sep: 0, Codec: "PGM/eps=64", WAL: "shard-0000-g000007.wal", Runs: []RunMeta{
				{Codec: "PGM/eps=64", Table: "shard-0000-g000007-r00.tab", Index: "shard-0000-g000007-r00.idx"},
				{Codec: "BS", Table: "shard-0000-g000007-r01.tab", Tombs: "shard-0000-g000007-r01.tmb"},
			}},
			{Sep: 1000, Codec: "PGM/eps=64", WAL: "shard-0001-g000007.wal", Runs: []RunMeta{
				{Codec: "PGM/eps=64", Table: "shard-0001-g000007-r00.tab"},
			}},
		},
	}
	path := filepath.Join(t.TempDir(), ManifestName)
	if err := WriteManifest(path, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Family != m.Family || got.Gen != m.Gen || len(got.Shards) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if !reflect.DeepEqual(got.Shards, m.Shards) {
		t.Fatalf("shards round-trip diverged:\n got %+v\nwant %+v", got.Shards, m.Shards)
	}
}

func TestManifestRejectsTraversalAndDisorder(t *testing.T) {
	runs := func(rs ...RunMeta) []RunMeta { return rs }
	bad := []*Manifest{
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w", Runs: runs(RunMeta{Table: "../evil.tab"})}}},
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "sub/dir.wal", Runs: runs(RunMeta{Table: "t"})}}},
		{Family: "PGM", Shards: []ShardMeta{
			{Sep: 5, WAL: "w", Runs: runs(RunMeta{Table: "t"})},
			{Sep: 5, WAL: "w2", Runs: runs(RunMeta{Table: "t2"})}}},
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w", Runs: runs(RunMeta{Table: ""})}}},
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w"}}},                                               // no runs
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w", Runs: runs(RunMeta{Table: "t", Tombs: "tm"})}}}, // tombed base
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w", Runs: runs(RunMeta{Table: "t"}, RunMeta{Table: "t2", Tombs: "..\\tm"})}}},
	}
	for i, m := range bad {
		buf := binio.NewWriter(nil)
		if err := encodeManifest(buf, m); err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		if _, err := decodeManifest(buf.Buffered()); !errors.Is(err, binio.ErrCorrupt) {
			t.Errorf("case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestTombsRoundTripAndRejects(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		tombs := make([]bool, n)
		for i := range tombs {
			tombs[i] = i%5 == 0 || i == n-1
		}
		path := filepath.Join(t.TempDir(), "run.tmb")
		if err := WriteTombs(path, tombs); err != nil {
			t.Fatalf("n=%d write: %v", n, err)
		}
		got, err := ReadTombs(path, n)
		if err != nil {
			t.Fatalf("n=%d read: %v", n, err)
		}
		if !reflect.DeepEqual(got, tombs) {
			t.Fatalf("n=%d round trip diverged", n)
		}
		// A count mismatch is corruption, not silent truncation.
		if _, err := ReadTombs(path, n+1); !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("n=%d count mismatch: err = %v, want ErrCorrupt", n, err)
		}
		if n == 0 {
			continue
		}
		// Every single-bit flip must be detected (CRC frame), and
		// nonzero padding bits past count must be rejected.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < len(data); pos++ {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 0x80
			if _, err := decodeTombs(mut, n); err == nil {
				t.Fatalf("n=%d bit flip at %d decoded without error", n, pos)
			}
		}
	}
}

func TestManifestCorruption(t *testing.T) {
	m := &Manifest{Family: "RMI", Shards: []ShardMeta{{Sep: 0, Codec: "RMI", WAL: "w",
		Runs: []RunMeta{{Codec: "RMI", Table: "t"}}}}}
	buf := binio.NewWriter(nil)
	if err := encodeManifest(buf, m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	data := buf.Buffered()
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if _, err := decodeManifest(mut); err == nil {
			t.Fatalf("bit flip at %d decoded without error", pos)
		}
	}
}

// EncodeIndex frames and writes a built index: magic, version, the
// family codec tag, the codec payload, and a trailing CRC64 over
// everything preceding it.
func EncodeIndex(w *binio.Writer, idx core.Index) error {
	codec, err := indexCodec(idx)
	if err != nil {
		return err
	}
	return encodeIndex(w, idx, codec)
}
