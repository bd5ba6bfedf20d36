package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/indextest"
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
// rung of every codec family on every dataset, Encode→Decode through
// the index frame a run file carries must give back the arrays the index
// describes, name for name, element size and length alike, and
// bit-identical Lookup bounds across the full key set, absent keys in
// every gap neighbourhood, and both extremes — i.e. the decoded index is
// indistinguishable from the trained one. The mid rung's bounds, the
// one a store shard builds, are checked valid too.
func TestIndexRoundTripEquivalence(t *testing.T) {
	for _, ds := range dataset.All() {
		keys := dataset.MustGenerate(ds, 20_000, 23)
		probes := make([]core.Key, 0, 3*len(keys)+2)
		probes = append(probes, 0, ^core.Key(0))
		for _, k := range keys {
			probes = append(probes, k, k+1, k-1) // gaps above and below (absent unless dup-adjacent)
		}
		for _, family := range codecFamilies() {
			rungs := registry.Sweep(family, keys)
			for i, nb := range rungs {
				what := fmt.Sprintf("%s %s on %s", family, nb.Label, ds)
				idx, err := nb.Builder.Build(keys)
				if err != nil {
					t.Fatalf("%s: build: %v", what, err)
				}
				buf := binio.NewWriter(nil)
				if err := EncodeIndex(buf, idx); err != nil {
					t.Fatalf("%s: encode: %v", what, err)
				}
				got, err := decodeIndex(buf.Buffered())
				if err != nil || got.Name() != idx.Name() {
					t.Fatalf("%s: decoded to %v, %v", what, got, err)
				}
				type described interface{ Arrays() []core.Array }
				if have, want := got.(described).Arrays(), idx.(described).Arrays(); !slices.Equal(have, want) {
					t.Fatalf("%s: decoded arrays %v, built %v", what, have, want)
				}
				for _, x := range probes {
					have, want := got.Lookup(x), idx.Lookup(x)
					if have != want || i == len(rungs)/2 && !core.ValidBound(keys, x, have) {
						t.Fatalf("%s: Lookup(%d) = %v after decode, want %v (valid at the mid rung)", what, x, have, want)
					}
				}
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
	path := filepath.Join(t.TempDir(), "t.run")
	if err := WriteRun(path, Run{Keys: keys, Payloads: payloads}); err != nil {
		t.Fatalf("write: %v", err)
	}
	run, unmap, err := ReadRun(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	defer unmap()
	gk, gp := run.Keys, run.Payloads
	if run.Tombs != nil || run.Index != nil {
		t.Fatalf("plain run read back with sections (tombs %v, index %v)", run.Tombs != nil, run.Index)
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

// TestTableGoldenBytes pins a run file without sections byte for byte
// (CRC64 of the whole file), across the empty run, a single block, both
// sides of a block boundary and a multi-block run, and the file must
// still read back. The sizes are those the table file had at commit
// 9ff2292; the CRCs were re-recorded when the table file became the run
// file, whose header carries its own magic and the two section slots.
func TestTableGoldenBytes(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 10_000, 1)
	payloads := dataset.Payloads(len(keys), 1)
	golden := []struct {
		n    int
		size int
		crc  uint64
	}{
		{0, 4096, 0xb0c9470d87cbdba1},
		{1, 8200, 0x34c8bcfb3974f2f8},
		{511, 12280, 0xe41817b7e3cffc8d},
		{512, 12288, 0x7c3f29ff1405c2a6},
		{10_000, 166016, 0xc5a27986d5995eb1},
	}
	for _, g := range golden {
		path := filepath.Join(t.TempDir(), "t.run")
		if err := WriteRun(path, Run{Keys: keys[:g.n], Payloads: payloads[:g.n]}); err != nil {
			t.Fatalf("n=%d: write: %v", g.n, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := crc64.Checksum(file, binio.CRCTable); len(file) != g.size || got != g.crc {
			t.Errorf("n=%d: file is %d bytes, CRC64 %016x; want %d bytes, %016x", g.n, len(file), got, g.size, g.crc)
		}
		run, err := readRunFrom(file)
		if err != nil {
			t.Fatalf("n=%d: read: %v", g.n, err)
		}
		if !slices.Equal(run.Keys, keys[:g.n]) || !slices.Equal(run.Payloads, payloads[:g.n]) {
			t.Errorf("n=%d: table did not round-trip", g.n)
		}
	}
}

func TestTableEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.run")
	if err := WriteRun(path, Run{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	run, unmap, err := ReadRun(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	defer unmap()
	if len(run.Keys) != 0 || len(run.Payloads) != 0 || run.Tombs != nil || run.Index != nil {
		t.Fatalf("non-empty result")
	}
}

func TestTableCorruption(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 2000, 5)
	payloads := make([]uint64, len(keys))
	path := filepath.Join(t.TempDir(), "t.run")
	if err := WriteRun(path, Run{Keys: keys, Payloads: payloads}); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, _ := os.ReadFile(path)
	for _, pos := range []int{0, 9, 20, 30, 50, 70, 90, 4096, 4104, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 1
		if _, err := readRunFrom(mut); err == nil {
			t.Errorf("bit flip at %d read without error", pos)
		}
	}
	for _, cut := range []int{0, 10, 59, 99, 4095, 4100, len(data) / 2} {
		if _, err := readRunFrom(data[:cut]); err == nil {
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
				{Codec: "PGM/eps=64", File: "shard-0000-g000007-r00.run"},
				{Codec: "BS", File: "shard-0000-g000007-r01.run"},
			}},
			{Sep: 1000, Codec: "PGM/eps=64", WAL: "shard-0001-g000007.wal", Runs: []RunMeta{
				{Codec: "PGM/eps=64", File: "shard-0001-g000007-r00.run"},
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
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w", Runs: runs(RunMeta{File: "../evil.run"})}}},
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "sub/dir.wal", Runs: runs(RunMeta{File: "t"})}}},
		{Family: "PGM", Shards: []ShardMeta{
			{Sep: 5, WAL: "w", Runs: runs(RunMeta{File: "t"})},
			{Sep: 5, WAL: "w2", Runs: runs(RunMeta{File: "t2"})}}},
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w", Runs: runs(RunMeta{File: ""})}}},
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w"}}}, // no runs
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w", Runs: runs(RunMeta{File: "t"}, RunMeta{File: "..\\t2"})}}},
		{Family: "PGM", Shards: []ShardMeta{{Sep: 0, WAL: "w", Runs: runs(RunMeta{File: "t"}, RunMeta{File: ".."})}}},
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
		w := binio.NewWriter(nil)
		if err := encodeTombs(w, tombs); err != nil {
			t.Fatalf("n=%d encode: %v", n, err)
		}
		data := w.Buffered()
		got, err := decodeTombs(data, n)
		if err != nil {
			t.Fatalf("n=%d decode: %v", n, err)
		}
		if !reflect.DeepEqual(got, tombs) {
			t.Fatalf("n=%d round trip diverged", n)
		}
		// A count mismatch is corruption, not silent truncation.
		if _, err := decodeTombs(data, n+1); !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("n=%d count mismatch: err = %v, want ErrCorrupt", n, err)
		}
		if n == 0 {
			continue
		}
		// Every single-bit flip must be detected (CRC frame), and
		// nonzero padding bits past count must be rejected.
		for pos := 0; pos < len(data); pos++ {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 0x80
			if _, err := decodeTombs(mut, n); err == nil {
				t.Fatalf("n=%d bit flip at %d decoded without error", n, pos)
			}
		}
	}
}

// testRuns returns the five shapes of run file over 3000 amzn keys: a
// plain run, tombs only, index only, both, and the empty run.
func testRuns(t *testing.T) map[string]Run {
	keys := dataset.MustGenerate(dataset.Amzn, 3000, 17)
	payloads := dataset.Payloads(len(keys), 17)
	tombs := make([]bool, len(keys))
	for i := range tombs {
		tombs[i] = i%3 == 0
	}
	nb, ok := registry.Builder("RMI", keys)
	if !ok {
		t.Fatal("RMI: no builder")
	}
	idx, err := nb.Builder.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Run{
		"plain": {Keys: keys, Payloads: payloads},
		"tombs": {Keys: keys, Payloads: payloads, Tombs: tombs},
		"index": {Keys: keys, Payloads: payloads, Index: idx},
		"both":  {Keys: keys, Payloads: payloads, Tombs: tombs, Index: idx},
		"empty": {},
	}
}

// TestRunRoundTrip: every shape of run file reads back bit-identical
// keys, payloads and tombs, and an index that bounds every probe as the
// built one does.
func TestRunRoundTrip(t *testing.T) {
	for name, want := range testRuns(t) {
		path := filepath.Join(t.TempDir(), name+".run")
		if err := WriteRun(path, want); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, unmap, err := ReadRun(path)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		defer unmap()
		if !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Payloads, want.Payloads) || !slices.Equal(got.Tombs, want.Tombs) {
			t.Fatalf("%s: arrays did not round-trip", name)
		}
		if (got.Tombs == nil) != (want.Tombs == nil) || (got.Index == nil) != (want.Index == nil) {
			t.Fatalf("%s: sections read back as tombs %v, index %v", name, got.Tombs != nil, got.Index != nil)
		}
		if want.Index == nil {
			continue
		}
		for _, x := range indextest.ProbesFor(want.Keys) {
			if g, w := got.Index.Lookup(x), want.Index.Lookup(x); g != w {
				t.Fatalf("%s: key %d: decoded bound %v, built %v", name, x, g, w)
			}
		}
	}
}

// TestRunParsesAtOddOffset: a run file's bytes one past an aligned
// start read back as the same run, through copies of the key and
// payload blocks; from an aligned start, on a little-endian host, the
// arrays are views of the file's bytes.
func TestRunParsesAtOddOffset(t *testing.T) {
	want := testRuns(t)["both"]
	path := filepath.Join(t.TempDir(), "both.run")
	if err := WriteRun(path, want); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, len(file)/8+1)
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	little := binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	for _, off := range []int{1, 0} {
		data := aligned[off : off+len(file)]
		copy(data, file)
		got, err := readRunFrom(data)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Payloads, want.Payloads) || !slices.Equal(got.Tombs, want.Tombs) {
			t.Fatalf("offset %d: arrays did not round-trip", off)
		}
		for _, x := range indextest.ProbesFor(want.Keys) {
			if g, w := got.Index.Lookup(x), want.Index.Lookup(x); g != w {
				t.Fatalf("offset %d: key %d: decoded bound %v, built %v", off, x, g, w)
			}
		}
		start := uintptr(unsafe.Pointer(&data[0]))
		for what, p := range map[string]uintptr{"keys": uintptr(unsafe.Pointer(&got.Keys[0])), "payloads": uintptr(unsafe.Pointer(&got.Payloads[0]))} {
			if inside := p >= start && p < start+uintptr(len(data)); inside != (off == 0 && little) {
				t.Errorf("offset %d: %s view the file's bytes: %v", off, what, inside)
			}
		}
	}
}

// TestRunFlipNamesItsSection flips one byte inside each part of a run
// file that carries both sections: the error must name the part hit.
func TestRunFlipNamesItsSection(t *testing.T) {
	run := testRuns(t)["both"]
	path := filepath.Join(t.TempDir(), "both.run")
	if err := WriteRun(path, run); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, err := OpenFrame(data[:runHeaderLen], runMagic, "run header")
	if err != nil {
		t.Fatal(err)
	}
	head.U64() // count
	keysOff, paysOff := head.U64(), head.U64()
	head.U64() // the two block CRCs
	head.U64()
	tombsOff, tombsLen, indexOff, indexLen := head.U64(), head.U64(), head.U64(), head.U64()
	for _, c := range []struct {
		what string
		pos  uint64
	}{
		{"run header", 40},
		{"keys", keysOff + 100},
		{"payloads", paysOff + 100},
		{"tombs", tombsOff + tombsLen/2},
		{"index", indexOff + indexLen/2},
	} {
		mut := append([]byte(nil), data...)
		mut[c.pos] ^= 0x04
		_, err := readRunFrom(mut)
		if !errors.Is(err, binio.ErrCorrupt) || !strings.Contains(err.Error(), c.what) {
			t.Errorf("flip in the %s at %d: err = %v, want a corrupt-data error naming the %s", c.what, c.pos, err, c.what)
		}
	}
}

// TestRetiredManifestNamed: a manifest of the layout before margins
// became one-byte codes is refused by its magic, and the error names
// that magic.
func TestRetiredManifestNamed(t *testing.T) {
	data := append([]byte("sosdMAN4"), make([]byte, 40)...)
	_, err := decodeManifest(data)
	if !errors.Is(err, binio.ErrCorrupt) || !strings.Contains(err.Error(), "sosdMAN4 is a retired layout") {
		t.Fatalf("err = %v, want a corrupt-data error naming the retired magic", err)
	}
}

func TestManifestCorruption(t *testing.T) {
	m := &Manifest{Family: "RMI", Shards: []ShardMeta{{Sep: 0, Codec: "RMI", WAL: "w",
		Runs: []RunMeta{{Codec: "RMI", File: "t"}}}}}
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
	enc, err := indexEncoder(idx)
	if err != nil {
		return err
	}
	return encodeIndex(w, enc)
}
