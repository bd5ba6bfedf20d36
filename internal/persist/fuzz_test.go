package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/rmi"
)

// fuzzKeys is the small key set the seed corpus encodes over.
func fuzzKeys() []core.Key {
	return dataset.MustGenerate(dataset.Amzn, 400, 99)
}

// codecFamilies lists every registered family with a codec, sorted:
// FuzzDecode's selector byte k routes to the k-th of them.
func codecFamilies() []string {
	var fams []string
	for _, fam := range registry.Families() {
		if _, ok := registry.CodecFor(fam); ok {
			fams = append(fams, fam)
		}
	}
	return fams
}

// seedIndexFrames returns one encoded index frame per codec family.
func seedIndexFrames(tb testing.TB) map[string][]byte {
	keys := fuzzKeys()
	out := map[string][]byte{}
	for _, family := range codecFamilies() {
		nb, ok := registry.Builder(family, keys)
		if !ok {
			tb.Fatalf("%s: no builder", family)
		}
		idx, err := nb.Builder.Build(keys)
		if err != nil {
			tb.Fatalf("%s: %v", family, err)
		}
		buf := binio.NewWriter(nil)
		if err := EncodeIndex(buf, idx); err != nil {
			tb.Fatalf("%s: encode: %v", family, err)
		}
		out[family] = buf.Buffered()
	}
	return out
}

// FuzzDecode feeds arbitrary bytes to every index decoder: the first
// byte routes to the framed decodeIndex path (0) or directly into one
// family's codec decoder, and the rest is the payload. The contract
// under fuzz: an error or a structurally usable index — never a panic,
// never an allocation beyond the input's own size class.
func FuzzDecode(f *testing.F) {
	frames := seedIndexFrames(f)
	families := codecFamilies()
	for _, fam := range families {
		f.Add(append([]byte{0}, frames[fam]...))
	}
	for fi, fam := range families {
		// Raw codec payload: strip the frame header (magic, version,
		// tag) and trailing checksum to seed the direct decoder path.
		frame := frames[fam]
		body := frame[8+4+4+len(fam) : len(frame)-8]
		f.Add(append([]byte{byte(fi + 1)}, body...))
	}
	f.Add([]byte{})
	// Lookups across the key space: every power of two, one below each,
	// and the largest key.
	probes := []core.Key{^core.Key(0)}
	for s := range 64 {
		probes = append(probes, 1<<s, 1<<s-1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, payload := data[0], data[1:]
		var idx core.Index
		var err error
		if sel == 0 {
			idx, err = decodeIndex(payload)
		} else {
			decode, _ := registry.CodecFor(families[int(sel-1)%len(families)])
			idx, err = decode(binio.NewReader(payload))
		}
		if err != nil {
			if idx != nil {
				t.Fatalf("decoder returned both an index and an error: %v", err)
			}
			return
		}
		if idx == nil {
			t.Fatal("decoder returned nil index with nil error")
		}
		// A successfully decoded index must survive lookups across the
		// key space without panicking and produce ordered bounds.
		for _, x := range probes {
			b := idx.Lookup(x)
			if b.Lo < 0 || b.Lo > b.Hi {
				t.Fatalf("decoded index produced malformed bound %v for %d", b, x)
			}
		}
		_ = idx.SizeBytes()
	})
}

// FuzzWAL feeds arbitrary bytes to the WAL replayer.
func FuzzWAL(f *testing.F) {
	seed := encodeSeedWAL(f, []Op{{Key: 1, Val: 2}, {Key: 3, Tomb: true}})
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // torn tail
	f.Add([]byte("sosdWAL1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, validLen, err := replayWAL(data)
		if err != nil {
			return
		}
		if validLen < walHeaderLen || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [header, %d]", validLen, len(data))
		}
		// Replay is deterministic and the valid prefix replays to the
		// same ops.
		ops2, validLen2, err2 := replayWAL(data[:validLen])
		if err2 != nil || validLen2 != validLen || len(ops2) != len(ops) {
			t.Fatalf("replay of valid prefix diverged: %v, %d vs %d ops", err2, len(ops2), len(ops))
		}
	})
}

func encodeSeedWAL(tb testing.TB, ops []Op) []byte {
	tb.Helper()
	dir := tb.(interface{ TempDir() string }).TempDir()
	path := filepath.Join(dir, "seed.wal")
	w, err := CreateWAL(path, ops)
	if err != nil {
		tb.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// seedRuns returns the run files the FuzzTable seeds start from, over
// fuzzKeys: a plain run, and one carrying both sections (tombstone bits
// and an RMI index frame).
func seedRuns(tb testing.TB) (plain, sections []byte) {
	keys := fuzzKeys()
	payloads := make([]uint64, len(keys))
	tombs := make([]bool, len(keys))
	for i := range payloads {
		payloads[i], tombs[i] = uint64(i), i%3 == 0
	}
	nb, ok := registry.Builder("RMI", keys)
	if !ok {
		tb.Fatal("RMI: no builder")
	}
	idx, err := nb.Builder.Build(keys)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.(interface{ TempDir() string }).TempDir()
	file := func(name string, run Run) []byte {
		path := filepath.Join(dir, name)
		if err := WriteRun(path, run); err != nil {
			tb.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return file("plain.run", Run{Keys: keys, Payloads: payloads}),
		file("sections.run", Run{Keys: keys, Payloads: payloads, Tombs: tombs, Index: idx})
}

// FuzzTable feeds arbitrary bytes to the run-file loader: an error, or
// parallel arrays of sorted keys whose tombs and index, where present,
// fit them — never a panic, never an allocation beyond the file's size.
func FuzzTable(f *testing.F) {
	_, seed := seedRuns(f)
	f.Add(seed)
	f.Add(seed[:4096])
	f.Add([]byte("sosdRUN1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := readRunFrom(data)
		if err != nil {
			return
		}
		if len(run.Keys) != len(run.Payloads) || (run.Tombs != nil && len(run.Tombs) != len(run.Keys)) {
			t.Fatalf("arrays diverged: %d keys, %d payloads, %d tombs", len(run.Keys), len(run.Payloads), len(run.Tombs))
		}
		if !core.IsSorted(run.Keys) {
			t.Fatal("loader returned unsorted keys")
		}
		if run.Index != nil {
			for _, x := range run.Keys {
				if b := run.Index.Lookup(x); b.Lo < 0 || b.Lo > b.Hi {
					t.Fatalf("decoded index produced malformed bound %v for %d", b, x)
				}
			}
		}
	})
}

// FuzzManifest feeds arbitrary bytes to the manifest decoder; a
// successful decode must re-encode to a byte-identical manifest.
func FuzzManifest(f *testing.F) {
	m := &Manifest{
		Family: "PGM",
		Shards: []ShardMeta{
			{Sep: 0, Codec: "PGM/eps=64", WAL: "shard-0000.wal", Runs: []RunMeta{
				{Codec: "PGM/eps=64", File: "shard-0000-r00.run"},
				{Codec: "BS", File: "shard-0000-r01.run"},
			}},
			{Sep: 9999, Codec: "PGM/eps=64", WAL: "shard-0001.wal", Runs: []RunMeta{
				{Codec: "PGM/eps=64", File: "shard-0001-r00.run"},
			}},
		},
	}
	buf := binio.NewWriter(nil)
	if err := encodeManifest(buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Buffered())
	f.Add([]byte("sosdMAN5"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeManifest(data)
		if err != nil {
			return
		}
		re := binio.NewWriter(nil)
		if err := encodeManifest(re, got); err != nil {
			t.Fatalf("re-encode of decoded manifest failed: %v", err)
		}
		if !bytes.Equal(re.Buffered(), data) {
			t.Fatalf("manifest round-trip not byte-identical")
		}
	})
}

// FuzzTombs feeds arbitrary bytes to the tombstone-bit decoder at a
// few plausible run sizes.
func FuzzTombs(f *testing.F) {
	tombs := make([]bool, 37)
	for i := range tombs {
		tombs[i] = i%3 == 0
	}
	buf := binio.NewWriter(nil)
	if err := encodeTombs(buf, tombs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Buffered())
	f.Add([]byte("sosdTMB1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, count := range []int{0, 1, 37, 64, 4096} {
			got, err := decodeTombs(data, count)
			if err != nil {
				continue
			}
			if len(got) != count {
				t.Fatalf("decoded %d bits for count %d", len(got), count)
			}
		}
	})
}

// fuzzCorpus is the checked-in seed corpus under testdata/fuzz, as the
// encoders write it now: target/name -> input bytes.
func fuzzCorpus(t *testing.T) map[string][]byte {
	corpus := map[string][]byte{}
	write := func(target, name string, data []byte) {
		corpus[filepath.Join(target, name)] = append([]byte(nil), data...)
	}
	frames := seedIndexFrames(t)
	families := codecFamilies()
	for fi, fam := range families {
		write("FuzzDecode", "frame-"+fam, append([]byte{0}, frames[fam]...))
		frame := frames[fam]
		body := frame[8+4+4+len(fam) : len(frame)-8]
		write("FuzzDecode", "raw-"+fam, append([]byte{byte(fi + 1)}, body...))
		// A truncated and a bit-flipped variant per family keep the
		// error paths in the corpus too.
		write("FuzzDecode", "trunc-"+fam, append([]byte{0}, frames[fam][:len(frames[fam])/2]...))
		flipped := append([]byte{0}, frames[fam]...)
		flipped[len(flipped)/2] ^= 0x20
		write("FuzzDecode", "flip-"+fam, flipped)
	}
	// The mid rung over the seed keys keeps the RMI's 16-byte linear
	// leaf, so the 6-byte knot leaf gets a raw seed of its own: the tuner
	// picks it over the same keys at B = 8.
	keys := fuzzKeys()
	knot, err := rmi.New(keys, rmi.TuneBranch(keys, 8))
	if err != nil {
		t.Fatal(err)
	}
	kbuf := binio.NewWriter(nil)
	if err := knot.Encode(kbuf); err != nil {
		t.Fatal(err)
	}
	if stride := knot.Arrays()[1].Elem; stride != 6 {
		t.Fatalf("the RMI tuned at B = 8 over the seed keys has leaf stride %d, want the knot leaf's 6", stride)
	}
	write("FuzzDecode", "raw-RMI-knot", append([]byte{byte(slices.Index(families, "RMI") + 1)}, kbuf.Buffered()...))

	wal := encodeSeedWAL(t, []Op{{Key: 7, Val: 8}, {Key: 9, Tomb: true}, {Key: 10, Val: 11}})
	write("FuzzWAL", "clean", wal)
	write("FuzzWAL", "torn", wal[:len(wal)-9])
	flippedWAL := append([]byte(nil), wal...)
	flippedWAL[walHeaderLen+walRecordLen+4] ^= 1
	write("FuzzWAL", "flipped", flippedWAL)

	plain, sections := seedRuns(t)
	write("FuzzTable", "clean", plain)
	write("FuzzTable", "trunc", plain[:5000])
	write("FuzzTable", "sections", sections)

	mbuf := binio.NewWriter(nil)
	m := &Manifest{Family: "RMI", Shards: []ShardMeta{{Sep: 0, Codec: "RMI/rmi[linear,linear,B=64]", WAL: "shard-0000.wal", Runs: []RunMeta{
		{Codec: "RMI/rmi[linear,linear,B=64]", File: "shard-0000-r00.run"},
		{Codec: "BS", File: "shard-0000-r01.run"},
	}}}}
	if err := encodeManifest(mbuf, m); err != nil {
		t.Fatal(err)
	}
	write("FuzzManifest", "clean", mbuf.Buffered())

	tbuf := binio.NewWriter(nil)
	tombs := make([]bool, 37)
	for i := range tombs {
		tombs[i] = i%3 == 0
	}
	if err := encodeTombs(tbuf, tombs); err != nil {
		t.Fatal(err)
	}
	write("FuzzTombs", "clean", tbuf.Buffered())
	return corpus
}

func corpusFile(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz when PERSIST_WRITE_CORPUS=1 — run it after a format
// change and commit the result so `go test -fuzz` always starts from
// valid artifacts of the current version.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("PERSIST_WRITE_CORPUS") == "" {
		t.Skip("set PERSIST_WRITE_CORPUS=1 to regenerate testdata/fuzz")
	}
	for name, data := range fuzzCorpus(t) {
		path := filepath.Join("testdata", "fuzz", name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, corpusFile(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Println("fuzz corpus regenerated")
}

// TestEncodersMatchCheckedInCorpus holds every writer to the bytes in
// testdata/fuzz: an index frame per codec family, a seeded WAL, run
// files with and without sections, a manifest and a tombstone bitmap.
// The frames and the WAL were committed when each primitive was still
// its own write and its own CRC update. A change to how bytes leave
// (buffering, CRC folding) must reproduce them exactly; a change of
// format regenerates them (see TestWriteFuzzCorpus).
func TestEncodersMatchCheckedInCorpus(t *testing.T) {
	for name, data := range fuzzCorpus(t) {
		have, err := os.ReadFile(filepath.Join("testdata", "fuzz", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(have, corpusFile(data)) {
			t.Errorf("%s: the encoder no longer writes the checked-in bytes", name)
		}
	}
}

// checkedInSeed reads a FuzzDecode seed from testdata: its selector
// byte, then its payload.
func checkedInSeed(t *testing.T, name string) []byte {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := bytes.CutPrefix(file, []byte("go test fuzz v1\n[]byte("))
	quoted, ok2 := bytes.CutSuffix(quoted, []byte(")\n"))
	seed, err := strconv.Unquote(string(quoted))
	if !ok || !ok2 || err != nil || len(seed) == 0 {
		t.Fatalf("%s is not a fuzz corpus file: %v", name, err)
	}
	return []byte(seed)
}

// TestBadPosSeedDecodesToError: FuzzDecode/badpos-PGM is osm 20k keys
// at eps=4 (levels 1131/65/2) in the layout of a segment count, then
// key, slope and pos arrays, per level, with the top level's first
// slope set to 1e30
// and its second position to 1<<30, so every key above the first is
// sent to segment 1<<30 of a 65-segment level. Decode once took such a
// payload and Lookup then indexed past the level; it must be named
// corrupt. No encoder writes it, so fuzzCorpus does not regenerate it.
func TestBadPosSeedDecodesToError(t *testing.T) {
	seed := checkedInSeed(t, "badpos-PGM")
	families := codecFamilies()
	if fam := families[int(seed[0]-1)%len(families)]; fam != "PGM" {
		t.Fatalf("badpos-PGM selects the %s decoder", fam)
	}
	decode, _ := registry.CodecFor("PGM")
	idx, err := decode(binio.NewReader(seed[1:]))
	if idx != nil || !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("badpos-PGM decoded to (%v, %v), want a corrupt-data error on its positions", idx, err)
	}
	t.Log(err)
}

// TestRetiredCubicSeedDecodesToNamedError: FuzzDecode/retired-RMI-cubic
// is the raw payload an RMI with a cubic stage 1 had before that kind
// was retired (the seed keys at rmi[cubic,linear,B=8], c2 and c3
// nonzero). Decode must refuse it with an error that names the kind.
// No encoder writes it, so fuzzCorpus does not regenerate it.
func TestRetiredCubicSeedDecodesToNamedError(t *testing.T) {
	seed := checkedInSeed(t, "retired-RMI-cubic")
	families := codecFamilies()
	if fam := families[int(seed[0]-1)%len(families)]; fam != "RMI" {
		t.Fatalf("retired-RMI-cubic selects the %s decoder", fam)
	}
	decode, _ := registry.CodecFor("RMI")
	idx, err := decode(binio.NewReader(seed[1:]))
	if idx != nil || !errors.Is(err, binio.ErrCorrupt) || !strings.Contains(err.Error(), "cubic") {
		t.Fatalf("retired-RMI-cubic decoded to (%v, %v), want a corrupt-data error naming the cubic kind", idx, err)
	}
}

// TestBrokenSeedsDecodeToError: every codec family's trunc- and flip-
// seed, its index frame cut in half or with one bit flipped, decodes to
// a corrupt-data error, so the corpus keeps an error path per family.
func TestBrokenSeedsDecodeToError(t *testing.T) {
	for _, fam := range codecFamilies() {
		for _, name := range []string{"trunc-" + fam, "flip-" + fam} {
			seed := checkedInSeed(t, name)
			if idx, err := decodeIndex(seed[1:]); seed[0] != 0 || idx != nil || !errors.Is(err, binio.ErrCorrupt) {
				t.Errorf("%s (selector %d) decoded to (%v, %v), want a corrupt-data error", name, seed[0], idx, err)
			}
		}
	}
}
