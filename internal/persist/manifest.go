package persist

// The snapshot manifest: the root artifact of a store snapshot,
// naming every shard's boundary separator, its builder codec tag (the
// deterministic registry config ID that built its base index), its WAL
// file, and its ordered run list — the LSM tier set, oldest (base) run
// first, each run one run file (run.go). The manifest rename is the
// snapshot's commit point — run files and WALs are written first, so a
// crash anywhere leaves either the complete old snapshot or the
// complete new one.

import (
	"bytes"
	"os"

	"repro/internal/binio"
	"repro/internal/core"
)

var manifestMagic = []byte("sosdMAN5")

// retiredManifestMagic opens the manifest of the layout before margins
// became one-byte codes. The manifest is the one version check: a
// snapshot it refuses reaches no index decoder.
var retiredManifestMagic = []byte("sosdMAN4")

// ManifestName is the manifest's file name inside a snapshot directory.
const ManifestName = "MANIFEST"

// RunMeta describes one persisted sorted run of a shard's tier set.
type RunMeta struct {
	// Codec is the registry config ID ("family" or "family/label") of
	// the builder that produced the run's index. Its family part
	// selects the decode codec; the label lets a rebuild re-select the
	// exact catalog entry.
	Codec string
	// File is the run file's name inside the snapshot directory (see
	// WriteRun).
	File string
}

// ShardMeta describes one persisted shard.
type ShardMeta struct {
	// Sep is the first key owned by the shard (the store's boundary
	// metadata, identical to serve.Store's separator array).
	Sep core.Key
	// Codec is the registry config ID of the shard's base-index
	// builder — the identity a rebuild or re-tune starts from. It
	// normally equals Runs[0].Codec; they differ only when the base
	// index was rebuilt under a configuration the catalog no longer
	// produces.
	Codec string
	// WAL is the shard's write-ahead-log file name inside the snapshot
	// directory.
	WAL string
	// Runs is the shard's tier set, oldest run first: Runs[0] is the
	// base run (never tombstoned: Open refuses a base run file that
	// carries tombstones), later runs are newer and shadow earlier
	// ones. Every shard has at least the base run.
	Runs []RunMeta
}

// Manifest is a complete snapshot description.
type Manifest struct {
	// Family is the store-level default index family (serve.Config.Family).
	Family string
	// Gen is the commit generation: every manifest commit writes its
	// shard files under fresh generation-suffixed names and bumps Gen,
	// so a crash mid-commit can never pair files of different
	// generations — the old manifest still names the complete old set.
	Gen    uint64
	Shards []ShardMeta
}

// minShardWire and minRunWire are the smallest possible encoded shard
// and run entries, used as allocation guards for the two counts.
const (
	minShardWire = 8 + 4 + 4 + 4 + minRunWire
	minRunWire   = 2 * 4
)

// encodeManifest writes the manifest with the standard frame: magic,
// version, body, trailing CRC64.
func encodeManifest(w *binio.Writer, m *Manifest) error {
	return WriteFrame(w, manifestMagic, func() error {
		w.Str(m.Family)
		w.U64(m.Gen)
		w.U32(uint32(len(m.Shards)))
		for _, s := range m.Shards {
			w.U64(s.Sep)
			w.Str(s.Codec)
			w.Str(s.WAL)
			w.U32(uint32(len(s.Runs)))
			for _, run := range s.Runs {
				w.Str(run.Codec)
				w.Str(run.File)
			}
		}
		return nil
	})
}

// decodeManifest parses and validates a manifest image.
func decodeManifest(data []byte) (*Manifest, error) {
	if bytes.HasPrefix(data, retiredManifestMagic) {
		return nil, binio.Corruptf("persist: manifest magic %s is a retired layout, whose RMI knot leaves and PGM data segments held 16-bit margin codes; this build reads only %s: rebuild the snapshot", retiredManifestMagic, manifestMagic)
	}
	r, err := OpenFrame(data, manifestMagic, "manifest")
	if err != nil {
		return nil, err
	}
	m := &Manifest{Family: r.Str(maxTagLen)}
	m.Gen = r.U64()
	n := r.Count(minShardWire)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, binio.Corruptf("persist: manifest has no shards")
	}
	m.Shards = make([]ShardMeta, n)
	for i := range m.Shards {
		s := &m.Shards[i]
		s.Sep = r.U64()
		s.Codec = r.Str(maxTagLen)
		s.WAL = r.Str(maxTagLen)
		nr := r.Count(minRunWire)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if nr < 1 {
			return nil, binio.Corruptf("persist: shard %d has no runs", i)
		}
		s.Runs = make([]RunMeta, nr)
		for j := range s.Runs {
			run := &s.Runs[j]
			run.Codec = r.Str(maxTagLen)
			run.File = r.Str(maxTagLen)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, binio.Corruptf("persist: %d trailing bytes after manifest", r.Remaining())
	}
	for i := range m.Shards {
		s := &m.Shards[i]
		if i > 0 && s.Sep <= m.Shards[i-1].Sep {
			return nil, binio.Corruptf("persist: shard separators not increasing at %d", i)
		}
		if s.WAL == "" {
			return nil, binio.Corruptf("persist: shard %d missing wal file name", i)
		}
		if !safeFileName(s.WAL) {
			return nil, binio.Corruptf("persist: shard %d file name %q escapes the snapshot directory", i, s.WAL)
		}
		for j, run := range s.Runs {
			if run.File == "" {
				return nil, binio.Corruptf("persist: shard %d run %d missing file name", i, j)
			}
			if !safeFileName(run.File) {
				return nil, binio.Corruptf("persist: shard %d file name %q escapes the snapshot directory", i, run.File)
			}
		}
	}
	return m, nil
}

// safeFileName accepts only bare names: a manifest must not be able to
// point the loader outside its own directory.
func safeFileName(name string) bool {
	if name == "." || name == ".." {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == '\\' || name[i] == 0 {
			return false
		}
	}
	return true
}

// WriteManifest atomically commits the manifest to path.
func WriteManifest(path string, m *Manifest) error {
	return AtomicWrite(path, func(w *binio.Writer) error { return encodeManifest(w, m) })
}

// ReadManifest loads and validates the manifest at path.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(data)
}
