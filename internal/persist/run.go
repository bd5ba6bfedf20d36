package persist

// The run file: one sorted run of a shard's tier set — its key and
// payload arrays, its tombstone bits and its encoded index — as one
// block-aligned file, written and committed once. The header block
// carries the pair count, the byte offsets of the two data blocks with
// a CRC64 each, and the offset and length of two optional trailing
// sections: the tombstone bits (a run without deletes has none) and
// the index frame (absent when the family has no codec or the run is
// empty; the loader then rebuilds the index from the keys). Each
// section is a frame of its own, magic and CRC64 included, so a flip
// names the section it hit. The loader verifies the mapped file and
// serves the key and payload arrays from it (binio.Wire out,
// binio.FromWire back: zero-copy on a little-endian host, turned
// number by number elsewhere), so the page cache holds the only copy.

import (
	"hash/crc64"

	"repro/internal/binio"
	"repro/internal/core"
)

// runBlock is the file alignment unit: the header occupies the first
// block and each data array starts on a block boundary, so direct I/O
// and page-cache reads stay aligned regardless of run size.
const runBlock = 4096

var (
	runMagic   = []byte("sosdRUN1")
	tombsMagic = []byte("sosdTMB1")
)

// run header layout, all little-endian, within the first block:
//
//	[8]  magic
//	[4]  format version
//	[8]  count (number of key/payload pairs)
//	[8]  keys block offset
//	[8]  payloads block offset
//	[8]  CRC64 of the keys block bytes
//	[8]  CRC64 of the payloads block bytes
//	[8]  tombs section offset (0 when absent)
//	[8]  tombs section length (0 when absent)
//	[8]  index section offset (0 when absent)
//	[8]  index section length (0 when absent)
//	[8]  CRC64 of the preceding header bytes
//
// The sections follow the payloads block back to back, tombs first.
const runHeaderLen = 8 + 4 + 9*8 + 8

// Run is one sorted run as its file holds it.
type Run struct {
	Keys     []core.Key
	Payloads []uint64
	// Tombs marks pair i a delete when Tombs[i]; nil for a run without
	// tombstones.
	Tombs []bool
	// Index is the run's built index. WriteRun leaves it out when its
	// family has no codec or the run is empty, and ReadRun then returns
	// nil: the caller rebuilds it from Keys.
	Index core.Index
}

func alignBlock(n int64) int64 {
	return (n + runBlock - 1) / runBlock * runBlock
}

// WriteRun atomically writes run as one run file, in one AtomicWrite
// commit.
func WriteRun(path string, run Run) error {
	if len(run.Keys) != len(run.Payloads) || (run.Tombs != nil && len(run.Tombs) != len(run.Keys)) {
		return binio.Corruptf("persist: run arrays differ in length (keys %d, payloads %d, tombs %d)", len(run.Keys), len(run.Payloads), len(run.Tombs))
	}
	// The sections are framed in memory first: the header that leads
	// the file records their lengths.
	var tombs, index []byte
	if run.Tombs != nil {
		w := binio.NewWriter(nil)
		encodeTombs(w, run.Tombs)
		tombs = w.Buffered()
	}
	if len(run.Keys) > 0 && run.Index != nil {
		if enc, err := indexEncoder(run.Index); err == nil { // no codec: rebuilt at load
			w := binio.NewWriter(nil)
			if err := encodeIndex(w, enc); err != nil {
				return err
			}
			index = w.Buffered()
		}
	}
	keyBytes := binio.Wire(run.Keys)
	payBytes := binio.Wire(run.Payloads)
	keysOff := int64(runBlock)
	paysOff := alignBlock(keysOff + int64(len(keyBytes)))
	if len(run.Keys) == 0 {
		paysOff = keysOff
	}
	end := paysOff + int64(len(payBytes))
	section := func(w *binio.Writer, b []byte) {
		if len(b) == 0 {
			w.U64(0)
		} else {
			w.U64(uint64(end))
		}
		w.U64(uint64(len(b)))
		end += int64(len(b))
	}
	crcKeys := crc64.Checksum(keyBytes, binio.CRCTable)
	crcPays := crc64.Checksum(payBytes, binio.CRCTable)
	return AtomicWrite(path, func(w *binio.Writer) error {
		if err := WriteFrame(w, runMagic, func() error {
			w.U64(uint64(len(run.Keys)))
			w.U64(uint64(keysOff))
			w.U64(uint64(paysOff))
			w.U64(crcKeys)
			w.U64(crcPays)
			section(w, tombs)
			section(w, index)
			return nil
		}); err != nil {
			return err
		}
		// Past the header nothing reads the writer's running CRC, and
		// every block and section carries its own: write them raw
		// rather than hash every data byte a second time.
		w.Raw(make([]byte, keysOff-w.Len())) // zero padding, under a block
		w.Raw(keyBytes)
		w.Raw(make([]byte, paysOff-w.Len()))
		w.Raw(payBytes)
		w.Raw(tombs)
		w.Raw(index)
		return w.Err()
	})
}

// ReadRun loads the run file at path via readRunFrom. Where the host
// maps files, the run's keys and payloads are views of the mapped file
// until unmap, which must wait until nothing reads them; elsewhere they
// are heap, as the sections always are, and unmap does nothing.
func ReadRun(path string) (run Run, unmap func(), err error) {
	data, unmap, err := mapFile(path)
	if err == nil {
		run, err = readRunFrom(data)
	}
	served := &runMappedBytes
	if unmap == nil {
		served, unmap = &runHeapBytes, func() {}
	}
	if err != nil {
		unmap()
		return Run{}, nil, err
	}
	served.Add(uint64(len(run.Keys)) * 16)
	return run, unmap, nil
}

// readRunFrom parses a whole run file: the header block is validated,
// each data array checksummed and viewed in place (binio.FromWire),
// then each section present decoded under its own frame. The file's
// size caps every offset and allocation.
func readRunFrom(data []byte) (Run, error) {
	size := int64(len(data))
	if size < runHeaderLen {
		return Run{}, binio.Corruptf("persist: run file too short (%d bytes)", size)
	}
	r, err := OpenFrame(data[:runHeaderLen], runMagic, "run header")
	if err != nil {
		return Run{}, err
	}
	count := r.U64()
	keysOff := int64(r.U64())
	paysOff := int64(r.U64())
	crcKeys := r.U64()
	crcPays := r.U64()
	var sections [2]struct{ off, len uint64 } // tombs, index
	for i := range sections {
		sections[i].off, sections[i].len = r.U64(), r.U64()
	}
	if err := r.Err(); err != nil {
		return Run{}, err
	}
	if count > uint64(size)/16 {
		return Run{}, binio.Corruptf("persist: count %d impossible for %d-byte run file", count, size)
	}
	blobLen := int64(count) * 8
	if keysOff < runHeaderLen || paysOff < keysOff || keysOff%runBlock != 0 || paysOff%runBlock != 0 ||
		(count > 0 && paysOff < keysOff+blobLen) || paysOff > size-blobLen {
		return Run{}, binio.Corruptf("persist: run block offsets invalid (keys %d, payloads %d, size %d)", keysOff, paysOff, size)
	}
	dataEnd := uint64(paysOff + blobLen)
	end := dataEnd
	for _, s := range sections {
		if (s.len == 0 && s.off != 0) || (s.len != 0 && (s.off != end || s.len > uint64(size)-end)) {
			return Run{}, binio.Corruptf("persist: run sections invalid (at %d, %d bytes; payloads end at %d, size %d)", s.off, s.len, end, size)
		}
		end += s.len
	}
	if count == 0 && sections[1].len != 0 {
		return Run{}, binio.Corruptf("persist: empty run carries an index")
	}
	var run Run
	if count > 0 {
		if run.Keys, err = dataBlock[core.Key](data[keysOff:keysOff+blobLen], crcKeys, "keys"); err != nil {
			return Run{}, err
		}
		if run.Payloads, err = dataBlock[uint64](data[paysOff:paysOff+blobLen], crcPays, "payloads"); err != nil {
			return Run{}, err
		}
		if !core.IsSorted(run.Keys) {
			return Run{}, binio.Corruptf("persist: run keys not sorted")
		}
	}
	tombs, index := data[dataEnd:dataEnd+sections[0].len], data[dataEnd+sections[0].len:end]
	if len(tombs) > 0 {
		if run.Tombs, err = decodeTombs(tombs, int(count)); err != nil {
			return Run{}, err
		}
	}
	if len(index) > 0 {
		if run.Index, err = decodeIndex(index); err != nil {
			return Run{}, err
		}
	}
	return run, nil
}

// dataBlock verifies one array block's checksum and views it as the
// array; what names the block in errors.
func dataBlock[E any](b []byte, want uint64, what string) ([]E, error) {
	if crc64.Checksum(b, binio.CRCTable) != want {
		return nil, binio.Corruptf("persist: run %s block checksum mismatch", what)
	}
	return binio.FromWire[E](b), nil
}

// encodeTombs writes the tombstone bits of a run (tombs[i] == pair i
// is a delete marker), packed eight to a byte, with the standard frame.
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

// decodeTombs parses and validates a tombstone section, returning the
// unpacked bit array. count must match the run's pair count; padding
// bits past count must be zero, so the section cannot smuggle
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
