package persist

// Table-data serialization: a shard's sorted key array and payload
// array as one block-aligned file. The header block carries the
// element count, the byte offsets of the two data blocks, and a CRC64
// per block, so a loader with an io.ReaderAt can read each array
// directly into its final allocation — no intermediate whole-file
// buffer, no second parse pass — and still verify integrity. On
// little-endian hosts (the wire order) the arrays load zero-copy into
// their backing memory; big-endian hosts fall back to element-wise
// decoding.

import (
	"encoding/binary"
	"hash/crc64"
	"io"
	"os"
	"unsafe"

	"repro/internal/binio"
	"repro/internal/core"
)

// tableBlock is the file alignment unit: the header occupies the first
// block and each data array starts on a block boundary, so direct I/O
// and page-cache reads stay aligned regardless of table size.
const tableBlock = 4096

var tableMagic = []byte("sosdTAB1")

// table header layout, all little-endian, within the first block:
//
//	[8]  magic
//	[4]  format version
//	[8]  count (number of key/payload pairs)
//	[8]  keys block offset
//	[8]  payloads block offset
//	[8]  CRC64 of the keys block bytes
//	[8]  CRC64 of the payloads block bytes
//	[8]  CRC64 of the preceding header bytes
const tableHeaderLen = 8 + 4 + 8 + 8 + 8 + 8 + 8 + 8

var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// u64LEBytes views a uint64 slice as its little-endian byte encoding.
// Zero-copy on little-endian hosts; an explicit encode elsewhere.
func u64LEBytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
	}
	out := make([]byte, 8*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}

func alignBlock(n int64) int64 {
	return (n + tableBlock - 1) / tableBlock * tableBlock
}

// WriteTable atomically writes keys and payloads (parallel arrays) as
// a block-aligned table file.
func WriteTable(path string, keys []core.Key, payloads []uint64) error {
	if len(keys) != len(payloads) {
		return binio.Corruptf("persist: keys/payloads length mismatch")
	}
	keyBytes := u64LEBytes(keys)
	payBytes := u64LEBytes(payloads)
	keysOff := int64(tableBlock)
	paysOff := alignBlock(keysOff + int64(len(keyBytes)))
	if len(keys) == 0 {
		paysOff = keysOff
	}
	crcKeys := crc64.Checksum(keyBytes, binio.CRCTable)
	crcPays := crc64.Checksum(payBytes, binio.CRCTable)
	return AtomicWrite(path, func(w *binio.Writer) error {
		if err := WriteFrame(w, tableMagic, func() error {
			w.U64(uint64(len(keys)))
			w.U64(uint64(keysOff))
			w.U64(uint64(paysOff))
			w.U64(crcKeys)
			w.U64(crcPays)
			return nil
		}); err != nil {
			return err
		}
		// Past the header nothing reads the writer's running CRC, and
		// the blocks' own CRCs are already in the header: write them raw
		// rather than hash every data byte a second time.
		w.Raw(make([]byte, keysOff-w.Len())) // zero padding, under a block
		w.Raw(keyBytes)
		w.Raw(make([]byte, paysOff-w.Len()))
		w.Raw(payBytes)
		return w.Err()
	})
}

// readTableFrom loads a table file through an io.ReaderAt of known
// size: the header block is read and validated, then each data array
// is read directly into its final allocation and checksummed. size
// caps every allocation, so a corrupt count cannot out-allocate the
// file it claims to describe.
func readTableFrom(ra io.ReaderAt, size int64) (keys []core.Key, payloads []uint64, err error) {
	if size < tableHeaderLen {
		return nil, nil, binio.Corruptf("persist: table file too short (%d bytes)", size)
	}
	head := make([]byte, tableHeaderLen)
	if _, err := ra.ReadAt(head, 0); err != nil {
		return nil, nil, err
	}
	r, err := OpenFrame(head, tableMagic, "table header")
	if err != nil {
		return nil, nil, err
	}
	count := r.U64()
	keysOff := int64(r.U64())
	paysOff := int64(r.U64())
	crcKeys := r.U64()
	crcPays := r.U64()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if count > uint64(size)/16 {
		return nil, nil, binio.Corruptf("persist: count %d impossible for %d-byte file", count, size)
	}
	blobLen := int64(count) * 8
	if keysOff < tableHeaderLen || keysOff%tableBlock != 0 || paysOff%tableBlock != 0 ||
		(count > 0 && paysOff < keysOff+blobLen) || paysOff+blobLen > size {
		return nil, nil, binio.Corruptf("persist: table block offsets invalid (keys %d, payloads %d, size %d)", keysOff, paysOff, size)
	}
	if count == 0 {
		return nil, nil, nil
	}
	keys = make([]core.Key, count)
	payloads = make([]uint64, count)
	if err := readU64Block(ra, keysOff, keys, crcKeys); err != nil {
		return nil, nil, err
	}
	if err := readU64Block(ra, paysOff, payloads, crcPays); err != nil {
		return nil, nil, err
	}
	if !core.IsSorted(keys) {
		return nil, nil, binio.Corruptf("persist: table keys not sorted")
	}
	return keys, payloads, nil
}

// readU64Block reads one array's bytes straight into dst's backing
// memory (little-endian hosts) and verifies its checksum.
func readU64Block(ra io.ReaderAt, off int64, dst []uint64, want uint64) error {
	if hostLittleEndian {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst))
		if _, err := ra.ReadAt(b, off); err != nil {
			return err
		}
		if got := crc64.Checksum(b, binio.CRCTable); got != want {
			return binio.Corruptf("persist: table block checksum mismatch")
		}
		return nil
	}
	b := make([]byte, 8*len(dst))
	if _, err := ra.ReadAt(b, off); err != nil {
		return err
	}
	if got := crc64.Checksum(b, binio.CRCTable); got != want {
		return binio.Corruptf("persist: table block checksum mismatch")
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return nil
}

// ReadTable loads a table file from disk via readTableFrom.
func ReadTable(path string) (keys []core.Key, payloads []uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	return readTableFrom(f, st.Size())
}
