package persist

// Per-shard write-ahead log: a fixed-header file followed by
// fixed-size, individually-CRC'd records, one per Put/Delete. Appends
// go straight to the OS (group-commit durability is the caller's
// choice via Sync); replay walks records until the first torn or
// corrupt one, which a crash mid-append produces, and truncates the
// tail so later appends extend a clean log. Truncation-at-compaction
// is a whole-file swap: a fresh log seeded with the surviving delta is
// committed over the old one with the same temp+fsync+rename
// discipline as every other artifact.

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/binio"
	"repro/internal/core"
)

var walMagic = []byte("sosdWAL1")

const (
	walHeaderLen = 8 + 4 + 4 // magic, version, reserved
	walRecordLen = 1 + 3 + 8 + 8 + 4

	opPut    = 1
	opDelete = 2
)

// walCRC is CRC32-Castagnoli — per-record checksums only need to catch
// torn writes, and the short polynomial keeps appends cheap.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// Op is one logged write.
type Op struct {
	Key  core.Key
	Val  uint64
	Tomb bool
}

// WAL is an open, append-only write-ahead log.
type WAL struct {
	f *os.File
	n int // records in the log (replayed + appended)
}

func encodeRecord(buf []byte, op Op) {
	code := byte(opPut)
	if op.Tomb {
		code = opDelete
	}
	buf[0] = code
	buf[1], buf[2], buf[3] = 0, 0, 0
	binary.LittleEndian.PutUint64(buf[4:], op.Key)
	binary.LittleEndian.PutUint64(buf[12:], op.Val)
	binary.LittleEndian.PutUint32(buf[20:], crc32.Checksum(buf[:20], walCRC))
}

func decodeRecord(buf []byte) (Op, bool) {
	want := binary.LittleEndian.Uint32(buf[20:])
	if crc32.Checksum(buf[:20], walCRC) != want {
		return Op{}, false
	}
	code := buf[0]
	if code != opPut && code != opDelete || buf[1] != 0 || buf[2] != 0 || buf[3] != 0 {
		return Op{}, false
	}
	return Op{
		Key:  binary.LittleEndian.Uint64(buf[4:]),
		Val:  binary.LittleEndian.Uint64(buf[12:]),
		Tomb: code == opDelete,
	}, true
}

// replayWAL parses a log image: the ops of every intact record in
// order, plus the byte length of the intact prefix. A torn or corrupt
// tail ends replay without error (that is what a crash leaves behind);
// a bad header is corruption.
func replayWAL(data []byte) (ops []Op, validLen int64, err error) {
	if len(data) < walHeaderLen {
		return nil, 0, binio.Corruptf("persist: wal shorter than header")
	}
	r := binio.NewReader(data)
	if string(r.Bytes(len(walMagic))) != string(walMagic) {
		return nil, 0, binio.Corruptf("persist: bad wal magic")
	}
	if v := r.U32(); v != formatVersion {
		return nil, 0, binio.Corruptf("persist: wal format version %d, want %d", v, formatVersion)
	}
	r.U32() // reserved
	off := int64(walHeaderLen)
	rest := data[walHeaderLen:]
	for len(rest) >= walRecordLen {
		op, ok := decodeRecord(rest[:walRecordLen])
		if !ok {
			break
		}
		ops = append(ops, op)
		rest = rest[walRecordLen:]
		off += walRecordLen
	}
	return ops, off, nil
}

// CreateWAL atomically commits a fresh log at path containing the seed
// ops (the pending delta a snapshot or compaction leaves live) and
// returns it open for appends.
func CreateWAL(path string, seed []Op) (*WAL, error) {
	f, err := commitFile(path, direct, &walBytes, seedWAL(seed))
	if err != nil {
		return nil, err
	}
	return &WAL{f: f, n: len(seed)}, nil
}

// seedWAL encodes a fresh log: the header, then one record per op.
func seedWAL(seed []Op) func(w *binio.Writer) error {
	return func(w *binio.Writer) error {
		w.Bytes(walMagic)
		w.U32(formatVersion)
		w.U32(0)
		var buf [walRecordLen]byte
		for _, op := range seed {
			encodeRecord(buf[:], op)
			w.Bytes(buf[:])
		}
		return nil
	}
}

// OpenWAL opens an existing log, replays its intact records, truncates
// any torn tail, and returns the log positioned for appends. The
// replay reads through the same handle appends will use — one open,
// one pass.
func OpenWAL(path string) (*WAL, []Op, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	ops, validLen, err := replayWAL(data)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if validLen < int64(len(data)) {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &WAL{f: f, n: len(ops)}, ops, nil
}

// Append logs one write. The record reaches the OS before Append
// returns; call Sync for storage durability.
func (w *WAL) Append(op Op) error {
	var buf [walRecordLen]byte
	encodeRecord(buf[:], op)
	if _, err := w.f.Write(buf[:]); err != nil {
		return err
	}
	w.n++
	walAppends.Add(1)
	walBytes.Add(walRecordLen)
	return nil
}

// Sync fsyncs the log.
func (w *WAL) Sync() error {
	fsyncs.Add(1)
	return w.f.Sync()
}

// Len reports the record count (replayed plus appended).
func (w *WAL) Len() int { return w.n }

// Close syncs and closes the log.
func (w *WAL) Close() error {
	fsyncs.Add(1)
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
