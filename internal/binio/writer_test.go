package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"math/rand"
	"testing"
)

// refWriter is the encoder the span-buffered Writer replaced, kept as
// the reference: every primitive is its own Write and its own CRC64
// update. The formats on disk and on the wire are whatever it emits.
type refWriter struct {
	out bytes.Buffer
	crc uint64
}

func (w *refWriter) write(p []byte) {
	w.out.Write(p)
	w.crc = crc64.Update(w.crc, CRCTable, p)
}
func (w *refWriter) Raw(p []byte) { w.out.Write(p) }
func (w *refWriter) U8(v uint8)   { w.write([]byte{v}) }
func (w *refWriter) U32(v uint32) { w.write(binary.LittleEndian.AppendUint32(nil, v)) }
func (w *refWriter) U64(v uint64) { w.write(binary.LittleEndian.AppendUint64(nil, v)) }
func (w *refWriter) Str(s string) { w.U32(uint32(len(s))); w.write([]byte(s)) }

// countingSink counts the Writes it receives and fails the failAt-th
// (1-based; 0 never fails).
type countingSink struct {
	out    bytes.Buffer
	writes int
	failAt int
}

var errSink = errors.New("sink full")

func (s *countingSink) Write(p []byte) (int, error) {
	if s.writes++; s.writes == s.failAt {
		return 0, errSink
	}
	return s.out.Write(p)
}

// payloadSizes straddle the span boundary from both sides.
var payloadSizes = []int{0, 1, 7, 4096, BufSize - 1, BufSize, BufSize + 1, 3*BufSize + 5}

// TestWriterMatchesPerPrimitiveEncoding drives the Writer (over a sink,
// and as an in-memory encoder) and the reference with the same random
// interleavings of primitives, Raw payloads, CRC reads and flushes:
// bytes, running CRC and length must agree at every CRC read and at the
// end.
func TestWriterMatchesPerPrimitiveEncoding(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sink bytes.Buffer
		ws := []*Writer{NewWriter(&sink), NewWriter(nil)}
		ref := &refWriter{}
		payload := func() []byte {
			p := make([]byte, payloadSizes[rng.Intn(len(payloadSizes))])
			rng.Read(p)
			return p
		}
		for op := 0; op < 150; op++ {
			switch k := rng.Intn(12); k {
			case 0:
				v := uint8(rng.Uint32())
				ref.U8(v)
				for _, w := range ws {
					w.U8(v)
				}
			case 1:
				v := rng.Uint32()
				ref.U32(v)
				for _, w := range ws {
					w.U32(v)
				}
			case 2, 3, 4:
				v := rng.Uint64()
				ref.U64(v)
				for i, w := range ws {
					switch (k + i) % 3 {
					case 0:
						w.U64(v)
					case 1:
						w.Bytes(Wire([]uint64{v}))
					default:
						w.F64(math.Float64frombits(v))
					}
				}
			case 5:
				s := string(payload())
				ref.Str(s)
				for _, w := range ws {
					w.Str(s)
				}
			case 6:
				p := payload()
				ref.write(p)
				for _, w := range ws {
					w.Bytes(p)
				}
			case 7:
				p := payload()
				ref.Raw(p)
				for _, w := range ws {
					w.Raw(p)
				}
			case 8: // the trailer every framed artifact ends with
				for _, w := range ws {
					if got := w.Sum64(); got != ref.crc {
						t.Fatalf("seed %d op %d: Sum64 %x, reference %x", seed, op, got, ref.crc)
					}
					w.U64(w.Sum64())
				}
				ref.U64(ref.crc)
			case 9:
				for _, w := range ws {
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			default: // runs of small fields are what the codecs mostly write
				for i := rng.Intn(1500); i > 0; i-- {
					ref.U64(uint64(i))
					for _, w := range ws {
						w.U64(uint64(i))
					}
				}
			}
			for _, w := range ws {
				if w.Len() != int64(ref.out.Len()) {
					t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, w.Len(), ref.out.Len())
				}
			}
		}
		if err := ws[0].Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.Bytes(), ref.out.Bytes()) {
			t.Fatalf("seed %d: sink bytes differ from the per-primitive encoding", seed)
		}
		if !bytes.Equal(ws[1].Buffered(), ref.out.Bytes()) {
			t.Fatalf("seed %d: in-memory bytes differ from the per-primitive encoding", seed)
		}
		if ws[0].Sum64() != ref.crc || ws[1].Sum64() != ref.crc {
			t.Fatalf("seed %d: final CRC %x / %x, reference %x", seed, ws[0].Sum64(), ws[1].Sum64(), ref.crc)
		}
	}
}

// TestWriterSpanBoundary places a field, a Raw payload and a CRC
// trailer across every offset around the end of the first span.
func TestWriterSpanBoundary(t *testing.T) {
	for fill := BufSize - 9; fill <= BufSize+1; fill++ {
		var sink countingSink
		w, ref := NewWriter(&sink), &refWriter{}
		for i := 0; i < fill; i++ {
			w.U8(uint8(i))
			ref.U8(uint8(i))
		}
		w.U64(0x0102030405060708)
		ref.U64(0x0102030405060708)
		w.Raw([]byte{9, 9, 9})
		ref.Raw([]byte{9, 9, 9})
		w.U64(w.Sum64())
		ref.U64(ref.crc)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sink.out.Bytes(), ref.out.Bytes()) {
			t.Fatalf("fill %d: bytes differ from the per-primitive encoding", fill)
		}
		if sink.writes > 2 {
			t.Errorf("fill %d: %d writes for %d bytes, want at most 2", fill, sink.writes, w.Len())
		}
	}
}

// TestWriterLargeRawBypassesTheBuffer: a Raw payload of a span or more
// reaches the sink as the caller's own slice, in one Write.
func TestWriterLargeRawBypassesTheBuffer(t *testing.T) {
	big := make([]byte, 4*BufSize)
	var sink countingSink
	w := NewWriter(&sink)
	w.U32(7)
	w.Raw(big)
	w.U32(8)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.writes != 3 || w.Len() != int64(8+len(big)) {
		t.Errorf("%d writes, Len %d; want 3 writes (header, payload, trailer), Len %d", sink.writes, w.Len(), 8+len(big))
	}
	if cap(w.Buffered()) > 2*BufSize {
		t.Errorf("buffer grew to %d bytes, span is %d", cap(w.Buffered()), BufSize)
	}
}

// TestWriterSinkErrorIsSticky fails each write of a multi-span stream
// in turn: Flush and Err report it, nothing is written after it, and
// the buffer does not grow past a span while the caller keeps encoding.
func TestWriterSinkErrorIsSticky(t *testing.T) {
	for failAt := 1; failAt <= 3; failAt++ {
		sink := countingSink{failAt: failAt}
		w := NewWriter(&sink)
		for i := 0; i < 3*BufSize/8; i++ {
			w.U64(uint64(i))
		}
		if err := w.Flush(); !errors.Is(err, errSink) || !errors.Is(w.Err(), errSink) {
			t.Fatalf("failAt %d: Flush %v, Err %v; want the sink's error", failAt, err, w.Err())
		}
		if sink.writes != failAt || sink.out.Len() != (failAt-1)*BufSize {
			t.Errorf("failAt %d: %d writes, %d bytes accepted; want %d and %d", failAt, sink.writes, sink.out.Len(), failAt, (failAt-1)*BufSize)
		}
		if cap(w.Buffered()) > 2*BufSize {
			t.Errorf("failAt %d: buffer grew to %d bytes after the error", failAt, cap(w.Buffered()))
		}
	}
}

// TestWriterReset: an in-memory encoder reused across messages starts
// each one clean. That reuse allocates nothing is the work ledger's
// binio.reused_writer_allocs row (internal/ledger).
func TestWriterReset(t *testing.T) {
	var w Writer
	w.U64(1)
	w.Raw([]byte{1})
	w.Reset()
	w.U32(5)
	var ref refWriter
	ref.U32(5)
	if !bytes.Equal(w.Buffered(), ref.out.Bytes()) || w.Sum64() != ref.crc || w.Len() != 4 {
		t.Errorf("after Reset: bytes %v crc %x len %d", w.Buffered(), w.Sum64(), w.Len())
	}
}
