package binio

// Framed-message transport: the length-prefixed, checksummed envelope
// shared by every consumer that moves binio-encoded payloads across a
// byte stream (the network serving front end in internal/net; any
// future log-shipping path). A framed message on the wire is
//
//	u32 n  | n bytes body | u64 CRC64(body)
//
// so a receiver can size its read before touching the body, and a
// corrupt or truncated frame is an ErrCorrupt error, never a panic or
// an unbounded allocation — the same contract the persistence decoders
// already hold.

import (
	"encoding/binary"
	"hash/crc64"
	"io"
)

// WriteFramed writes body to w as one framed message. The body bytes
// are written exactly once; the checksum is computed here, so callers
// hand over raw encoded bytes and nothing else.
func WriteFramed(w io.Writer, body []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], crc64.Checksum(body, CRCTable))
	_, err := w.Write(tail[:])
	return err
}

// ReadFramed reads one framed message from r, reusing buf when it is
// large enough, and returns the verified body (a view into the
// returned buffer, valid until the next reuse). A length prefix beyond
// maxBody, a short read past the prefix, or a checksum mismatch is an
// ErrCorrupt error; an io.EOF before any prefix byte is returned as
// io.EOF so stream consumers can tell a clean close from a torn frame.
func ReadFramed(r io.Reader, buf []byte, maxBody int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, Corruptf("frame prefix: %v", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 0 || n > maxBody {
		return nil, Corruptf("frame length %d exceeds limit %d", n, maxBody)
	}
	need := n + 8
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, Corruptf("frame body: %v", err)
	}
	body := buf[:n]
	want := binary.LittleEndian.Uint64(buf[n:])
	if got := crc64.Checksum(body, CRCTable); got != want {
		return nil, Corruptf("frame checksum mismatch: got %016x want %016x", got, want)
	}
	return body, nil
}
