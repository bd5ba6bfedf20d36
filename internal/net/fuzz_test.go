package net

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/stats"
)

// seedMsgs returns one representative message per protocol type.
func seedMsgs() []*Msg {
	h := &stats.Histogram{}
	h.Record(1500)
	h.Record(90_000)
	h.Record(2_500_000)
	return []*Msg{
		{Type: msgGet, id: 1, key: 42},
		{Type: msgGetBatch, id: 2, keys: []core.Key{1, 5, 9, 1 << 40}},
		{Type: msgPut, id: 3, key: 7, Val: 700},
		{Type: msgDelete, id: 4, key: 7},
		{Type: msgStats, id: 5},
		{Type: msgValue, id: 6, Val: 700, Found: true},
		{Type: msgValue, id: 7, Val: 0, Found: false},
		{Type: msgValueBatch, id: 8, foundN: 2, vals: []uint64{3, 0, 9}},
		{Type: msgOK, id: 9},
		{Type: msgRetryLater, id: 10},
		{Type: msgError, id: 11, err: "shard 3: index rebuild in progress"},
		{Type: msgStatsReply, id: 12, stats: &Stats{
			conns: 2, Accepted: 100, Shed: 3, Batches: 10, BatchedKeys: 60,
			queueDepth: 1, MaxQueueDepth: 17, Latency: h.Snapshot(),
		}},
		{Type: msgStatsReply, id: 13, stats: &Stats{
			conns: 1, Accepted: 42, Latency: h.Snapshot(),
			Vars: []obs.Var{
				{Name: "sosd_net_accepted_total", Value: 42},
				{Name: `sosd_shard_runs{shard="0"}`, Value: 3},
				{Name: "sosd_store_read_amp", Value: 1.75},
			},
		}},
		{Type: MsgSubscribe, id: 14, Epoch: 0xfeed, Gen: 3, Seqs: []uint64{12, 0, 7, 99}},
		{Type: MsgSubscribe, id: 15, Epoch: 1, Gen: 0}, // fresh follower: no seqs
		{Type: MsgResync, id: 16},
		{Type: MsgSnapFile, id: 17, Name: "shard-0001-g000003-r00.tab", Val: 262144,
			Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: MsgSnapFile, id: 18, Name: "MANIFEST", Val: 0, Found: true, Data: []byte("x")},
		{Type: MsgSnapEnd, id: 19, Epoch: 0xfeed, Gen: 3, Seqs: []uint64{100, 200}},
		{Type: MsgWalBatch, id: 20, Shard: 2, Seq: 101, Ops: []persist.Op{
			{Key: 5, Val: 50}, {Key: 9, Tomb: true},
		}},
		{Type: MsgAck, id: 21, Seqs: []uint64{101, 0}},
		{Type: MsgHeartbeat, id: 22, Epoch: 0xfeed, Seqs: []uint64{103, 4}},
		{Type: msgTopo, id: 23},
		{Type: msgTopoReply, id: 24, Gen: 3, keys: []core.Key{1 << 20, 1 << 40, 1 << 60}},
		{Type: msgReplStat, id: 25},
		{Type: msgReplStatReply, id: 26, role: RoleFollower, Epoch: 0xfeed, Gen: 3,
			Seqs: []uint64{101, 4}},
		{Type: msgPromote, id: 27},
	}
}

// seedFrame encodes m as a framed wire message (length|body|crc).
func seedFrame(tb testing.TB, m *Msg) []byte {
	tb.Helper()
	var body binio.Writer
	var framed bytes.Buffer
	b, err := encodeMsg(&body, m)
	if err != nil {
		tb.Fatalf("encode seed type %d: %v", m.Type, err)
	}
	if err := binio.WriteFramed(&framed, b); err != nil {
		tb.Fatal(err)
	}
	return framed.Bytes()
}

// FuzzFrame is the satellite fuzz target over wire-frame decoding. The
// first byte routes: 0 feeds the payload straight to the message
// decoder (the frame layer already stripped), anything else runs the
// full framed path — binio.ReadFramed then decodeMsg — exactly as the
// server's reader loop does. The contract under fuzz: an error or a
// well-formed message, never a panic; and anything that decodes must
// re-encode (the server echoes decoded ids back, so a decoded message
// re-enters the encoder).
func FuzzFrame(f *testing.F) {
	for _, m := range seedMsgs() {
		frame := seedFrame(f, m)
		f.Add(append([]byte{1}, frame...))
		f.Add(append([]byte{0}, frame[4:len(frame)-8]...)) // bare body
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0x7f}) // huge length prefix
	// A wal batch with no ops at seq 0, which must not decode.
	f.Add(append([]byte{1}, seedFrame(f, &Msg{Type: MsgWalBatch})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, payload := data[0], data[1:]
		var m *Msg
		var err error
		if sel == 0 {
			m, err = decodeMsg(payload)
		} else {
			var body []byte
			body, err = binio.ReadFramed(bytes.NewReader(payload), nil, maxFrameBody)
			if err == nil {
				m, err = decodeMsg(body)
			}
		}
		if err != nil {
			if m != nil {
				t.Fatalf("decoder returned both a message and an error: %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("decoder returned nil message with nil error")
		}
		// Structural invariants the rest of the stack relies on.
		if m.Type == 0 || m.Type >= msgTypeEnd {
			t.Fatalf("decoded message has invalid type %d", m.Type)
		}
		if m.Type == msgValueBatch && int(m.foundN) > len(m.vals) {
			t.Fatalf("decoded foundN %d > %d vals", m.foundN, len(m.vals))
		}
		if m.Type == msgStatsReply && m.stats.Latency == nil {
			t.Fatal("decoded stats reply without histogram")
		}
		// Round-trip: a decoded message is always re-encodable, and the
		// re-encoding decodes back to the same wire bytes.
		var buf binio.Writer
		body, err := encodeMsg(&buf, m)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		if sel == 0 && !bytes.Equal(body, payload) {
			t.Fatalf("re-encode diverged from wire bytes for type %d", m.Type)
		}
	})
}

// fuzzCorpus is the checked-in seed corpus under testdata/fuzz/FuzzFrame
// as the encoder writes it now: file name -> fuzz input.
func fuzzCorpus(t *testing.T) map[string][]byte {
	corpus := map[string][]byte{}
	for _, m := range seedMsgs() {
		frame := seedFrame(t, m)
		name := "type-" + strconv.Itoa(int(m.Type)) + "-id-" + strconv.FormatUint(m.id, 10)
		corpus["framed-"+name] = append([]byte{1}, frame...)
		corpus["body-"+name] = append([]byte{0}, frame[4:len(frame)-8]...)
		// Keep the error paths in the corpus: a truncation and a CRC-
		// breaking bit flip per type.
		corpus["trunc-"+name] = append([]byte{1}, frame[:len(frame)/2]...)
		flipped := append([]byte{1}, frame...)
		flipped[len(flipped)-4] ^= 0x10
		corpus["flip-"+name] = flipped
	}
	return corpus
}

func corpusFile(data []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
}

// TestDecodeRejectsEmptyWalBatch: a wal batch with no ops, or one
// starting at seq 0, is corrupt. A follower computes the last position
// of a batch as Seq+len(Ops)-1 and acks it, so an empty batch at seq 0
// would ack, store and resubscribe from 2^64-1.
func TestDecodeRejectsEmptyWalBatch(t *testing.T) {
	op := []persist.Op{{Key: 5, Val: 50}}
	for _, m := range []*Msg{
		{Type: MsgWalBatch},
		{Type: MsgWalBatch, Seq: 7},
		{Type: MsgWalBatch, Seq: 0, Ops: op},
	} {
		frame := seedFrame(t, m)
		if got, err := decodeMsg(frame[4 : len(frame)-8]); err == nil {
			t.Errorf("seq %d, %d ops: decoded to %+v, want an error", m.Seq, len(m.Ops), got)
		}
	}
	frame := seedFrame(t, &Msg{Type: MsgWalBatch, Seq: 1, Ops: op})
	if _, err := decodeMsg(frame[4 : len(frame)-8]); err != nil {
		t.Errorf("one op at seq 1: %v", err)
	}
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz when NET_WRITE_CORPUS=1 — run it after a protocol
// change and commit the result so `go test -fuzz` always starts from
// valid frames of the current version.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("NET_WRITE_CORPUS") == "" {
		t.Skip("set NET_WRITE_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fuzzCorpus(t) {
		if err := os.WriteFile(filepath.Join(dir, name), corpusFile(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEncoderMatchesCheckedInCorpus holds encodeMsg to the frames in
// testdata/fuzz, one of every message type, committed when the encoder
// still paid one buffer write and one CRC update per field: how a body
// is assembled may change, its bytes may not (a protocol change
// regenerates them, see TestWriteFuzzCorpus).
func TestEncoderMatchesCheckedInCorpus(t *testing.T) {
	seeded := map[uint8]bool{}
	for _, m := range seedMsgs() {
		seeded[m.Type] = true
	}
	for typ := uint8(1); typ < msgTypeEnd; typ++ {
		if !seeded[typ] {
			t.Errorf("message type %d has no seed frame in the corpus", typ)
		}
	}
	for name, data := range fuzzCorpus(t) {
		have, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzFrame", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(have, corpusFile(data)) {
			t.Errorf("%s: encodeMsg no longer writes the checked-in bytes", name)
		}
	}
}
