// Package net is the network serving front end: a TCP server that
// fronts a serve.Store behind a length-prefixed binary frame protocol,
// and the matching client. The server coalesces concurrent point
// lookups into single GetBatch rounds against the store (the batched
// fast path built in the serving layer), applies admission control
// with explicit backpressure — a bounded request queue that sheds with
// a RetryLater response instead of queueing without bound — and ships
// its live latency histogram and queue/shed counters to any client in
// one stats frame. See DESIGN.md "Network serving".
//
// Wire format: every message travels as one binio framed message
// (u32 length | body | u64 CRC64 of the body). The body is a binio
// little-endian encoding of one Msg: a type byte, a request id the
// client uses to match responses to in-flight calls (responses may
// arrive out of order: coalescing reorders Gets relative to writes),
// and the type's fields. Corrupt frames are errors that sever the
// connection, never panics — the decoder runs under the same bounded
// Reader contract as the persistence subsystem, and FuzzFrame holds it
// there.
package net

import (
	"io"
	"math"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/stats"
)

const (
	// maxFrameBody bounds any frame body on the wire; a peer claiming
	// more is corrupt (or hostile) and is disconnected.
	maxFrameBody = 1 << 20

	// maxBatch bounds the key count of one GetBatch request — the
	// largest count whose request and response frames both fit
	// maxFrameBody with room to spare.
	maxBatch = 1 << 16

	// maxErrLen bounds an error string on the wire.
	maxErrLen = 4096

	// maxVars bounds a stats frame's registry snapshot (a registry holds
	// tens of series per layer; thousands is corruption), and
	// maxVarNameLen bounds one rendered series id.
	maxVars       = 4096
	maxVarNameLen = 512

	// MaxSnapChunk bounds one snapshot-file chunk on the wire (with
	// frame overhead it sits comfortably inside maxFrameBody).
	MaxSnapChunk = 256 << 10

	// MaxWalOps bounds the op count of one replication wal-batch — the
	// largest count whose 17-byte encodings fit maxFrameBody with room
	// to spare.
	MaxWalOps = 16384

	// maxShards bounds per-shard vectors (sequence numbers, separators)
	// in replication frames; a store has tens of shards, not thousands.
	maxShards = 4096

	// maxSnapNameLen bounds a shipped snapshot file name.
	maxSnapNameLen = 255
)

// Message types. Requests flow client→server, responses server→client.
const (
	msgGet        uint8 = iota + 1 // point lookup: key
	msgGetBatch                    // batched lookup: keys
	msgPut                         // insert/update: key, Val
	msgDelete                      // delete: key
	msgStats                       // server stats snapshot request
	msgValue                       // Get response: Val, Found
	msgValueBatch                  // GetBatch response: vals, foundN
	msgOK                          // Put/Delete ack
	msgRetryLater                  // admission refusal: retry later
	msgError                       // request failed server-side: err
	msgStatsReply                  // stats response: stats

	// Replication stream (see internal/repl): Subscribe..Heartbeat flow
	// on a dedicated follower→primary connection, Topo..Promote on the
	// ordinary serving port.
	MsgSubscribe     // follower→primary: Epoch, Gen, Seqs (applied per shard)
	MsgResync        // primary→follower: state unusable, snapshot follows
	MsgSnapFile      // snapshot chunk: Name, Val (byte offset), Data, Found (last chunk)
	MsgSnapEnd       // bootstrap commit: Epoch, Gen, Seqs (per-shard stream base)
	MsgWalBatch      // live stream: Shard, Seq (of Ops[0]), Ops
	MsgAck           // follower→primary: Seqs received per shard
	MsgHeartbeat     // primary→follower: Epoch, Seqs written per shard
	msgTopo          // request: shard topology
	msgTopoReply     // topology: keys (separators), Gen
	msgReplStat      // request: replication status
	msgReplStatReply // status: role, Epoch, Gen, Seqs
	msgPromote       // request: promote this follower to writable
	msgTypeEnd       // sentinel: first invalid type
)

// Replication roles carried by msgReplStatReply.
const (
	RoleNone     uint8 = iota // server without a replication hook
	RolePrimary               // accepts writes, streams to followers
	RoleFollower              // read-only, applying the stream
	roleEnd                   // sentinel: first invalid role
)

// Msg is one protocol message; Type selects which fields are
// meaningful. One struct for all types keeps encode/decode and the
// fuzz surface in one place — the protocol has eleven small shapes,
// not eleven packages.
type Msg struct {
	Type   uint8
	id     uint64
	key    core.Key
	Val    uint64     // msgPut value; MsgSnapFile byte offset
	Found  bool       // msgValue found bit; MsgSnapFile last-chunk bit
	keys   []core.Key // msgGetBatch; msgTopoReply separators
	vals   []uint64   // msgValueBatch
	foundN uint32     // msgValueBatch: number of keys found
	err    string     // msgError
	stats  *Stats     // msgStatsReply

	// Replication fields.
	Epoch uint64       // primary incarnation (MsgSubscribe, MsgSnapEnd, MsgHeartbeat, msgReplStatReply)
	Gen   uint64       // snapshot generation (MsgSubscribe, MsgSnapEnd, msgTopoReply, msgReplStatReply)
	Shard uint32       // MsgWalBatch
	Seq   uint64       // MsgWalBatch: sequence number of Ops[0]
	Seqs  []uint64     // per-shard sequence vector
	Name  string       // MsgSnapFile
	Data  []byte       // MsgSnapFile chunk payload
	Ops   []persist.Op // MsgWalBatch
	role  uint8        // msgReplStatReply
}

// Stats is the server's live counter snapshot, shipped in a stats
// frame. Counters are cumulative since server start; queueDepth is
// instantaneous.
type Stats struct {
	conns         uint64 // live connections
	Accepted      uint64 // requests admitted past admission control
	Shed          uint64 // requests refused with RetryLater
	ShedConns     uint64 // connections refused at accept (MaxConns)
	DroppedConns  uint64 // connections severed for not draining responses
	Batches       uint64 // coalesced GetBatch rounds executed
	BatchedKeys   uint64 // point lookups served through those rounds
	queueDepth    uint64 // admission-queue occupancy now
	MaxQueueDepth uint64 // high-water admission-queue occupancy

	// Latency is the server-side service-time histogram (ns): frame
	// decode to response enqueue, per accepted request.
	Latency *stats.Histogram

	// Vars is the server's flattened obs registry snapshot (empty when
	// the server runs without a registry), sorted by name — the wire
	// form is canonical, so decode enforces strictly ascending names.
	Vars []obs.Var
}

// Merge folds o into s: counters and occupancy sum, the queue
// high-water takes the max (a summed high-water would claim a depth no
// server saw), latency histograms merge, and vars sum by name. The
// pool-wide truth for multi-connection and multi-server stats.
func (s *Stats) Merge(o *Stats) {
	s.conns += o.conns
	s.Accepted += o.Accepted
	s.Shed += o.Shed
	s.ShedConns += o.ShedConns
	s.DroppedConns += o.DroppedConns
	s.Batches += o.Batches
	s.BatchedKeys += o.BatchedKeys
	s.queueDepth += o.queueDepth
	if o.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = o.MaxQueueDepth
	}
	if o.Latency != nil {
		if s.Latency == nil {
			s.Latency = &stats.Histogram{}
		}
		s.Latency.Merge(o.Latency)
	}
	s.Vars = mergeVars(s.Vars, o.Vars)
}

// mergeVars sums two sorted var lists by name, keeping the result
// sorted. Summing is right for counters and occupancy gauges, the bulk
// of a registry snapshot; per-server readings are one Stats call away.
func mergeVars(a, b []obs.Var) []obs.Var {
	if len(b) == 0 {
		return a
	}
	out := make([]obs.Var, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Name == b[j].Name:
			out = append(out, obs.Var{Name: a[i].Name, Value: a[i].Value + b[j].Value})
			i++
			j++
		case a[i].Name < b[j].Name:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// encodeMsg encodes m's body into w (reset first; it has no sink) and
// returns the body bytes, valid until w's next use.
func encodeMsg(w *binio.Writer, m *Msg) ([]byte, error) {
	w.Reset()
	w.U8(m.Type)
	w.U64(m.id)
	switch m.Type {
	case msgGet:
		w.U64(uint64(m.key))
	case msgGetBatch:
		w.U32(uint32(len(m.keys)))
		for _, k := range m.keys {
			w.U64(uint64(k))
		}
	case msgPut:
		w.U64(uint64(m.key))
		w.U64(m.Val)
	case msgDelete:
		w.U64(uint64(m.key))
	case msgStats, msgOK, msgRetryLater:
		// header only
	case msgValue:
		w.U64(m.Val)
		found := uint8(0)
		if m.Found {
			found = 1
		}
		w.U8(found)
	case msgValueBatch:
		w.U32(m.foundN)
		w.U32(uint32(len(m.vals)))
		for _, v := range m.vals {
			w.U64(v)
		}
	case msgError:
		w.Str(m.err)
	case msgStatsReply:
		s := m.stats
		w.U64(s.conns)
		w.U64(s.Accepted)
		w.U64(s.Shed)
		w.U64(s.ShedConns)
		w.U64(s.DroppedConns)
		w.U64(s.Batches)
		w.U64(s.BatchedKeys)
		w.U64(s.queueDepth)
		w.U64(s.MaxQueueDepth)
		s.Latency.EncodeTo(w)
		if len(s.Vars) > maxVars {
			return nil, binio.Corruptf("encode: %d vars exceeds limit %d", len(s.Vars), maxVars)
		}
		w.U32(uint32(len(s.Vars)))
		for i, v := range s.Vars {
			// The wire form is canonical (FuzzFrame re-encodes decoded
			// frames byte-for-byte), so the sorted-ascending invariant is
			// enforced on both sides.
			if len(v.Name) > maxVarNameLen || (i > 0 && v.Name <= s.Vars[i-1].Name) {
				return nil, binio.Corruptf("encode: vars not strictly ascending by name")
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return nil, binio.Corruptf("encode: non-finite var %q", v.Name)
			}
			w.Str(v.Name)
			w.F64(v.Value)
		}
	case MsgSubscribe:
		w.U64(m.Epoch)
		w.U64(m.Gen)
		if err := encodeSeqs(w, m.Seqs); err != nil {
			return nil, err
		}
	case MsgResync, msgTopo, msgReplStat, msgPromote:
		// header only
	case MsgSnapFile:
		if len(m.Name) == 0 || len(m.Name) > maxSnapNameLen {
			return nil, binio.Corruptf("encode: snap file name length %d out of range", len(m.Name))
		}
		if len(m.Data) > MaxSnapChunk {
			return nil, binio.Corruptf("encode: snap chunk of %d bytes exceeds limit %d", len(m.Data), MaxSnapChunk)
		}
		w.Str(m.Name)
		w.U64(m.Val)
		last := uint8(0)
		if m.Found {
			last = 1
		}
		w.U8(last)
		w.U32(uint32(len(m.Data)))
		w.Bytes(m.Data)
	case MsgSnapEnd:
		w.U64(m.Epoch)
		w.U64(m.Gen)
		if err := encodeSeqs(w, m.Seqs); err != nil {
			return nil, err
		}
	case MsgWalBatch:
		if len(m.Ops) > MaxWalOps {
			return nil, binio.Corruptf("encode: wal batch of %d ops exceeds limit %d", len(m.Ops), MaxWalOps)
		}
		w.U32(m.Shard)
		w.U64(m.Seq)
		w.U32(uint32(len(m.Ops)))
		for _, op := range m.Ops {
			tomb := uint8(0)
			if op.Tomb {
				tomb = 1
			}
			w.U8(tomb)
			w.U64(uint64(op.Key))
			w.U64(op.Val)
		}
	case MsgAck:
		if err := encodeSeqs(w, m.Seqs); err != nil {
			return nil, err
		}
	case MsgHeartbeat:
		w.U64(m.Epoch)
		if err := encodeSeqs(w, m.Seqs); err != nil {
			return nil, err
		}
	case msgTopoReply:
		w.U64(m.Gen)
		if len(m.keys) > maxShards {
			return nil, binio.Corruptf("encode: %d separators exceed limit %d", len(m.keys), maxShards)
		}
		w.U32(uint32(len(m.keys)))
		for i, k := range m.keys {
			// Separators strictly increase by construction; the wire form
			// is canonical, so the invariant is enforced on both sides.
			if i > 0 && k <= m.keys[i-1] {
				return nil, binio.Corruptf("encode: separators not strictly ascending")
			}
			w.U64(uint64(k))
		}
	case msgReplStatReply:
		if m.role >= roleEnd {
			return nil, binio.Corruptf("encode: unknown role %d", m.role)
		}
		w.U8(m.role)
		w.U64(m.Epoch)
		w.U64(m.Gen)
		if err := encodeSeqs(w, m.Seqs); err != nil {
			return nil, err
		}
	default:
		return nil, binio.Corruptf("encode: unknown message type %d", m.Type)
	}
	return w.Buffered(), nil
}

// encodeSeqs writes a bounded per-shard sequence vector.
func encodeSeqs(w *binio.Writer, seqs []uint64) error {
	if len(seqs) > maxShards {
		return binio.Corruptf("encode: %d shard seqs exceed limit %d", len(seqs), maxShards)
	}
	binio.PutSlice(w, seqs)
	return nil
}

// decodeSeqs reads a bounded per-shard sequence vector.
func decodeSeqs(r *binio.Reader) ([]uint64, error) {
	n := r.Count(8)
	if n > maxShards {
		return nil, binio.Corruptf("%d shard seqs exceed limit %d", n, maxShards)
	}
	if n == 0 {
		return nil, r.Err()
	}
	return binio.GetArray[uint64](r, n), r.Err()
}

// decodeMsg parses one message body. The returned Msg owns its memory:
// slices and strings are copied out of body, which the transport
// reuses for the next frame. Every count is bounds-checked through the
// binio Reader before it sizes an allocation.
func decodeMsg(body []byte) (*Msg, error) {
	r := binio.NewReader(body)
	m := &Msg{Type: r.U8(), id: r.U64()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if m.Type == 0 || m.Type >= msgTypeEnd {
		return nil, binio.Corruptf("decode: unknown message type %d", m.Type)
	}
	switch m.Type {
	case msgGet, msgDelete:
		m.key = core.Key(r.U64())
	case msgGetBatch:
		n := r.Count(8)
		if n > maxBatch {
			return nil, binio.Corruptf("batch of %d keys exceeds limit %d", n, maxBatch)
		}
		m.keys = make([]core.Key, n)
		for i := range m.keys {
			m.keys[i] = core.Key(r.U64())
		}
	case msgPut:
		m.key = core.Key(r.U64())
		m.Val = r.U64()
	case msgStats, msgOK, msgRetryLater:
		// header only
	case msgValue:
		m.Val = r.U64()
		switch r.U8() {
		case 0:
		case 1:
			m.Found = true
		default:
			if r.Err() == nil {
				return nil, binio.Corruptf("found flag out of range")
			}
		}
	case msgValueBatch:
		m.foundN = r.U32()
		n := r.Count(8)
		if n > maxBatch {
			return nil, binio.Corruptf("batch of %d values exceeds limit %d", n, maxBatch)
		}
		if int(m.foundN) > n {
			return nil, binio.Corruptf("found count %d exceeds batch %d", m.foundN, n)
		}
		m.vals = make([]uint64, n)
		for i := range m.vals {
			m.vals[i] = r.U64()
		}
	case msgError:
		m.err = r.Str(maxErrLen)
	case msgStatsReply:
		s := &Stats{
			conns:         r.U64(),
			Accepted:      r.U64(),
			Shed:          r.U64(),
			ShedConns:     r.U64(),
			DroppedConns:  r.U64(),
			Batches:       r.U64(),
			BatchedKeys:   r.U64(),
			queueDepth:    r.U64(),
			MaxQueueDepth: r.U64(),
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		h, err := stats.DecodeHistogram(r)
		if err != nil {
			return nil, err
		}
		s.Latency = h
		nv := r.Count(12) // 4-byte name length + 8-byte value at minimum
		if nv > maxVars {
			return nil, binio.Corruptf("%d vars exceeds limit %d", nv, maxVars)
		}
		if nv > 0 {
			s.Vars = make([]obs.Var, nv)
			for i := range s.Vars {
				s.Vars[i] = obs.Var{Name: r.Str(maxVarNameLen), Value: r.FiniteF64()}
				if r.Err() == nil && i > 0 && s.Vars[i].Name <= s.Vars[i-1].Name {
					return nil, binio.Corruptf("vars not strictly ascending by name")
				}
			}
		}
		m.stats = s
	case MsgSubscribe, MsgSnapEnd:
		m.Epoch = r.U64()
		m.Gen = r.U64()
		seqs, err := decodeSeqs(r)
		if err != nil {
			return nil, err
		}
		m.Seqs = seqs
	case MsgResync, msgTopo, msgReplStat, msgPromote:
		// header only
	case MsgSnapFile:
		m.Name = r.Str(maxSnapNameLen)
		if r.Err() == nil && len(m.Name) == 0 {
			return nil, binio.Corruptf("empty snap file name")
		}
		m.Val = r.U64()
		switch r.U8() {
		case 0:
		case 1:
			m.Found = true
		default:
			if r.Err() == nil {
				return nil, binio.Corruptf("last-chunk flag out of range")
			}
		}
		n := r.Count(1)
		if n > MaxSnapChunk {
			return nil, binio.Corruptf("snap chunk of %d bytes exceeds limit %d", n, MaxSnapChunk)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if n > 0 {
			m.Data = append([]byte(nil), r.Bytes(n)...)
		}
	case MsgWalBatch:
		m.Shard = r.U32()
		m.Seq = r.U64()
		n := r.Count(17)
		if n > MaxWalOps {
			return nil, binio.Corruptf("wal batch of %d ops exceeds limit %d", n, MaxWalOps)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		// A batch carries positions Seq .. Seq+n-1, and a follower acks
		// and resumes from the last. Positions start at 1, and with no
		// ops the last would be Seq-1, 2^64-1 at Seq 0.
		if n == 0 || m.Seq == 0 {
			return nil, binio.Corruptf("wal batch of %d ops at seq %d", n, m.Seq)
		}
		m.Ops = make([]persist.Op, n)
		for i := range m.Ops {
			switch r.U8() {
			case 0:
			case 1:
				m.Ops[i].Tomb = true
			default:
				if r.Err() == nil {
					return nil, binio.Corruptf("tombstone flag out of range")
				}
			}
			m.Ops[i].Key = core.Key(r.U64())
			m.Ops[i].Val = r.U64()
		}
	case MsgAck:
		seqs, err := decodeSeqs(r)
		if err != nil {
			return nil, err
		}
		m.Seqs = seqs
	case MsgHeartbeat:
		m.Epoch = r.U64()
		seqs, err := decodeSeqs(r)
		if err != nil {
			return nil, err
		}
		m.Seqs = seqs
	case msgTopoReply:
		m.Gen = r.U64()
		n := r.Count(8)
		if n > maxShards {
			return nil, binio.Corruptf("%d separators exceed limit %d", n, maxShards)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if n > 0 {
			m.keys = make([]core.Key, n)
			for i := range m.keys {
				m.keys[i] = core.Key(r.U64())
				if r.Err() == nil && i > 0 && m.keys[i] <= m.keys[i-1] {
					return nil, binio.Corruptf("separators not strictly ascending")
				}
			}
		}
	case msgReplStatReply:
		m.role = r.U8()
		if r.Err() == nil && m.role >= roleEnd {
			return nil, binio.Corruptf("unknown role %d", m.role)
		}
		m.Epoch = r.U64()
		m.Gen = r.U64()
		seqs, err := decodeSeqs(r)
		if err != nil {
			return nil, err
		}
		m.Seqs = seqs
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, binio.Corruptf("%d trailing bytes after message", r.Remaining())
	}
	return m, nil
}

// WriteMsg encodes m and writes it as one framed message, using buf as
// the encode scratch (a sinkless Writer, its zero value included).
// Callers serialize access to (w, buf). Exported, like ReadMsg, for the
// replication subsystem, whose streaming connections speak the same
// frame protocol outside the Server's request/response loop.
func WriteMsg(w io.Writer, buf *binio.Writer, m *Msg) error {
	body, err := encodeMsg(buf, m)
	if err != nil {
		return err
	}
	return binio.WriteFramed(w, body)
}

// ReadMsg reads and decodes one framed message, reusing scratch; it
// returns the (possibly grown) scratch for the next call.
func ReadMsg(r io.Reader, scratch []byte) (*Msg, []byte, error) {
	body, err := binio.ReadFramed(r, scratch, maxFrameBody)
	if err != nil {
		return nil, scratch, err
	}
	m, err := decodeMsg(body)
	if cap(body) > cap(scratch) {
		scratch = body[:cap(body)]
	}
	return m, scratch, err
}
