// Package repl is the replication subsystem: a primary tails each
// shard's committed write-ahead log plus its live appends and streams
// them to followers over the framed wire protocol; followers bootstrap
// from a shipped snapshot generation, replay the WAL tail into a
// read-only serve.Store, then apply the live stream; a range-aware
// router fans GetBatch across replicas as per-shard sub-batches,
// tracks per-replica lag, and on primary loss promotes the
// most-caught-up follower.
//
// Sequence numbers are per shard and per primary incarnation: a fresh
// primary draws a random epoch and numbers each shard's writes 1, 2,
// 3, … in the exact order they took effect (the hook runs under the
// shard's write lock). A follower's durable position is the
// (epoch, per-shard seq) vector in its REPLSTATE file, written only
// after its own WAL is synced — it may undercount what the store
// already holds, never overcount, so the re-streamed suffix replays
// convergently (last-write-wins ops are idempotent under in-order
// replay).
package repl

import (
	"crypto/rand"
	"encoding/binary"
	"sync"

	"repro/internal/persist"
)

// DefaultRingOps bounds one shard's in-memory stream ring. A follower
// that falls more than a ring behind is told to resync (bootstrap from
// a fresh snapshot) instead of the primary buffering unboundedly.
const DefaultRingOps = 1 << 16

// Log is the primary's stream source: one in-memory op ring per shard,
// fed by the store's WriteHook. Appends assign the per-shard sequence numbers the
// whole subsystem is ordered by.
type Log struct {
	epoch   uint64
	ringCap int

	mu      sync.Mutex
	notifyC chan struct{} // non-nil only while a streamer waits
	shards  []logShard
}

// logShard is one shard's ring: the op with sequence base+k+1 is at
// ops[(head+k) % len(ops)], so base is the seq of the last evicted (or
// zero) record and base+len the last assigned. ops grows on demand up
// to the ring's capacity; from then on an append overwrites the oldest
// op in place (head is 0 until then).
type logShard struct {
	base uint64
	head int
	ops  []persist.Op
}

// push appends op, evicting the oldest op once the ring holds ringCap.
func (s *logShard) push(op persist.Op, ringCap int) {
	if len(s.ops) < ringCap {
		if len(s.ops) == cap(s.ops) { // grow, but never past the ring
			s.ops = append(make([]persist.Op, 0, min(max(2*cap(s.ops), 64), ringCap)), s.ops...)
		}
		s.ops = append(s.ops, op)
		return
	}
	s.ops[s.head] = op
	s.base++
	if s.head++; s.head == len(s.ops) {
		s.head = 0
	}
}

// NewLog creates a stream log for a store with the given shard count,
// under a fresh random epoch (a primary incarnation identity: a
// follower subscribed under another epoch must resync).
func NewLog(shards int) *Log {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("repl: no entropy for epoch: " + err.Error())
	}
	e := binary.LittleEndian.Uint64(b[:])
	if e == 0 {
		e = 1
	}
	return &Log{epoch: e, ringCap: DefaultRingOps, shards: make([]logShard, shards)}
}

// numShards reports the per-shard ring count.
func (l *Log) numShards() int { return len(l.shards) }

// Hook adapts the log to serve.Config.WriteHook: every write the store
// applies is appended to its shard's ring in apply order.
func (l *Log) Hook() func(shard int, op persist.Op) {
	return func(shard int, op persist.Op) { l.append(shard, op) }
}

// append assigns the next sequence number of shard's stream to op and
// returns it, waking any waiting streamer.
func (l *Log) append(shard int, op persist.Op) uint64 {
	l.mu.Lock()
	s := &l.shards[shard]
	s.push(op, l.ringCap)
	seq := s.base + uint64(len(s.ops))
	ch := l.notifyC
	l.notifyC = nil
	l.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	return seq
}

// Seqs snapshots the last assigned sequence number per shard.
func (l *Log) Seqs() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, len(l.shards))
	for i := range l.shards {
		out[i] = l.shards[i].base + uint64(len(l.shards[i].ops))
	}
	return out
}

// seqOf reports shard's last assigned sequence number. Safe to call
// from a SnapshotWith capture callback: the callback holds the shard's
// write lock, so the value is exactly the stream position the captured
// state corresponds to.
func (l *Log) seqOf(shard int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.shards[shard]
	return s.base + uint64(len(s.ops))
}

// tailFrom copies out shard's ops with sequence numbers in
// (from, from+maxOps]. ok=false means from precedes the ring (the ops
// were evicted): the subscriber must resync from a snapshot.
func (l *Log) tailFrom(shard int, from uint64, maxOps int) (ops []persist.Op, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.shards[shard]
	if from < s.base {
		return nil, false
	}
	start := int(from - s.base)
	if start >= len(s.ops) {
		return nil, true
	}
	n := len(s.ops) - start
	if maxOps > 0 && n > maxOps {
		n = maxOps
	}
	ops = make([]persist.Op, n)
	at := (s.head + start) % len(s.ops)
	if k := copy(ops, s.ops[at:]); k < n { // wrapped: the rest is at the front
		copy(ops[k:], s.ops)
	}
	return ops, true
}

// updated returns a channel closed by the next Append — the streamer's
// wait point between drained tails.
func (l *Log) updated() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.notifyC == nil {
		l.notifyC = make(chan struct{})
	}
	return l.notifyC
}
