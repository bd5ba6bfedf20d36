package obs

import (
	"sync"
	"time"
)

// DefaultJournalCap is the event journal's default ring capacity.
const DefaultJournalCap = 1024

// Event is one write-path decision: a delta flush, a minor (tier)
// merge, or a major merge, with the inputs the tiering policy saw when
// it chose. Dur is nanoseconds, the work prices key visits: a merge is a
// major exactly when ExtraWork <= WindowOps * ProbeWork.
type Event struct {
	Seq        uint64        `json:"seq"`
	Time       time.Time     `json:"time"`
	Shard      int           `json:"shard"`
	Kind       string        `json:"kind"` // "flush", "minor", or "major"
	RunsBefore int           `json:"runs_before"`
	RunsAfter  int           `json:"runs_after"`
	Keys       int           `json:"keys"` // keys written by this stage
	Dur        time.Duration `json:"dur_ns"`
	ReadAmp    float64       `json:"read_amp"`   // measured window amp at the decision
	WindowOps  int64         `json:"window_ops"` // lookups in the window
	ExtraWork  int64         `json:"extra_work"` // what a major rewrites and fits beyond a minor
	ProbeWork  int64         `json:"probe_work"` // keys a read compares in the run a major saves probing
}

// Journal is a bounded in-memory ring of write-path events: appends
// past the capacity evict the oldest event, so a long-running server
// holds the most recent history at fixed memory. Appends take a
// mutex — they ride compactions, which run for milliseconds, never the
// read path. A nil *Journal is valid and drops everything.
type Journal struct {
	mu     sync.Mutex
	buf    []Event
	head   int // index of the oldest event when full
	seq    uint64
	counts map[string]uint64
}

// NewJournal returns a journal holding the most recent capacity
// events; capacity <= 0 uses DefaultJournalCap.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{buf: make([]Event, 0, capacity), counts: map[string]uint64{}}
}

// Append records one event, evicting the oldest when full. The
// journal assigns Seq and stamps Time if unset.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	j.counts[e.Kind]++
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, e)
		return
	}
	j.buf[j.head] = e
	j.head = (j.head + 1) % len(j.buf)
}

// Events returns the retained events oldest-first, as an independent
// copy.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.buf))
	out = append(out, j.buf[j.head:]...)
	out = append(out, j.buf[:j.head]...)
	return out
}

// Total reports the number of events ever appended (retained or
// evicted).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Count reports the number of events of one kind ever appended.
func (j *Journal) Count(kind string) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.counts[kind]
}

// evicted reports how many events the ring has dropped.
func (j *Journal) evicted() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq - uint64(len(j.buf))
}
