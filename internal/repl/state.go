package repl

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/binio"
	"repro/internal/persist"
)

// stateName is the follower's durable-position file inside its replica
// directory, committed with the same temp+fsync+rename discipline as
// every other persisted artifact.
const stateName = "REPLSTATE"

var stateMagic = []byte("sosdREP1")

// maxStateShards guards the decode allocation; mirrors the wire
// protocol's shard-vector bound.
const maxStateShards = 4096

// state is a follower's durable replication position: the primary
// epoch it is subscribed under, the snapshot generation it bootstrapped
// from, and the per-shard sequence numbers applied AND synced to its
// own WAL. It is written only after SyncWAL, so it never overestimates
// what the store durably holds — a crash replays a suffix, never skips
// one.
type state struct {
	epoch uint64
	gen   uint64
	seqs  []uint64
}

// writeState atomically commits s as dir's REPLSTATE.
func writeState(dir string, s *state) error {
	if len(s.seqs) > maxStateShards {
		return fmt.Errorf("repl: state has %d shards, limit %d", len(s.seqs), maxStateShards)
	}
	return persist.AtomicWrite(filepath.Join(dir, stateName), func(w *binio.Writer) error {
		return persist.WriteFrame(w, stateMagic, func() error {
			w.U64(s.epoch)
			w.U64(s.gen)
			binio.PutSlice(w, s.seqs)
			return nil
		})
	})
}

// readState loads and validates dir's REPLSTATE. A missing file is
// returned as os.ErrNotExist (a fresh follower); a corrupt one is an
// error — the caller resyncs from scratch.
func readState(dir string) (*state, error) {
	data, err := os.ReadFile(filepath.Join(dir, stateName))
	if err != nil {
		return nil, err
	}
	r, err := persist.OpenFrame(data, stateMagic, "repl state")
	if err != nil {
		return nil, err
	}
	s := &state{epoch: r.U64(), gen: r.U64()}
	n := r.Count(8)
	if n > maxStateShards {
		return nil, binio.Corruptf("repl: state shard count %d exceeds %d", n, maxStateShards)
	}
	if n > 0 {
		s.seqs = binio.GetArray[uint64](r, n)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, binio.Corruptf("repl: %d trailing bytes in state file", r.Remaining())
	}
	return s, nil
}
