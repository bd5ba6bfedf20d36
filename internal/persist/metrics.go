package persist

// Package-wide I/O accounting. The persistence layer is a library with
// no registry dependency (obs imports nothing below stats, and persist
// must stay importable from obs-free code), so the counters live here
// as plain atomics and internal/obs binds them into a registry with
// scrape-time funcs.

import "sync/atomic"

var (
	snapshotBytes  atomic.Uint64
	walBytes       atomic.Uint64
	walAppends     atomic.Uint64
	fsyncs         atomic.Uint64
	runHeapBytes   atomic.Uint64
	runMappedBytes atomic.Uint64
)

// Counters is a snapshot of the package-wide I/O accounting, cumulative
// since process start (the persistence layer is file-path-oriented, so
// the counters aggregate across every store in the process).
type Counters struct {
	SnapshotBytes  uint64 // bytes committed through the atomic-write path
	WALBytes       uint64 // bytes appended to write-ahead logs (seeds included)
	WALAppends     uint64 // records appended via WAL.Append
	Fsyncs         uint64 // file and directory fsyncs issued
	RunHeapBytes   uint64 // run key and payload bytes ReadRun served from the heap
	RunMappedBytes uint64 // ... and from its mapped run file
}

// CountersNow reads the current I/O counters.
func CountersNow() Counters {
	return Counters{
		SnapshotBytes:  snapshotBytes.Load(),
		WALBytes:       walBytes.Load(),
		WALAppends:     walAppends.Load(),
		Fsyncs:         fsyncs.Load(),
		RunHeapBytes:   runHeapBytes.Load(),
		RunMappedBytes: runMappedBytes.Load(),
	}
}
