package obs

import "repro/internal/persist"

// RegisterPersist binds the persistence layer's process-wide I/O
// counters (snapshot bytes, WAL bytes and appends, fsyncs, and the run
// bytes opened into the heap or mapped) into r as scrape-time counters. Call at most once per registry.
func RegisterPersist(r *Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("sosd_persist_snapshot_bytes_total", func() float64 {
		return float64(persist.CountersNow().SnapshotBytes)
	})
	r.CounterFunc("sosd_persist_wal_bytes_total", func() float64 {
		return float64(persist.CountersNow().WALBytes)
	})
	r.CounterFunc("sosd_persist_wal_appends_total", func() float64 {
		return float64(persist.CountersNow().WALAppends)
	})
	r.CounterFunc("sosd_persist_fsyncs_total", func() float64 {
		return float64(persist.CountersNow().Fsyncs)
	})
	r.CounterFunc("sosd_persist_run_heap_bytes_total", func() float64 {
		return float64(persist.CountersNow().RunHeapBytes)
	})
	r.CounterFunc("sosd_persist_run_mapped_bytes_total", func() float64 {
		return float64(persist.CountersNow().RunMappedBytes)
	})
}
