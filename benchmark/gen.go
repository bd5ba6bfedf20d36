package main

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/load"
)

// Everything the program under test receives is made here: key sets and
// payloads, and from the seed the lookup streams and write streams, each
// with the answer the oracle expects.

// keySetSeed generates the key sets and payloads. They are the
// benchmark's fixed data, as the dataset files are the paper's: lookup
// time on one dataset name varies by a factor of 1.8 from one generated
// instance to the next, and the runs of a comparison use different seeds,
// so a key set derived from the run's seed would put that factor into
// the spread of every timing. The run's seed derives the streams.
const keySetSeed = 1

// keySet is one generated dataset with its payloads.
type keySet struct {
	name     dataset.Name
	keys     []core.Key
	payloads []uint64
	checksum uint64 // dataset.Checksum(keys), printed as the input's identity
}

func genKeySet(name dataset.Name, n int) (*keySet, error) {
	keys, err := dataset.Generate(name, n, keySetSeed)
	if err != nil {
		return nil, err
	}
	return &keySet{name: name, keys: keys, payloads: dataset.Payloads(n, keySetSeed), checksum: dataset.Checksum(keys)}, nil
}

// readPool is a lookup stream over present keys: keys[i] must read back
// want[i]. Workers cycle through it in batches.
type readPool struct {
	keys []core.Key
	want []uint64 // nil when only the batch sums are checked
	sums []uint64 // per batch of readBatch keys: the sum of the expected payloads, the checksum a batch must produce
}

const readBatch = 256

// identity is the key set 0..n-1. Sampling lookups from it yields
// positions, so that a stream knows the payload each key must return.
func identity(n int) []core.Key {
	ident := make([]core.Key, n)
	for i := range ident {
		ident[i] = core.Key(i)
	}
	return ident
}

// newReadPool builds the stream that visits ks at the given positions.
// perKey keeps the expected payload of every key, for workloads whose
// reads race with writes and are checked one by one.
func newReadPool(ks *keySet, positions []core.Key, perKey bool) *readPool {
	m := len(positions) / readBatch * readBatch
	p := &readPool{keys: make([]core.Key, m), sums: make([]uint64, m/readBatch)}
	if perKey {
		p.want = make([]uint64, m)
	}
	for i, at := range positions[:m] {
		p.keys[i] = ks.keys[at]
		p.sums[i/readBatch] += ks.payloads[at]
		if perKey {
			p.want[i] = ks.payloads[at]
		}
	}
	return p
}

// zipfPool samples m present keys under the scrambled zipfian(0.99)
// distribution of dataset.ZipfLookups; uniformPool samples them
// uniformly, the paper's lookup workload.
func zipfPool(ks *keySet, ident []core.Key, m int, seed uint64, perKey bool) *readPool {
	return newReadPool(ks, dataset.ZipfLookups(ident, m, zipfTheta, seed), perKey)
}

func uniformPool(ks *keySet, ident []core.Key, m int, seed uint64) *readPool {
	return newReadPool(ks, dataset.Lookups(ident, m, seed), false)
}

const zipfTheta = 0.99

// checksum fingerprints the stream, for the same-seed-same-inputs test
// and the run's metadata.
func (p *readPool) checksum() uint64 { return dataset.Checksum(p.keys) }

// block returns the b-th block of size keys (a multiple of readBatch)
// with the sum its payloads must add up to, wrapping around.
func (p *readPool) block(b, size int) (keys []core.Key, sum uint64) {
	per := size / readBatch
	b %= len(p.sums) / per
	for _, s := range p.sums[b*per : (b+1)*per] {
		sum += s
	}
	return p.keys[b*size : (b+1)*size], sum
}

// wants returns the expected payloads of the keys block(b, size)
// returned, for a pool built with perKey.
func (p *readPool) wants(b, size int) []uint64 {
	b %= len(p.keys) / size
	return p.want[b*size : (b+1)*size]
}

// writeTag derives the payload a worker writes to key on its c-th
// write. The upper 32 bits depend only on the key, so a reader can tell
// a value written to this key from any other value without knowing
// which write it saw; the lower bits make each write distinct, so the
// final value of a key identifies the write that won.
func writeTag(key core.Key, worker int, c int64) uint64 {
	return keyTag(key)<<32 | uint64(worker&1)<<31 | uint64(c)&(1<<31-1)
}

func keyTag(key core.Key) uint64 {
	z := uint64(key) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) >> 32
}

// validRead reports whether v is a value the store may return for key:
// the payload it was loaded with, or one some worker wrote to it.
func validRead(key core.Key, v, original uint64) bool {
	return v == original || v>>32 == keyTag(key)
}

// mixedStream is one worker's share of a load.MixedOps YCSB-A stream in
// compact form: op i is a Get of keys[i] when isPut[i] is false (and
// must read back orig[i] or a written value), a Put of keys[i]
// otherwise.
type mixedStream struct {
	keys  []core.Key
	isPut []bool
	orig  []uint64
}

// mixedStreams generates one load.MixedOps stream of perWorker×workers
// ops (readFrac of them point Gets of zipfian present keys, the rest
// Puts alternating fresh inserts and zipfian updates) and deals each
// worker a contiguous share, so that every worker both reads and
// writes.
func mixedStreams(ks *keySet, workers, perWorker int, readFrac float64, seed uint64) []*mixedStream {
	ops := load.MixedOps(ks.keys, workers*perWorker, readFrac, zipfTheta, seed)
	out := make([]*mixedStream, workers)
	for w := range out {
		share := ops[w*perWorker : (w+1)*perWorker]
		ms := &mixedStream{keys: make([]core.Key, perWorker), isPut: make([]bool, perWorker), orig: make([]uint64, perWorker)}
		for i, op := range share {
			ms.keys[i] = op.Key
			ms.isPut[i] = op.Kind == load.Put
			if !ms.isPut[i] {
				ms.orig[i] = ks.payloads[core.LowerBound(ks.keys, op.Key)]
			}
		}
		out[w] = ms
	}
	return out
}

func (m *mixedStream) checksum() uint64 { return dataset.Checksum(m.keys) }

// lastWrites replays the first done ops of each worker's stream (the
// stream wraps around) and returns, per written key, the last payload
// each worker wrote. Workers run concurrently, so the store's final
// value for a key is the last write of one of them.
func lastWrites(streams []*mixedStream, done []int64) map[core.Key][2]uint64 {
	last := map[core.Key][2]uint64{}
	for w, ms := range streams {
		var c int64
		for i := int64(0); i < done[w]; i++ {
			at := int(i % int64(len(ms.keys)))
			if !ms.isPut[at] {
				continue
			}
			v := last[ms.keys[at]]
			v[w&1] = writeTag(ms.keys[at], w, c)
			last[ms.keys[at]] = v
			c++
		}
	}
	return last
}
