package persist

import (
	"encoding/binary"
	"testing"

	"repro/internal/binio"
	"repro/internal/dataset"
	"repro/internal/registry"
)

// TestGoldenEncodedIndexes pins the encoded RS, PGM and RMI indexes —
// spline points, radix table, segments, leaves and, above all, the
// verified margins —
// to the frame checksums recorded at commit c5f58c4, before the margin
// passes became cursor walks: a build-time optimisation must leave the
// built index byte for byte what it was. The value is the CRC64 each
// EncodeIndex frame ends with, which covers every byte before it. The
// two RS-on-face rows were re-recorded when New began keeping only the
// radix bits that save a point probe: face's mid rung keeps 8 of its 14.
// The PGM sizes fell, CRCs unchanged, when each level became flat key,
// slope and pos arrays: 20 bytes a segment instead of a padded 24. The
// PGM rows were re-recorded when a segment's slope became a float32
// picked inside its corridor and a data segment's margins two 16-bit
// codes: 20 bytes a data segment instead of 28, 16 above instead of 20,
// and a payload that opened with a zero word; they were re-recorded
// again when that word went, since a payload is read only from inside
// a run file, whose magic names the layout. The RS sizes fell, CRCs
// unchanged, when the radix table went to a 16-bit entry per block and
// a byte per bucket; face's 2M row, whose table keeps one level, grew
// by the one byte of its fine array. The RMI column was re-recorded
// when a leaf began reading stage 1's fraction and taking its upper
// clamp from the next leaf's lo: 16 bytes a linear leaf instead of 24,
// and a sentinel leaf after the last. It was re-recorded again when the
// sentinel went (the last leaf's upper clamp is the key count) and the
// tuner gained the 8-byte knot leaf, which amzn's rows now pick.
func TestGoldenEncodedIndexes(t *testing.T) {
	golden := []struct {
		n                        int
		ds                       dataset.Name
		rs, pgm, rmi             uint64
		rsSize, pgmSize, rmiSize int
	}{
		{50_000, dataset.Amzn, 0x4be19f89232100b5, 0xa6f50705ca05664a, 0x29bd43b8d4f98539, 16952, 816, 8248},
		{50_000, dataset.Face, 0xc2907bf2aff303f7, 0x9c51b1b4b2515ddf, 0xce7e4cf83334d084, 416, 120, 16440},
		{50_000, dataset.OSM, 0xed2589158bff187a, 0x97aae44e6dbb3128, 0x5eaa5227e4788cae, 20914, 4896, 16440},
		{50_000, dataset.Wiki, 0x878a406a2124cc67, 0x3d89029c663d6763, 0x58245a3c03a08c44, 16880, 736, 16440},
		{2_000_000, dataset.Amzn, 0x1fc6642eeece481a, 0xd66637e11d256f26, 0xb21dc21a4e7e07a2, 17540, 1356, 32824},
		{2_000_000, dataset.Face, 0x3e8016b9a33cd827, 0x868ae6ff2f7539fc, 0x6ff60c3879eaba16, 5891, 3952, 65592},
		{2_000_000, dataset.OSM, 0x9b00a05768afc67c, 0xd5626085d92ee514, 0x03fc2205e97d9069, 82030, 82480, 65592},
		{2_000_000, dataset.Wiki, 0xace5ecc540bde73d, 0xccf3b5f102a9efa2, 0x0ed68259616a1d61, 38630, 31716, 65592},
	}
	for _, g := range golden {
		if testing.Short() && g.n > 50_000 {
			continue
		}
		keys := dataset.MustGenerate(g.ds, g.n, 1)
		for _, want := range []struct {
			family string
			crc    uint64
			size   int
		}{{"RS", g.rs, g.rsSize}, {"PGM", g.pgm, g.pgmSize}, {"RMI", g.rmi, g.rmiSize}} {
			nb, ok := registry.Builder(want.family, keys)
			if !ok {
				t.Fatalf("%s: no mid-sweep builder", want.family)
			}
			idx, err := nb.Builder.Build(keys)
			if err != nil {
				t.Fatalf("%s on %s n=%d: %v", want.family, g.ds, g.n, err)
			}
			buf := binio.NewWriter(nil)
			if err := EncodeIndex(buf, idx); err != nil {
				t.Fatalf("%s on %s n=%d: encode: %v", want.family, g.ds, g.n, err)
			}
			crc := binary.LittleEndian.Uint64(buf.Buffered()[buf.Len()-8:])
			if crc != want.crc || idx.SizeBytes() != want.size {
				t.Errorf("%s on %s n=%d: frame crc %#016x size %d, recorded %#016x size %d",
					want.family, g.ds, g.n, crc, idx.SizeBytes(), want.crc, want.size)
			}
		}
	}
}
