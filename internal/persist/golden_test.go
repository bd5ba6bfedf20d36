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
// tuner gained the 8-byte knot leaf, which amzn's rows now pick. Every
// CRC was re-recorded, no size moving, when each codec began writing
// the arrays its index describes, and RS's radix table went on the wire
// as its base and fine arrays in place of the exact 32-bit table. The
// PGM rows and RMI's amzn rows were re-recorded when margins became
// one-byte codes: 18 bytes a data segment instead of 20, and a 6-byte
// knot leaf instead of 8; the linear-leaf RMI rows did not move.
func TestGoldenEncodedIndexes(t *testing.T) {
	golden := []struct {
		n                        int
		ds                       dataset.Name
		rs, pgm, rmi             uint64
		rsSize, pgmSize, rmiSize int
	}{
		{50_000, dataset.Amzn, 0x678be2f2d47f2953, 0xaca42874e82501b6, 0xdde33e40133f5ee1, 16952, 736, 6200},
		{50_000, dataset.Face, 0x7690472533aaca78, 0x17105be991955c69, 0x8d750903b1575254, 416, 108, 16440},
		{50_000, dataset.OSM, 0xbf771468a9192c66, 0xbe841cdf9be05fda, 0x1da117dc661b0e7e, 20914, 4408, 16440},
		{50_000, dataset.Wiki, 0x2be860a46cee0499, 0x15fb49e6fdaa34cb, 0x1b2f1fc781c30e94, 16880, 664, 16440},
		{2_000_000, dataset.Amzn, 0xca6e58b66e0f2c08, 0x378b39b1a263f2c8, 0x231b7a638348249e, 17540, 1222, 24632},
		{2_000_000, dataset.Face, 0xb87b5e3afe3d8eae, 0x33901a6c9b7ff4e5, 0x86e413ecf3ee3199, 5891, 3560, 65592},
		{2_000_000, dataset.OSM, 0xd171f994f7788300, 0xfb8dd9187abd8441, 0xeaee3dd163791be6, 82030, 74248, 65592},
		{2_000_000, dataset.Wiki, 0x98c9574c7c66c43e, 0x48c34a7bec2c304e, 0xe7c49d8deb6e96ee, 38630, 28546, 65592},
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
