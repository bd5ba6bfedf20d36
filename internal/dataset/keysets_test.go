package dataset

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
)

// The key-set generators as they were before they filled chunk-wise:
// one key after the other from one generator, every normal variate
// drawn by norm (a first uniform of 0 drawn again) and every set sorted
// by slices.Sort. They are the oracles the chunked generators must
// equal. misses counts the redrawn zeros, so that a test can tell
// whether its seed reached the miss it was built for.

type oracle struct{ misses int }

func (o *oracle) norm(r *rng) float64 {
	u1 := r.float64()
	for u1 == 0 {
		o.misses++
		u1 = r.float64()
	}
	u2 := r.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func (o *oracle) amzn(n int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0xA3A3)
	keys := make([]core.Key, n)
	cur := uint64(1)
	logScale := 5.0
	var mean float64
	segLen := n/64 + 1
	for i := 0; i < n; i++ {
		if i%segLen == 0 {
			logScale += o.norm(r) * 0.8
			if logScale < 3 {
				logScale = 3
			}
			if logScale > 12 {
				logScale = 12
			}
			mean = math.Exp2(logScale)
		}
		gap := uint64(mean*math.Exp(0+0.35*o.norm(r))) + 1
		cur += gap
		keys[i] = cur
	}
	return keys
}

// face also counts, in misses, the repeated draws it skips, and in
// tailRepeats those skipped while it draws the keys the outliers
// overwrite.
func (o *oracle) face(n int, seed, span uint64) (keys []core.Key, tailRepeats int) {
	r := newRNG(seed ^ 0xFACE)
	outliers := min(faceOutliers, n/2)
	seen := newU64Set(n)
	for len(keys) < n {
		if k := 1 + r.next()%span; seen.add(k) {
			keys = append(keys, k)
		} else {
			o.misses++
			if len(keys) >= n-outliers {
				tailRepeats++
			}
		}
	}
	lo, hi := uint64(1)<<59, ^uint64(0)
	for i := 0; i < outliers; i++ {
		keys[n-outliers+i] = lo + r.next()%(hi-lo)
	}
	slices.Sort(keys)
	for dup := true; dup; {
		dup = false
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				keys[i] = 1 + r.next()%(hi-1)
				dup = true
			}
		}
		slices.Sort(keys)
	}
	return keys, tailRepeats
}

func (o *oracle) osm(n int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0x05E5)
	const order = 24
	grid := uint64(1) << order
	type cluster struct{ cx, cy, sd, cumulat float64 }
	clusters := make([]cluster, 512)
	total := 0.0
	for i := range clusters {
		c := &clusters[i]
		c.cx = r.float64() * float64(grid)
		c.cy = r.float64() * float64(grid)
		c.sd = math.Exp2(6 + r.float64()*12)
		total += r.exp() * r.exp()
		c.cumulat = total
	}
	seen := newU64Set(n)
	var keys []core.Key
	for len(keys) < n {
		t := r.float64() * total
		lo, hi := 0, len(clusters)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if clusters[mid].cumulat < t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		c := &clusters[lo]
		x := int64(c.cx + o.norm(r)*c.sd)
		y := int64(c.cy + o.norm(r)*c.sd)
		if x < 0 || y < 0 || x >= int64(grid) || y >= int64(grid) {
			continue
		}
		if d := hilbertD2(order, uint64(x), uint64(y)); seen.add(d) {
			keys = append(keys, d)
		}
	}
	slices.Sort(keys)
	return keys
}

// generatorSizes are the key-set sizes the generator tests run: one key,
// two, face's outliers at half the set and just under, and sets of one
// range, of several and of several with a short last one.
var generatorSizes = []int{1, 2, 200, 255, 50_000, 300_007}

// TestGeneratorsMatchOneAtATime holds amzn, face and osm to their
// oracles. Wiki draws one key after the other and is its own.
func TestGeneratorsMatchOneAtATime(t *testing.T) {
	for _, n := range generatorSizes {
		for _, seed := range []uint64{1, 7} {
			var o oracle
			face, _ := o.face(n, seed, faceSpan)
			for _, c := range []struct {
				ds   Name
				want []core.Key
			}{{Amzn, o.amzn(n, seed)}, {Face, face}, {OSM, o.osm(n, seed)}} {
				checkOracle(t, fmt.Sprintf("%s n=%d seed=%d", c.ds, n, seed), MustGenerate(c.ds, n, seed), c.want)
			}
		}
	}
}

func checkOracle(t *testing.T, what string, got, want []core.Key) {
	t.Helper()
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s: %d keys, oracle %d; first difference at %d", what, len(got), len(want), i)
	}
}

// unmix inverts mix64, the splitmix64 finalizer: each xorshift is undone
// by repeating it until every bit has been corrected, each multiply by
// the odd constant's inverse mod 2^64.
func unmix(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := uint(0); i < 64; i += s {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 {
		x := c // right to 3 bits; Newton's step doubles them
		for range 5 {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31)
	z *= inverse(0x94D049BB133111EB)
	z = unshift(z, 27)
	z *= inverse(0xBF58476D1CE4E5B9)
	return unshift(z, 30)
}

// zeroAt returns the seed under which a generator seeded with seed^salt
// draws a uniform of exactly 0 as its k-th draw (from 0): the draw's top
// 53 bits, all float64 keeps, are zero.
func zeroAt(salt uint64, k int) uint64 {
	state := unmix(0x5A5) - uint64(k+1)*gamma
	return state ^ salt
}

func TestUnmix(t *testing.T) {
	r := newRNG(3)
	for range 1000 {
		if z := r.next(); mix64(unmix(z)) != z || unmix(mix64(z)) != z {
			t.Fatalf("unmix does not invert mix64 at %#x", z)
		}
	}
	for _, k := range []int{0, 1, 12345} {
		if u := newRNG(zeroAt(0xA3A3, k) ^ 0xA3A3).at(k).float64(); u != 0 {
			t.Fatalf("zeroAt(%d): draw %d is %v", k, k, u)
		}
	}
}

// TestGeneratorMissesMatchOneAtATime forces every kind of speculation
// miss and holds the generator to its oracle. A seed puts a uniform of
// 0 where a normal variate's first draw falls — the item that takes two
// draws more than assumed — at the first, a middle and the last item of
// a range of core.Parallel, at amzn's segment scale, and at the first
// and last item of the set. Face draws from a span small enough that
// draws repeat, in the bulk and among the draws the outliers overwrite.
// A fill that resumes one draw early or late differs from the oracle
// from the item after the miss on.
func TestGeneratorMissesMatchOneAtATime(t *testing.T) {
	const n = 300_007 // ranges of 65,536 keys or attempts: [65536, 131072) is the second
	items := []int{0, 65_536, 98_304, 131_071, n - 1}

	// Amzn: key i's draws, if none before it missed, start at draw
	// 2i + 2·(segment starts before i); a segment start draws its
	// scale first and its gap two draws later.
	segLen := n/64 + 1
	at := func(i int) int { return 2*i + 2*((i+segLen-1)/segLen) }
	type miss struct {
		what string
		draw int
	}
	var amzn []miss
	for _, i := range items {
		d := at(i)
		if i%segLen == 0 {
			d += 2
		}
		amzn = append(amzn, miss{fmt.Sprintf("gap of key %d", i), d})
	}
	for _, i := range []int{0, 20 * segLen, (n - 1) / segLen * segLen} { // 20·segLen = 93,760 is in the second range
		amzn = append(amzn, miss{fmt.Sprintf("scale of the segment at %d", i), at(i)})
	}
	for _, m := range amzn {
		seed := zeroAt(0xA3A3, m.draw)
		var o oracle
		want := o.amzn(n, seed)
		if o.misses != 1 {
			t.Fatalf("amzn %s: the oracle drew %d zeros, want 1", m.what, o.misses)
		}
		checkOracle(t, "amzn miss at the "+m.what, MustGenerate(Amzn, n, seed), want)
	}

	// Osm: 512 clusters take five draws each, then attempt a draws its
	// cluster at 2560 + 5a, its x offset from the next draw and its y
	// offset from two draws after that.
	for _, a := range items {
		for off, axis := range map[int]string{1: "x", 3: "y"} {
			seed := zeroAt(0x05E5, 2560+5*a+off)
			var o oracle
			want := o.osm(n, seed)
			if o.misses != 1 {
				t.Fatalf("osm attempt %d %s: the oracle drew %d zeros, want 1", a, axis, o.misses)
			}
			checkOracle(t, fmt.Sprintf("osm miss at attempt %d %s", a, axis), MustGenerate(OSM, n, seed), want)
		}
	}

	// Face: repeats among 200 draws from 600 values, half of them
	// overwritten; and a few among 140,000 from 2^31, across ranges.
	for _, c := range []struct {
		n    int
		span uint64
		tail bool // must some seed repeat a draw the outliers overwrite?
	}{{200, 600, true}, {140_000, 1 << 31, false}} {
		tails := 0
		for seed := uint64(1); seed <= 4; seed++ {
			var o oracle
			want, tail := o.face(c.n, seed, c.span)
			if o.misses == 0 {
				t.Fatalf("face n=%d span=%d seed=%d: no draw repeats", c.n, c.span, seed)
			}
			tails += tail
			checkOracle(t, fmt.Sprintf("face n=%d span=%d seed=%d, %d repeats", c.n, c.span, seed, o.misses), genFace(c.n, seed, c.span), want)
		}
		if c.tail && tails == 0 {
			t.Errorf("face n=%d span=%d: no repeat among the overwritten draws", c.n, c.span)
		}
	}
}
