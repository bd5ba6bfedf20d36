package rs

import "fmt"

// CheckRadix holds every entry p in [0, 2^r] of idx's two-level radix
// table, base[p>>k] + fine[p&mask] as the lookup reads it, to the exact
// table shifted right by radixShift, and k to the largest block size at
// which the exact table's offsets fit a byte.
func CheckRadix(idx *Index) error {
	r, k := idx.cfg.RadixBits, int(idx.blockBits)
	exact := make([]uint16, 1<<r+1)
	idx.exactRadix(func(p int, v uint32) { exact[p] = uint16(v >> idx.radixShift) })
	check := func(p uint64, got int) error {
		if got != int(exact[p]) {
			return fmt.Errorf("entry %d = base[%d] + fine[%d] = %d, exact table %d (r=%d, k=%d)",
				p, p>>idx.blockBits, p&uint64(len(idx.fine)-1), got, exact[p], r, k)
		}
		return nil
	}
	for p := range uint64(1) << r {
		lo, hi := idx.entries(p)
		if err := check(p, lo); err != nil {
			return err
		}
		if err := check(p+1, hi); err != nil {
			return err
		}
	}
	if k == r {
		return nil
	}
	for first := 0; first < len(exact); first += 2 << k {
		if exact[min(first+2<<k, len(exact))-1]-exact[first] > 255 {
			return nil // blocks of 2^(k+1) entries do not fit a byte
		}
	}
	return fmt.Errorf("blocks of 2^%d entries fit a byte, but k=%d (r=%d)", k+1, k, r)
}
