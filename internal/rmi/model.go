package rmi

import "math"

// ModelKind enumerates the model types available to RMI stages,
// mirroring the CDFShop model zoo (Section 3.1; Marcus et al. use
// linear, linear-spline, cubic and radix models for in-memory RMIs).
type ModelKind int

const (
	// ModelLinear is an ordinary-least-squares linear fit with the
	// slope clamped to be non-negative (CDFs are monotone).
	ModelLinear ModelKind = iota
	// ModelLinearSpline connects the first and last training points;
	// cheaper to train than OLS and exact at the segment endpoints.
	ModelLinearSpline
	// modelCubic is a least-squares cubic fit, a stage-1 kind only,
	// used when routing must capture curvature; falls back to linear
	// when the fit would be non-monotone over the training range.
	modelCubic
	// modelRadix predicts from the key's top bits — a pure bit shift,
	// the cheapest possible stage-1 model.
	modelRadix
	// modelKnot is a stage-2 kind only: the leaf stores no model and
	// interpolates between its own first position and the next leaf's
	// by stage 1's fraction, the knots of a linear spline over the
	// leaf boundaries.
	modelKnot
)

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	switch k {
	case ModelLinear:
		return "linear"
	case ModelLinearSpline:
		return "linear_spline"
	case modelCubic:
		return "cubic"
	case modelRadix:
		return "radix"
	case modelKnot:
		return "knot"
	default:
		return "unknown"
	}
}

// model is a trained CDF sub-model: a monotone non-decreasing function
// from key to predicted position (float64). Monotonicity is what makes
// per-leaf error bounds valid for absent lookup keys (see the package
// comment).
type model struct {
	kind ModelKind
	poly
}

// poly is a model's parameters.
type poly struct {
	// Key normalization: t = (key - keyOff) * keyScale, mapping the
	// training key range onto [0, 1] before evaluating coefficients.
	// This keeps the fits numerically sane for 64-bit keys.
	keyOff   float64
	keyScale float64
	// Polynomial coefficients in t: pred = c0 + c1*t + c2*t² + c3*t³.
	// Linear models use c0, c1 only. Radix models use c1 as the
	// position scale applied directly to t.
	c0, c1, c2, c3 float64
}

// modelSizeBytes is what the stage-1 model occupies in memory: the kind
// (an int) plus normalization and coefficients, seven 8-byte words.
const modelSizeBytes = 8 * 7

// predict evaluates the model.
func (m *model) predict(key float64) float64 {
	if m.kind == modelCubic {
		return m.cubic(key)
	}
	return m.c0 + m.c1*unit((key-m.keyOff)*m.keyScale)
}

// cubic evaluates all four coefficients by Horner's rule; with c2 = c3
// = 0 the result is the line's, bit for bit.
func (p *poly) cubic(key float64) float64 {
	t := unit((key - p.keyOff) * p.keyScale)
	return p.c0 + t*(p.c1+t*(p.c2+t*p.c3))
}

// unit clamps a normalized key to the training range: fitted polynomials
// are only guaranteed monotone on [0, 1], and extrapolated predictions
// for out-of-range keys would break the global monotonicity that
// absent-key validity relies on.
func unit(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// fitModel trains a model of the requested kind on (keys[i], pos0+i)
// pairs. keys must be sorted ascending; n may be zero (a constant model
// at pos0 is returned). The returned model is always monotone
// non-decreasing on the training key range.
func fitModel(kind ModelKind, keys []float64, pos0 float64) model {
	n := len(keys)
	if n == 0 {
		return model{kind: ModelLinearSpline, poly: poly{c0: pos0}}
	}
	lo, hi := keys[0], keys[n-1]
	m := model{kind: kind, poly: poly{keyOff: lo}}
	if hi > lo {
		m.keyScale = 1 / (hi - lo)
	} else {
		// All keys equal: constant prediction at the mean position.
		m.kind = ModelLinearSpline
		m.c0 = pos0 + float64(n-1)/2
		return m
	}
	switch kind {
	case modelRadix:
		// In normalized key space a radix model (key's offset within
		// the range, by bit shift) is the line through the endpoints;
		// it differs from ModelLinearSpline only in inference cost on
		// real hardware, which the cost model accounts for separately.
		m.c0 = pos0
		m.c1 = float64(n - 1)
	case ModelLinearSpline:
		m.c0 = pos0
		m.c1 = float64(n - 1)
	case ModelLinear:
		m.c0, m.c1 = fitLinearOLS(keys, pos0, m.keyOff, m.keyScale)
		if m.c1 < 0 {
			// Monotonicity repair: fall back to the spline through the
			// endpoints, which is always non-decreasing.
			m.c0 = pos0
			m.c1 = float64(n - 1)
			m.kind = ModelLinearSpline
		}
	case modelCubic:
		c0, c1, c2, c3, ok := fitCubicLS(keys, pos0, m.keyOff, m.keyScale)
		if ok && cubicMonotoneOn01(c1, c2, c3) {
			m.c0, m.c1, m.c2, m.c3 = c0, c1, c2, c3
		} else {
			// Non-monotone or singular fit: fall back to linear.
			return fitModel(ModelLinear, keys, pos0)
		}
	}
	return m
}

// fitLinearOLS computes the least-squares line through
// (t_i, pos0 + i) where t_i is the normalized key.
func fitLinearOLS(keys []float64, pos0, keyOff, keyScale float64) (c0, c1 float64) {
	n := float64(len(keys))
	var sumT, sumY, sumTT, sumTY float64
	for i, k := range keys {
		t := (k - keyOff) * keyScale
		y := pos0 + float64(i)
		sumT += t
		sumY += y
		sumTT += t * t
		sumTY += t * y
	}
	den := n*sumTT - sumT*sumT
	if den == 0 {
		return pos0 + (n-1)/2, 0
	}
	c1 = (n*sumTY - sumT*sumY) / den
	c0 = (sumY - c1*sumT) / n
	return c0, c1
}

// fitCubicLS computes the least-squares cubic through (t_i, pos0+i) by
// solving the 4x4 normal equations with Gaussian elimination. ok is
// false if the system is singular (e.g., too few distinct keys).
func fitCubicLS(keys []float64, pos0, keyOff, keyScale float64) (c0, c1, c2, c3 float64, ok bool) {
	if len(keys) < 4 {
		return 0, 0, 0, 0, false
	}
	// Accumulate moments sum t^k for k=0..6 and sum y t^k for k=0..3.
	var s [7]float64
	var b [4]float64
	for i, k := range keys {
		t := (k - keyOff) * keyScale
		y := pos0 + float64(i)
		tp := 1.0
		for j := 0; j <= 6; j++ {
			s[j] += tp
			if j <= 3 {
				b[j] += y * tp
			}
			tp *= t
		}
	}
	var a [4][5]float64
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			a[r][c] = s[r+c]
		}
		a[r][4] = b[r]
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < 4; col++ {
		piv := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return 0, 0, 0, 0, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := col + 1; r < 4; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < 5; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	var x [4]float64
	for r := 3; r >= 0; r-- {
		v := a[r][4]
		for c := r + 1; c < 4; c++ {
			v -= a[r][c] * x[c]
		}
		x[r] = v / a[r][r]
	}
	return x[0], x[1], x[2], x[3], true
}

// cubicMonotoneOn01 reports whether c1 + 2*c2*t + 3*c3*t² >= 0 for all
// t in [0, 1] (with a small tolerance), i.e. whether the cubic is
// non-decreasing over the normalized training range.
func cubicMonotoneOn01(c1, c2, c3 float64) bool {
	const eps = 1e-9
	d := func(t float64) float64 { return c1 + 2*c2*t + 3*c3*t*t }
	if d(0) < -eps || d(1) < -eps {
		return false
	}
	// Interior critical point of the (quadratic) derivative.
	if c3 != 0 {
		t := -c2 / (3 * c3)
		if t > 0 && t < 1 && d(t) < -eps {
			return false
		}
	}
	return true
}
