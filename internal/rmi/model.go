package rmi

// ModelKind enumerates the model types available to RMI stages, a
// subset of the CDFShop model zoo (Section 3.1; Marcus et al. use
// linear, linear-spline, cubic and radix models for in-memory RMIs).
type ModelKind int

const (
	// ModelLinear is an ordinary-least-squares linear fit with the
	// slope clamped to be non-negative (CDFs are monotone).
	ModelLinear ModelKind = iota
	// ModelLinearSpline connects the first and last training points;
	// cheaper to train than OLS and exact at the segment endpoints.
	ModelLinearSpline
	// modelCubic was a least-squares cubic stage 1, retired because no
	// tuned rung picked it; it keeps its number so every other kind's
	// payload is unchanged, and Decode refuses it by name.
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
	// The line in t: pred = c0 + c1*t. Radix models use c1 as the
	// position scale applied directly to t. c2 and c3 are zero: they
	// are the words the retired cubic stage 1 filled, kept so that the
	// model's size and payload stay what they were.
	c0, c1, c2, c3 float64
}

// modelSizeBytes is what the stage-1 model occupies in memory: the kind
// (an int) plus normalization and coefficients, seven 8-byte words.
const modelSizeBytes = 8 * 7

// predict evaluates the model.
func (m *model) predict(key float64) float64 {
	return m.c0 + m.c1*unit((key-m.keyOff)*m.keyScale)
}

// unit clamps a normalized key to the training range: extrapolated
// predictions for out-of-range keys would break the global
// monotonicity that absent-key validity relies on.
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
	case modelRadix, ModelLinearSpline:
		// In normalized key space a radix model (key's offset within
		// the range, by bit shift) is the line through the endpoints;
		// it differs from ModelLinearSpline only in inference cost on
		// real hardware, which the cost model accounts for separately.
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
