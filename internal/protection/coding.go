package protection

import (
	"fmt"
	"math/rand/v2"

	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

// TopCoding collapses the upper tail of each protected attribute: every
// category strictly above the (1-Q)-quantile category of the data
// distribution is replaced by that threshold category. Q is the fraction
// of the distribution to fold into the threshold (e.g. Q=0.1 folds the top
// decile). Deterministic.
type TopCoding struct {
	Q float64
}

// NewTopCoding validates the tail fraction.
func NewTopCoding(q float64) (*TopCoding, error) {
	if q <= 0 || q >= 1 {
		return nil, fmt.Errorf("protection: top coding q=%v outside (0,1)", q)
	}
	return &TopCoding{Q: q}, nil
}

// Name implements Method.
func (t *TopCoding) Name() string { return "topcoding" }

// Params implements Method.
func (t *TopCoding) Params() string { return fmt.Sprintf("q=%.3f", t.Q) }

// Protect implements Method.
func (t *TopCoding) Protect(orig *dataset.Dataset, attrs []int, _ *rand.Rand) (*dataset.Dataset, error) {
	if err := validateAttrs(orig, attrs); err != nil {
		return nil, err
	}
	out := orig.Clone()
	for _, c := range attrs {
		col := orig.Column(c)
		card := orig.Schema().Attr(c).Cardinality()
		threshold := stats.Quantile(stats.Freq(col, card), 1-t.Q)
		for r, v := range col {
			if v > threshold {
				out.Set(r, c, threshold)
			}
		}
	}
	return out, nil
}

// BottomCoding collapses the lower tail of each protected attribute:
// every category strictly below the Q-quantile category is replaced by
// that threshold category. Deterministic.
type BottomCoding struct {
	Q float64
}

// NewBottomCoding validates the tail fraction.
func NewBottomCoding(q float64) (*BottomCoding, error) {
	if q <= 0 || q >= 1 {
		return nil, fmt.Errorf("protection: bottom coding q=%v outside (0,1)", q)
	}
	return &BottomCoding{Q: q}, nil
}

// Name implements Method.
func (b *BottomCoding) Name() string { return "bottomcoding" }

// Params implements Method.
func (b *BottomCoding) Params() string { return fmt.Sprintf("q=%.3f", b.Q) }

// Protect implements Method.
func (b *BottomCoding) Protect(orig *dataset.Dataset, attrs []int, _ *rand.Rand) (*dataset.Dataset, error) {
	if err := validateAttrs(orig, attrs); err != nil {
		return nil, err
	}
	out := orig.Clone()
	for _, c := range attrs {
		col := orig.Column(c)
		card := orig.Schema().Attr(c).Cardinality()
		threshold := stats.Quantile(stats.Freq(col, card), b.Q)
		for r, v := range col {
			if v < threshold {
				out.Set(r, c, threshold)
			}
		}
	}
	return out, nil
}
