package protection

import (
	"fmt"
	"math/rand/v2"

	"evoprot/internal/dataset"
	"evoprot/internal/hierarchy"
	"evoprot/internal/stats"
)

// GlobalRecoding coarsens each protected attribute Depth levels up an
// automatically-derived binary generalization hierarchy (adjacent
// categories merge pairwise per level) and maps every category to the
// weighted-median representative of its group, so recoded values remain
// in-domain. Depth saturates at the hierarchy's top. Deterministic.
type GlobalRecoding struct {
	Depth int
}

// NewGlobalRecoding validates the depth.
func NewGlobalRecoding(depth int) (*GlobalRecoding, error) {
	if depth < 1 {
		return nil, fmt.Errorf("protection: global recoding depth=%d < 1 would be a no-op", depth)
	}
	return &GlobalRecoding{Depth: depth}, nil
}

// Name implements Method.
func (g *GlobalRecoding) Name() string { return "globalrecoding" }

// Params implements Method.
func (g *GlobalRecoding) Params() string { return fmt.Sprintf("depth=%d", g.Depth) }

// Protect implements Method.
func (g *GlobalRecoding) Protect(orig *dataset.Dataset, attrs []int, _ *rand.Rand) (*dataset.Dataset, error) {
	if err := validateAttrs(orig, attrs); err != nil {
		return nil, err
	}
	out := orig.Clone()
	for _, c := range attrs {
		card := orig.Schema().Attr(c).Cardinality()
		h, err := hierarchy.Auto(card, 2)
		if err != nil {
			return nil, fmt.Errorf("protection: global recoding on %s: %w", orig.Schema().Attr(c).Name(), err)
		}
		level := g.Depth
		if max := h.NumLevels() - 1; level > max {
			level = max
		}
		col := orig.Column(c)
		recode := h.Recode(level, stats.Freq(col, card))
		for r, v := range col {
			out.Set(r, c, recode[v])
		}
	}
	return out, nil
}
