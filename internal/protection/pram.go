package protection

import (
	"fmt"
	"math/rand/v2"

	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

// PRAM is the Post-Randomization Method (Gouweleeuw et al. 1998): each
// value survives with probability Theta and is otherwise resampled from
// the attribute's empirical marginal distribution. The implied Markov
// matrix is P(v|u) = θ·1[u=v] + (1−θ)·p̂(v), a standard
// marginal-preserving-in-expectation choice. Stochastic.
type PRAM struct {
	Theta float64 // retention probability
}

// NewPRAM validates the retention probability.
func NewPRAM(theta float64) (*PRAM, error) {
	if theta < 0 || theta >= 1 {
		return nil, fmt.Errorf("protection: pram theta=%v outside [0,1)", theta)
	}
	return &PRAM{Theta: theta}, nil
}

// Name implements Method.
func (p *PRAM) Name() string { return "pram" }

// Params implements Method.
func (p *PRAM) Params() string { return fmt.Sprintf("theta=%.3f", p.Theta) }

// Protect implements Method.
func (p *PRAM) Protect(orig *dataset.Dataset, attrs []int, rng *rand.Rand) (*dataset.Dataset, error) {
	if err := validateAttrs(orig, attrs); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("protection: pram requires an RNG")
	}
	out := orig.Clone()
	for _, c := range attrs {
		col := orig.Column(c)
		card := orig.Schema().Attr(c).Cardinality()
		freq := stats.Freq(col, card)
		total := 0
		for _, f := range freq {
			total += f
		}
		if total == 0 {
			continue
		}
		// Cumulative marginal for inverse-CDF resampling.
		cdf := make([]float64, card)
		cum := 0.0
		for v, f := range freq {
			cum += float64(f) / float64(total)
			cdf[v] = cum
		}
		cdf[card-1] = 1
		for r, v := range col {
			if rng.Float64() < p.Theta {
				continue // retained
			}
			u := rng.Float64()
			nv := v
			for k, cp := range cdf {
				if u <= cp {
					nv = k
					break
				}
			}
			out.Set(r, c, nv)
		}
	}
	return out, nil
}
