package dataset

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestDiffReplaysRandomChanges: Diff lists a clone's edits in row-major
// order, applying it to the source reproduces the clone, and replaying
// the inversions backwards restores the source.
func TestDiffReplaysRandomChanges(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	src := randomDataset(rng, 6, 40)
	attrs := []int{1, 3, 4}
	dst := src.Clone()
	for i := 0; i < 25; i++ {
		ch := RandomChange(rng, dst, attrs)
		if ch.Old == ch.New || dst.At(ch.Row, ch.Col) != ch.New || !slices.Contains(attrs, ch.Col) {
			t.Fatalf("RandomChange returned %+v", ch)
		}
	}
	diff := Diff(src, dst, attrs)
	if len(diff) != src.Mismatches(dst, attrs) {
		t.Fatalf("Diff has %d changes, Mismatches counts %d", len(diff), src.Mismatches(dst, attrs))
	}
	for k := 1; k < len(diff); k++ {
		a, b := diff[k-1], diff[k]
		if a.Row > b.Row || (a.Row == b.Row && slices.Index(attrs, a.Col) >= slices.Index(attrs, b.Col)) {
			t.Fatalf("Diff not in row-major order at %d: %+v then %+v", k, a, b)
		}
	}
	replay := src.Clone()
	for _, ch := range diff {
		replay.Set(ch.Row, ch.Col, ch.New)
	}
	if !replay.Equal(dst) {
		t.Fatal("applying Diff to the source did not reproduce the target")
	}
	for k := len(diff) - 1; k >= 0; k-- {
		inv := diff[k].Inverted()
		replay.Set(inv.Row, inv.Col, inv.New)
	}
	if !replay.Equal(src) || len(Diff(src, replay, attrs)) != 0 {
		t.Fatal("replaying inverted changes did not restore the source")
	}
}
