package dataset

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
)

// wideSchema is a flare-shaped schema: attrs attributes of small,
// varying cardinality.
func wideSchema(attrs int) *Schema {
	as := make([]*Attribute, attrs)
	for c := range as {
		cats := make([]string, 2+c%6)
		for k := range cats {
			cats[k] = fmt.Sprintf("v%d", k)
		}
		as[c] = MustAttribute(fmt.Sprintf("a%d", c), cats, c%2 == 0)
	}
	return MustSchema(as...)
}

// randomDataset fills a rows×attrs dataset with random in-domain cells.
func randomDataset(rng *rand.Rand, attrs, rows int) *Dataset {
	d := New(wideSchema(attrs), rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < attrs; c++ {
			d.Set(r, c, rng.IntN(d.Schema().Attr(c).Cardinality()))
		}
	}
	return d
}

// oracleOf deep-copies d's cells, column by column, through At.
func oracleOf(d *Dataset) [][]int {
	out := make([][]int, d.Cols())
	for c := range out {
		out[c] = make([]int, d.Rows())
		for r := range out[c] {
			out[c][r] = d.At(r, c)
		}
	}
	return out
}

func matchesOracle(d *Dataset, want [][]int) error {
	for c, col := range want {
		for r, v := range col {
			if got := d.At(r, c); got != v {
				return fmt.Errorf("cell (%d,%d) = %d, oracle %d", r, c, got, v)
			}
		}
	}
	return nil
}

// TestCloneCopyOnWriteProperty: random interleavings of Clone and Set
// over a parent, its clones and clones of clones never let a write leak
// into any other dataset. Every dataset is checked against a deep-copied
// oracle that is updated only by that dataset's own writes.
func TestCloneCopyOnWriteProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		pool := []*Dataset{randomDataset(rng, 5, 6)}
		oracles := [][][]int{oracleOf(pool[0])}
		for step := 0; step < 300; step++ {
			i := rng.IntN(len(pool))
			d := pool[i]
			if rng.IntN(4) == 0 && len(pool) < 24 {
				pool = append(pool, d.Clone())
				oracles = append(oracles, oracleOf(d))
				continue
			}
			r, c := rng.IntN(d.Rows()), rng.IntN(d.Cols())
			v := rng.IntN(d.Schema().Attr(c).Cardinality())
			d.Set(r, c, v)
			oracles[i][c][r] = v
			for k, o := range pool {
				if err := matchesOracle(o, oracles[k]); err != nil {
					t.Fatalf("seed %d step %d: dataset %d after a write to dataset %d: %v", seed, step, k, i, err)
				}
			}
		}
		for k, o := range pool {
			for c := 0; c < o.Cols(); c++ {
				col := o.Column(c)
				for r := range col {
					if col[r] != oracles[k][c][r] {
						t.Fatalf("seed %d: dataset %d Column(%d)[%d] = %d, oracle %d", seed, k, c, r, col[r], oracles[k][c][r])
					}
				}
			}
		}
	}
}

func TestColumnAllocatesNothing(t *testing.T) {
	d := randomDataset(rand.New(rand.NewPCG(1, 1)), 14, 1066)
	var sink []int
	allocs := testing.AllocsPerRun(100, func() {
		for c := 0; c < d.Cols(); c++ {
			sink = d.Column(c)
		}
	})
	if allocs != 0 {
		t.Fatalf("Column allocates %v times per call set, want 0", allocs)
	}
	_ = sink
}

// TestCloneSetCopiesOneColumn pins the copy-on-write cost: a clone is a
// fixed handful of small allocations, the first Set into it adds exactly
// one column copy, and every other column stays shared with the parent.
func TestCloneSetCopiesOneColumn(t *testing.T) {
	const attrs, rows = 14, 1066
	d := randomDataset(rand.New(rand.NewPCG(2, 2)), attrs, rows)
	var sink *Dataset
	cloneAllocs := testing.AllocsPerRun(100, func() { sink = d.Clone() })
	setAllocs := testing.AllocsPerRun(100, func() {
		sink = d.Clone()
		sink.Set(7, 3, 1)
		sink.Set(9, 3, 0) // second write into the now-owned column: free
	})
	if setAllocs != cloneAllocs+1 {
		t.Fatalf("Clone+Set allocates %v times, Clone alone %v: want exactly one column copy", setAllocs, cloneAllocs)
	}

	var before, after runtime.MemStats
	const n = 200
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sink = d.Clone()
		sink.Set(i%rows, 5, 1)
	}
	runtime.ReadMemStats(&after)
	colBytes := uint64(rows * 8)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / n; perOp > colBytes+colBytes/2 {
		t.Fatalf("Clone+Set allocates %d bytes per op, want about one %d-byte column", perOp, colBytes)
	}

	c := d.Clone()
	c.Set(0, 5, (d.At(0, 5)+1)%d.Schema().Attr(5).Cardinality())
	for col := 0; col < attrs; col++ {
		if shared := sameColumn(c.cols[col], d.cols[col]); shared != (col != 5) {
			t.Fatalf("column %d shared = %v after a write to column 5 only", col, shared)
		}
	}
	_ = sink
}

// TestConcurrentCloneThenMutate clones one dataset from several goroutines
// at once (as broadcast migration does) and mutates every clone; run
// under -race it pins that Clone's bookkeeping on the source is
// race-free and that no clone's writes reach the source or each other.
func TestConcurrentCloneThenMutate(t *testing.T) {
	src := randomDataset(rand.New(rand.NewPCG(3, 3)), 6, 64)
	want := oracleOf(src)
	const workers, clones = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < clones; k++ {
				c := src.Clone()
				r, col := (w*clones+k)%c.Rows(), w%c.Cols()
				v := (src.At(r, col) + 1) % c.Schema().Attr(col).Cardinality()
				c.Set(r, col, v)
				if c.At(r, col) != v || c.Mismatches(src, nil) != 1 {
					errs <- fmt.Errorf("worker %d clone %d: write not isolated", w, k)
					return
				}
				c.Clone().Set(r, col, src.At(r, col))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := matchesOracle(src, want); err != nil {
		t.Fatalf("source changed under concurrent clones: %v", err)
	}
}

// BenchmarkDatasetCloneSet is the per-offspring dataset cost of a
// one-cell mutation at the paper's flare scale (1066 rows, 14 attributes).
func BenchmarkDatasetCloneSet(b *testing.B) {
	d := randomDataset(rand.New(rand.NewPCG(4, 4)), 14, 1066)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := d.Clone()
		c.Set(i%1066, 3, 1)
	}
}
