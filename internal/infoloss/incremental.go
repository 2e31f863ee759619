package infoloss

// Incremental (delta) evaluation: the evolutionary engine's operators
// change one cell (mutation) or a gene window (crossover) of an otherwise
// already-scored dataset, so rescoring from scratch wastes almost all of
// its work. Measures that can do better implement Incremental: Prepare
// builds a per-masked-file State whose summaries (contingency tables,
// distance sums, transition matrices) support O(changes) patching, and
// Apply advances the state by a change list and returns the new value.
//
// Every state stores exact integer summaries and funnels them through the
// same value helpers the full Loss methods use (ctbilValue, dbilValue,
// ebilTerm), so a delta-evaluated value is bit-for-bit identical to a full
// recompute — the property internal/score relies on and the equivalence
// tests assert.

import (
	"slices"

	"evoprot/internal/dataset"
	"evoprot/internal/stats"
)

// State is an opaque per-masked-dataset summary maintained by an
// Incremental measure. States are single-goroutine values; use Clone to
// branch one (e.g. for an offspring that may be discarded).
type State interface {
	// CloneState returns an independent deep copy.
	CloneState() State
}

// Incremental is the capability interface for measures that can rescore a
// masked dataset in time proportional to the number of changed cells
// rather than the dataset size.
type Incremental interface {
	Measure
	// Prepare builds the incremental state for masked against orig over
	// the protected attrs. A nil state means the measure cannot run
	// incrementally under its current configuration; callers must fall
	// back to Loss.
	Prepare(orig, masked *dataset.Dataset, attrs []int) State
	// Apply advances state by the given cell changes — which must describe
	// edits to the state's masked file, applied in order — and returns the
	// measure's value for the edited file. An empty change list returns
	// the current value. Apply must not retain changes: callers reuse the
	// backing array across calls.
	Apply(state State, changes []dataset.CellChange) float64
}

// Reversible is the capability interface of Incremental measures whose
// states can advance by a change list and then roll back exactly — the
// primitive behind generation-batch evaluation (score.Evaluator
// EvaluateBatch), which scores every offspring of a generation against
// one shared parent state with undo instead of cloning the state per
// offspring.
//
// All three info-loss states are pure functions of the masked columns
// (given the shared original), so undo replays the change list's
// inversions in reverse order through the same exact integer patches:
// the restored state is bit-for-bit the pre-ApplyUndo state.
type Reversible interface {
	Incremental
	// ApplyUndo is Apply with rollback armed: it advances state by
	// changes, returns the measure's value for the edited file, and
	// journals enough to restore the state exactly. At most one
	// ApplyUndo may be pending per state; Undo (or a plain Apply,
	// which commits the pending changes) must intervene before the next.
	ApplyUndo(state State, changes []dataset.CellChange) float64
	// Undo rolls back the pending ApplyUndo, restoring the state bit
	// for bit. With no pending ApplyUndo it is a no-op.
	Undo(state State)
}

// Compile-time capability checks: the whole default battery is
// incremental and reversible.
var (
	_ Reversible = (*CTBIL)(nil)
	_ Reversible = (*DBIL)(nil)
	_ Reversible = (*EBIL)(nil)
)

// undoLog is the shared journal of the info-loss states: a copy of the
// pending change list, replayed inverted and in reverse by Undo. The
// buffer is owned by the state and reused across generations.
type undoLog struct {
	changes []dataset.CellChange
	active  bool
}

// arm records the pending change list. Apply without undo disarms.
func (u *undoLog) arm(changes []dataset.CellChange) {
	u.changes = append(u.changes[:0], changes...)
	u.active = true
}

// --- CTBIL ---

// ctbilTable is one contingency table of the CTBIL state: the masked
// file's cell counts plus the running L1 distance to the original file's
// (immutable, shared) table.
type ctbilTable struct {
	rel   []int // positions into attrs of the table's columns
	cards []int
	orig  map[stats.ContingencyKey]int // shared, never written
	cells map[stats.ContingencyKey]int // owned
	l1    int
}

type ctbilState struct {
	n      int
	attrs  []int
	pos    map[int]int // column index -> position in attrs
	tables []*ctbilTable
	byPos  [][]int // attr position -> indices of tables containing it
	mc     [][]int // masked protected columns, by attr position; owned
	l1     []int   // Apply scratch, lazily built, never shared by clones
	undo   undoLog // pending ApplyUndo journal; never shared by clones
}

// CloneState implements State.
func (s *ctbilState) CloneState() State {
	out := &ctbilState{n: s.n, attrs: s.attrs, pos: s.pos, byPos: s.byPos}
	out.tables = make([]*ctbilTable, len(s.tables))
	for i, t := range s.tables {
		cells := make(map[stats.ContingencyKey]int, len(t.cells))
		for k, v := range t.cells {
			cells[k] = v
		}
		out.tables[i] = &ctbilTable{rel: t.rel, cards: t.cards, orig: t.orig, cells: cells, l1: t.l1}
	}
	out.mc = make([][]int, len(s.mc))
	for i, col := range s.mc {
		out.mc[i] = slices.Clone(col)
	}
	return out
}

// Prepare implements Incremental.
func (c *CTBIL) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &ctbilState{n: n, attrs: attrs, pos: make(map[int]int, len(attrs))}
	for a, col := range attrs {
		st.pos[col] = a
	}
	st.mc = make([][]int, len(attrs))
	for a, col := range attrs {
		st.mc[a] = slices.Clone(masked.Column(col)) // patched by Apply
	}
	subsets := stats.SubsetsUpTo(len(attrs), c.maxDimOrDefault())
	st.byPos = make([][]int, len(attrs))
	for _, subset := range subsets {
		cols := make([]int, len(subset))
		for i, rel := range subset {
			cols[i] = attrs[rel]
		}
		cards := orig.Schema().Cardinalities(cols)
		co := make([][]int, len(cols))
		cm := make([][]int, len(cols))
		for i, col := range cols {
			co[i] = orig.Column(col)
			cm[i] = masked.Column(col)
		}
		to := stats.NewContingencyTable(cols, co, cards)
		tm := stats.NewContingencyTable(cols, cm, cards)
		rel := make([]int, len(subset))
		copy(rel, subset)
		t := &ctbilTable{rel: rel, cards: cards, orig: to.Cells, cells: tm.Cells, l1: to.L1Distance(tm)}
		for _, a := range rel {
			st.byPos[a] = append(st.byPos[a], len(st.tables))
		}
		st.tables = append(st.tables, t)
	}
	return st
}

// patchOne advances the tables and masked columns by one cell change.
// The patch is its own inverse under CellChange.Inverted: replaying
// inversions in reverse restores the exact integer summaries.
func (st *ctbilState) patchOne(ch dataset.CellChange) {
	a0 := st.pos[ch.Col]
	for _, ti := range st.byPos[a0] {
		t := st.tables[ti]
		var oldKey, newKey stats.ContingencyKey
		for i, a := range t.rel {
			v := st.mc[a][ch.Row]
			if a == a0 {
				v = ch.Old
			}
			oldKey = oldKey*stats.ContingencyKey(t.cards[i]) + stats.ContingencyKey(v)
			if a == a0 {
				v = ch.New
			}
			newKey = newKey*stats.ContingencyKey(t.cards[i]) + stats.ContingencyKey(v)
		}
		t.bump(oldKey, -1)
		t.bump(newKey, +1)
	}
	st.mc[a0][ch.Row] = ch.New
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo: the journaled changes become permanent.
func (c *CTBIL) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*ctbilState)
	st.undo.active = false
	for _, ch := range changes {
		st.patchOne(ch)
	}
	if st.l1 == nil {
		st.l1 = make([]int, len(st.tables))
	}
	for i, t := range st.tables {
		st.l1[i] = t.l1
	}
	return ctbilValue(st.l1, st.n)
}

// ApplyUndo implements Reversible.
func (c *CTBIL) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := c.Apply(state, changes)
	state.(*ctbilState).undo.arm(changes)
	return v
}

// Undo implements Reversible.
func (c *CTBIL) Undo(state State) {
	st := state.(*ctbilState)
	if !st.undo.active {
		return
	}
	st.undo.active = false
	for k := len(st.undo.changes) - 1; k >= 0; k-- {
		st.patchOne(st.undo.changes[k].Inverted())
	}
}

// bump adjusts one masked cell count by ±1, keeping the L1 distance to the
// original table in sync.
func (t *ctbilTable) bump(key stats.ContingencyKey, delta int) {
	o := t.orig[key]
	m := t.cells[key]
	t.l1 += stats.AbsInt(m+delta-o) - stats.AbsInt(m-o)
	if m+delta == 0 {
		delete(t.cells, key)
	} else {
		t.cells[key] = m + delta
	}
}

// --- DBIL ---

type dbilState struct {
	n     int
	orig  *dataset.Dataset // read-only
	attrs []int
	pos   map[int]int
	sums  []int64 // per attr position: rank-displacement sum or mismatch count
	undo  undoLog // pending ApplyUndo journal; never shared by clones
}

// CloneState implements State.
func (s *dbilState) CloneState() State {
	sums := make([]int64, len(s.sums))
	copy(sums, s.sums)
	return &dbilState{n: s.n, orig: s.orig, attrs: s.attrs, pos: s.pos, sums: sums}
}

// Prepare implements Incremental.
func (d *DBIL) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &dbilState{n: n, orig: orig, attrs: attrs, pos: make(map[int]int, len(attrs)), sums: make([]int64, len(attrs))}
	for a, c := range attrs {
		st.pos[c] = a
		attr := orig.Schema().Attr(c)
		if attr.Ordered() && attr.Cardinality() > 1 {
			for r := 0; r < n; r++ {
				st.sums[a] += int64(stats.AbsInt(orig.At(r, c) - masked.At(r, c)))
			}
		} else {
			for r := 0; r < n; r++ {
				if orig.At(r, c) != masked.At(r, c) {
					st.sums[a]++
				}
			}
		}
	}
	return st
}

// patchOne adjusts one attribute sum by one cell change; exactly
// self-inverse under CellChange.Inverted (integer arithmetic only).
func (st *dbilState) patchOne(ch dataset.CellChange) {
	a := st.pos[ch.Col]
	attr := st.orig.Schema().Attr(ch.Col)
	o := st.orig.At(ch.Row, ch.Col)
	if attr.Ordered() && attr.Cardinality() > 1 {
		st.sums[a] += int64(stats.AbsInt(o-ch.New) - stats.AbsInt(o-ch.Old))
	} else {
		if o != ch.Old {
			st.sums[a]--
		}
		if o != ch.New {
			st.sums[a]++
		}
	}
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo.
func (d *DBIL) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*dbilState)
	st.undo.active = false
	for _, ch := range changes {
		st.patchOne(ch)
	}
	return dbilValue(st.orig.Schema(), st.attrs, st.sums, st.n)
}

// ApplyUndo implements Reversible.
func (d *DBIL) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := d.Apply(state, changes)
	state.(*dbilState).undo.arm(changes)
	return v
}

// Undo implements Reversible.
func (d *DBIL) Undo(state State) {
	st := state.(*dbilState)
	if !st.undo.active {
		return
	}
	st.undo.active = false
	for k := len(st.undo.changes) - 1; k >= 0; k-- {
		st.patchOne(st.undo.changes[k].Inverted())
	}
}

// --- EBIL ---

type ebilState struct {
	n     int
	orig  *dataset.Dataset // read-only
	attrs []int
	pos   map[int]int
	joint [][][]int // per attr position (nil when card < 2): card x card
	terms []float64 // cached ebilTerm per attr position
	dirty []bool    // Apply scratch, lazily built, never shared by clones
	undo  undoLog   // pending ApplyUndo journal; never shared by clones
}

// CloneState implements State.
func (s *ebilState) CloneState() State {
	out := &ebilState{n: s.n, orig: s.orig, attrs: s.attrs, pos: s.pos}
	out.joint = make([][][]int, len(s.joint))
	for a, j := range s.joint {
		if j == nil {
			continue
		}
		card := len(j)
		backing := make([]int, card*card)
		m := make([][]int, card)
		for u := 0; u < card; u++ {
			m[u] = backing[u*card : (u+1)*card]
			copy(m[u], j[u])
		}
		out.joint[a] = m
	}
	out.terms = make([]float64, len(s.terms))
	copy(out.terms, s.terms)
	return out
}

// Prepare implements Incremental.
func (e *EBIL) Prepare(orig, masked *dataset.Dataset, attrs []int) State {
	n := orig.Rows()
	if n == 0 || len(attrs) == 0 {
		return nil
	}
	st := &ebilState{
		n: n, orig: orig, attrs: attrs,
		pos:   make(map[int]int, len(attrs)),
		joint: make([][][]int, len(attrs)),
		terms: make([]float64, len(attrs)),
	}
	for a, c := range attrs {
		st.pos[c] = a
		card := orig.Schema().Attr(c).Cardinality()
		if card < 2 {
			continue // mirrors Loss: constant attributes are skipped
		}
		st.joint[a] = stats.JointTransition(orig.Column(c), masked.Column(c), card)
		st.terms[a] = ebilTerm(st.joint[a], card, n)
	}
	return st
}

// patchOne adjusts one joint transition matrix by one cell change and
// marks the attribute's cached term dirty; self-inverse under
// CellChange.Inverted.
func (st *ebilState) patchOne(ch dataset.CellChange) {
	a := st.pos[ch.Col]
	if st.joint[a] == nil {
		return // constant attribute; cannot actually change value
	}
	o := st.orig.At(ch.Row, ch.Col)
	st.joint[a][o][ch.Old]--
	st.joint[a][o][ch.New]++
	st.dirty[a] = true
}

// refreshTerms recomputes the cached ebilTerm of every dirty attribute.
// ebilTerm is a pure function of the (exact, integer) joint matrix, so
// a refresh after undoing the matrix patches restores the pre-apply
// term bit for bit.
func (st *ebilState) refreshTerms() {
	for a := range st.dirty {
		if !st.dirty[a] {
			continue
		}
		st.dirty[a] = false
		st.terms[a] = ebilTerm(st.joint[a], len(st.joint[a]), st.n)
	}
}

// Apply implements Incremental. A plain Apply commits any pending
// ApplyUndo.
func (e *EBIL) Apply(state State, changes []dataset.CellChange) float64 {
	st := state.(*ebilState)
	st.undo.active = false
	if st.dirty == nil {
		st.dirty = make([]bool, len(st.attrs))
	}
	for _, ch := range changes {
		st.patchOne(ch)
	}
	st.refreshTerms()
	sum := 0.0
	counted := 0
	for a := range st.attrs {
		if st.joint[a] == nil {
			continue
		}
		sum += st.terms[a]
		counted++
	}
	if counted == 0 {
		return 0
	}
	return 100 * sum / float64(counted)
}

// ApplyUndo implements Reversible.
func (e *EBIL) ApplyUndo(state State, changes []dataset.CellChange) float64 {
	v := e.Apply(state, changes)
	state.(*ebilState).undo.arm(changes)
	return v
}

// Undo implements Reversible.
func (e *EBIL) Undo(state State) {
	st := state.(*ebilState)
	if !st.undo.active {
		return
	}
	st.undo.active = false
	for k := len(st.undo.changes) - 1; k >= 0; k-- {
		st.patchOne(st.undo.changes[k].Inverted())
	}
	st.refreshTerms()
}
