// Package dataset implements the categorical microdata model the rest of
// the module is built on: attributes with finite (optionally ordered)
// category domains, schemas, and datasets stored as category indices.
//
// A protected ("masked") file is simply another Dataset over the same
// Schema; the evolutionary engine treats such datasets as chromosomes whose
// genes are whole categories. Values are stored as indices into the
// attribute domain rather than raw strings — semantically identical (genes
// are still entire categories, never partial strings, cf. paper §2.1) but
// far cheaper to copy and compare.
//
// Datasets are stored column-major, one []int per attribute, because every
// measure reads whole attributes: Column hands out a read-only view of a
// column without copying it. Clones are copy-on-write per column, so an
// offspring that differs from its parent in a few protected cells copies
// only the columns holding them and shares the rest.
package dataset

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Attribute describes one categorical variable: its name, its finite domain
// of categories, and whether the domain carries a meaningful total order
// (e.g. income brackets, construction decades). Order matters for the
// rank-based masking methods and measures; purely nominal attributes fall
// back to equality-based distances.
type Attribute struct {
	name       string
	categories []string
	ordered    bool
	index      map[string]int
}

// NewAttribute builds an attribute. The category list must be non-empty and
// free of duplicates; its order defines the domain order when ordered is
// true.
func NewAttribute(name string, categories []string, ordered bool) (*Attribute, error) {
	if name == "" {
		return nil, fmt.Errorf("dataset: attribute with empty name")
	}
	if len(categories) == 0 {
		return nil, fmt.Errorf("dataset: attribute %q has no categories", name)
	}
	idx := make(map[string]int, len(categories))
	for i, c := range categories {
		if c == "" {
			return nil, fmt.Errorf("dataset: attribute %q has an empty category at position %d", name, i)
		}
		if _, dup := idx[c]; dup {
			return nil, fmt.Errorf("dataset: attribute %q has duplicate category %q", name, c)
		}
		idx[c] = i
	}
	cats := make([]string, len(categories))
	copy(cats, categories)
	return &Attribute{name: name, categories: cats, ordered: ordered, index: idx}, nil
}

// MustAttribute is NewAttribute that panics on error; for tests and
// statically-known schemas.
func MustAttribute(name string, categories []string, ordered bool) *Attribute {
	a, err := NewAttribute(name, categories, ordered)
	if err != nil {
		panic(err)
	}
	return a
}

// Name returns the attribute name.
func (a *Attribute) Name() string { return a.name }

// Cardinality returns the number of categories in the domain.
func (a *Attribute) Cardinality() int { return len(a.categories) }

// Ordered reports whether the domain carries a total order.
func (a *Attribute) Ordered() bool { return a.ordered }

// Category returns the label of category i. It panics if i is out of range,
// which indicates a corrupted dataset.
func (a *Attribute) Category(i int) string { return a.categories[i] }

// Index returns the domain index of the given category label.
func (a *Attribute) Index(category string) (int, bool) {
	i, ok := a.index[category]
	return i, ok
}

// Categories returns a copy of the domain in order.
func (a *Attribute) Categories() []string {
	out := make([]string, len(a.categories))
	copy(out, a.categories)
	return out
}

// Schema is an ordered collection of attributes with unique names.
type Schema struct {
	attrs  []*Attribute
	byName map[string]int
}

// NewSchema builds a schema from the given attributes; names must be unique.
func NewSchema(attrs ...*Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("dataset: schema with no attributes")
	}
	byName := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == nil {
			return nil, fmt.Errorf("dataset: nil attribute at position %d", i)
		}
		if _, dup := byName[a.name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute name %q", a.name)
		}
		byName[a.name] = i
	}
	own := make([]*Attribute, len(attrs))
	copy(own, attrs)
	return &Schema{attrs: own, byName: byName}, nil
}

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...*Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns attribute i.
func (s *Schema) Attr(i int) *Attribute { return s.attrs[i] }

// IndexOf returns the position of the named attribute.
func (s *Schema) IndexOf(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// Indices resolves a list of attribute names to column indices, failing on
// the first unknown name.
func (s *Schema) Indices(names ...string) ([]int, error) {
	out := make([]int, 0, len(names))
	for _, n := range names {
		i, ok := s.byName[n]
		if !ok {
			return nil, fmt.Errorf("dataset: unknown attribute %q (have %s)", n, strings.Join(s.AttrNames(), ", "))
		}
		out = append(out, i)
	}
	return out, nil
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.name
	}
	return out
}

// EqualStructure reports whether two schemas describe the same attributes:
// same names, same domains in the same order, same orderedness.
func (s *Schema) EqualStructure(o *Schema) bool {
	if o == nil || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i, a := range s.attrs {
		b := o.attrs[i]
		if a.name != b.name || a.ordered != b.ordered || len(a.categories) != len(b.categories) {
			return false
		}
		for j, c := range a.categories {
			if b.categories[j] != c {
				return false
			}
		}
	}
	return true
}

// Cardinalities returns the domain sizes of the given columns (all columns
// when attrs is nil).
func (s *Schema) Cardinalities(attrs []int) []int {
	if attrs == nil {
		attrs = make([]int, len(s.attrs))
		for i := range attrs {
			attrs[i] = i
		}
	}
	out := make([]int, len(attrs))
	for i, c := range attrs {
		out[i] = s.attrs[c].Cardinality()
	}
	return out
}

// Dataset is a table of categorical microdata: Rows() records over the
// schema's attributes, each cell a category index into the attribute's
// domain.
//
// Concurrent Clone and read calls on one Dataset are safe; Set is not
// safe concurrently with any other call on the same Dataset.
type Dataset struct {
	schema *Schema
	rows   int
	cols   [][]int // column-major: cols[c][r]
	// shared[c] is set once cols[c] may be referenced by another Dataset;
	// Set copies such a column before writing. Clone sets the flags of its
	// source too, from any number of goroutines at once, hence atomics.
	shared []atomic.Bool
}

// New returns a dataset of the given number of rows with every cell set to
// category 0.
func New(schema *Schema, rows int) *Dataset {
	if schema == nil {
		panic("dataset: nil schema")
	}
	if rows < 0 {
		panic("dataset: negative row count")
	}
	a := schema.NumAttrs()
	cells := make([]int, rows*a)
	cols := make([][]int, a)
	for c := range cols {
		cols[c] = cells[c*rows : (c+1)*rows : (c+1)*rows]
	}
	return &Dataset{schema: schema, rows: rows, cols: cols, shared: make([]atomic.Bool, a)}
}

// FromRecords builds a dataset from string records; every value must belong
// to the corresponding attribute's domain.
func FromRecords(schema *Schema, records [][]string) (*Dataset, error) {
	d := New(schema, len(records))
	a := schema.NumAttrs()
	for r, rec := range records {
		if len(rec) != a {
			return nil, fmt.Errorf("dataset: record %d has %d fields, schema has %d", r, len(rec), a)
		}
		for c, v := range rec {
			idx, ok := schema.Attr(c).Index(v)
			if !ok {
				return nil, fmt.Errorf("dataset: record %d: value %q not in domain of %s", r, v, schema.Attr(c).Name())
			}
			d.cols[c][r] = idx
		}
	}
	return d, nil
}

// Schema returns the dataset's schema.
func (d *Dataset) Schema() *Schema { return d.schema }

// Rows returns the number of records.
func (d *Dataset) Rows() int { return d.rows }

// Cols returns the number of attributes.
func (d *Dataset) Cols() int { return d.schema.NumAttrs() }

// At returns the category index at (row, col).
func (d *Dataset) At(row, col int) int {
	return d.cols[col][row]
}

// Set assigns the category index v at (row, col). It panics if v is outside
// the attribute's domain: a cell outside the domain can only be a bug, and
// every downstream measure would silently miscount. The first Set into a
// column shared with a clone copies that column.
func (d *Dataset) Set(row, col, v int) {
	if v < 0 || v >= d.schema.Attr(col).Cardinality() {
		panic(fmt.Sprintf("dataset: value %d out of domain of %s (cardinality %d)",
			v, d.schema.Attr(col).Name(), d.schema.Attr(col).Cardinality()))
	}
	if d.shared[col].Load() {
		d.cols[col] = slices.Clone(d.cols[col])
		d.shared[col].Store(false)
	}
	d.cols[col][row] = v
}

// Value returns the category label at (row, col).
func (d *Dataset) Value(row, col int) string {
	return d.schema.Attr(col).Category(d.At(row, col))
}

// Clone returns a copy-on-write copy sharing the (immutable) schema and,
// until either side writes one, every column: the clone costs one slice
// header per attribute, and the first Set into a column, on either side,
// copies that column alone. Clone may run on one Dataset from several
// goroutines at once, as long as none of them calls Set on it.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{schema: d.schema, rows: d.rows, cols: slices.Clone(d.cols), shared: make([]atomic.Bool, len(d.cols))}
	for c := range d.cols {
		// Write a flag only when it changes: concurrent clones of an
		// already shared source then only read it.
		if !d.shared[c].Load() {
			d.shared[c].Store(true)
		}
		out.shared[c].Store(true)
	}
	return out
}

// Equal reports whether both datasets have structurally equal schemas, the
// same shape and the same cell values.
func (d *Dataset) Equal(o *Dataset) bool {
	if o == nil || d.rows != o.rows {
		return false
	}
	if d.schema != o.schema && !d.schema.EqualStructure(o.schema) {
		return false
	}
	for c, col := range d.cols {
		if !sameColumn(col, o.cols[c]) && !slices.Equal(col, o.cols[c]) {
			return false
		}
	}
	return true
}

// Column returns column c as a borrowed, read-only view of the dataset's
// storage: it allocates nothing. The caller must not write through it,
// and it stays a faithful view only until the next Set into column c of
// this dataset; callers that need to modify or keep a column across such
// writes take a copy (slices.Clone).
func (d *Dataset) Column(c int) []int {
	col := d.cols[c]
	return col[:len(col):len(col)]
}

// sameColumn reports whether a and b are the same (shared) storage.
func sameColumn(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Records materializes the dataset back to string records.
func (d *Dataset) Records() [][]string {
	a := d.schema.NumAttrs()
	out := make([][]string, d.rows)
	for r := 0; r < d.rows; r++ {
		rec := make([]string, a)
		for c := 0; c < a; c++ {
			rec[c] = d.Value(r, c)
		}
		out[r] = rec
	}
	return out
}

// Mismatches counts cells that differ between d and o over the given
// columns (all columns when attrs is nil). Both datasets must have the same
// shape.
func (d *Dataset) Mismatches(o *Dataset, attrs []int) int {
	if d.rows != o.rows || d.schema.NumAttrs() != o.schema.NumAttrs() {
		panic("dataset: Mismatches on datasets of different shape")
	}
	if attrs == nil {
		attrs = make([]int, d.schema.NumAttrs())
		for i := range attrs {
			attrs[i] = i
		}
	}
	n := 0
	for _, c := range attrs {
		dc, oc := d.cols[c], o.cols[c]
		if sameColumn(dc, oc) {
			continue
		}
		for r, v := range dc {
			if v != oc[r] {
				n++
			}
		}
	}
	return n
}

// Validate checks that every cell lies within its attribute's domain.
func (d *Dataset) Validate() error {
	for r := 0; r < d.rows; r++ {
		for c, col := range d.cols {
			v := col[r]
			if v < 0 || v >= d.schema.Attr(c).Cardinality() {
				return fmt.Errorf("dataset: cell (%d,%d) value %d outside domain of %s", r, c, v, d.schema.Attr(c).Name())
			}
		}
	}
	return nil
}
