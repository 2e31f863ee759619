package main

import (
	"time"

	"evoprot/internal/dataset"
	"evoprot/internal/infoloss"
	"evoprot/internal/risk"
)

// Measure operations the decorators time.
const (
	opFull    = iota // Loss or Risk
	opPrepare        // Prepare
	opTrial          // ApplyUndo and Undo
	opCommit         // Apply (through Evaluator.Advance on the batch path)
	opClone          // State.CloneState
	numOps
)

var opNames = [numOps]string{"full", "prepare", "trial", "commit", "clone"}

// measureTimer accumulates one measure's calls per operation and opens
// a span per call.
type measureTimer struct {
	name string
	tr   *tracer
	ops  [numOps]opStats
}

func (m *measureTimer) time(op int) func() {
	end := m.tr.begin("measure." + m.name + "." + opNames[op])
	t := time.Now()
	return func() {
		m.ops[op].add(time.Since(t), 0)
		end()
	}
}

// battery is a decorated measure battery with the timers behind it.
type battery struct {
	il     []infoloss.Measure
	dr     []risk.Measure
	timers []*measureTimer
}

// decorate wraps every measure in a timing decorator that exposes exactly
// the wrapped measure's capability set: Reversible, Incremental, or
// neither. The score package picks its evaluation path by those
// capabilities, so a decorated battery takes the same paths and returns
// the same values as the undecorated one.
func decorate(il []infoloss.Measure, dr []risk.Measure, tr *tracer) *battery {
	b := &battery{}
	timer := func(name string) *measureTimer {
		t := &measureTimer{name: name, tr: tr}
		b.timers = append(b.timers, t)
		return t
	}
	for _, m := range il {
		p := ilPlain{m: m, t: timer(m.Name())}
		switch inner := m.(type) {
		case infoloss.Reversible:
			b.il = append(b.il, &ilReversible{ilIncremental{p, inner}, inner})
		case infoloss.Incremental:
			b.il = append(b.il, &ilIncremental{p, inner})
		default:
			b.il = append(b.il, &p)
		}
	}
	for _, m := range dr {
		p := drPlain{m: m, t: timer(m.Name())}
		switch inner := m.(type) {
		case risk.Reversible:
			b.dr = append(b.dr, &drReversible{drIncremental{p, inner}, inner})
		case risk.Incremental:
			b.dr = append(b.dr, &drIncremental{p, inner})
		default:
			b.dr = append(b.dr, &p)
		}
	}
	return b
}

// Information-loss decorators.

type ilPlain struct {
	m infoloss.Measure
	t *measureTimer
}

func (w *ilPlain) Name() string { return w.m.Name() }

func (w *ilPlain) Loss(orig, masked *dataset.Dataset, attrs []int) float64 {
	defer w.t.time(opFull)()
	return w.m.Loss(orig, masked, attrs)
}

type ilIncremental struct {
	ilPlain
	inc infoloss.Incremental
}

// ilState wraps a measure's state so clones are timed too.
type ilState struct {
	s infoloss.State
	t *measureTimer
}

func (s *ilState) CloneState() infoloss.State {
	defer s.t.time(opClone)()
	return &ilState{s: s.s.CloneState(), t: s.t}
}

func (w *ilIncremental) Prepare(orig, masked *dataset.Dataset, attrs []int) infoloss.State {
	done := w.t.time(opPrepare)
	s := w.inc.Prepare(orig, masked, attrs)
	done()
	if s == nil {
		return nil // the measure runs without a fast path; keep the nil contract
	}
	return &ilState{s: s, t: w.t}
}

func (w *ilIncremental) Apply(state infoloss.State, changes []dataset.CellChange) float64 {
	defer w.t.time(opCommit)()
	return w.inc.Apply(state.(*ilState).s, changes)
}

type ilReversible struct {
	ilIncremental
	rev infoloss.Reversible
}

func (w *ilReversible) ApplyUndo(state infoloss.State, changes []dataset.CellChange) float64 {
	defer w.t.time(opTrial)()
	return w.rev.ApplyUndo(state.(*ilState).s, changes)
}

func (w *ilReversible) Undo(state infoloss.State) {
	defer w.t.time(opTrial)()
	w.rev.Undo(state.(*ilState).s)
}

// Disclosure-risk decorators, the same shapes over the risk contract.

type drPlain struct {
	m risk.Measure
	t *measureTimer
}

func (w *drPlain) Name() string { return w.m.Name() }

func (w *drPlain) Risk(orig, masked *dataset.Dataset, attrs []int) float64 {
	defer w.t.time(opFull)()
	return w.m.Risk(orig, masked, attrs)
}

type drIncremental struct {
	drPlain
	inc risk.Incremental
}

type drState struct {
	s risk.State
	t *measureTimer
}

func (s *drState) CloneState() risk.State {
	defer s.t.time(opClone)()
	return &drState{s: s.s.CloneState(), t: s.t}
}

func (w *drIncremental) Prepare(orig, masked *dataset.Dataset, attrs []int) risk.State {
	done := w.t.time(opPrepare)
	s := w.inc.Prepare(orig, masked, attrs)
	done()
	if s == nil {
		return nil
	}
	return &drState{s: s, t: w.t}
}

func (w *drIncremental) Apply(state risk.State, changes []dataset.CellChange) float64 {
	defer w.t.time(opCommit)()
	return w.inc.Apply(state.(*drState).s, changes)
}

type drReversible struct {
	drIncremental
	rev risk.Reversible
}

func (w *drReversible) ApplyUndo(state risk.State, changes []dataset.CellChange) float64 {
	defer w.t.time(opTrial)()
	return w.rev.ApplyUndo(state.(*drState).s, changes)
}

func (w *drReversible) Undo(state risk.State) {
	defer w.t.time(opTrial)()
	w.rev.Undo(state.(*drState).s)
}
