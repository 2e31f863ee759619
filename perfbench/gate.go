package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"evoprot"
	"evoprot/internal/dataset"
	"evoprot/internal/infoloss"
	"evoprot/internal/serve"
)

// gateReport is the correctness gate's verdict over a run's outcomes.
type gateReport struct {
	// failed counts jobs that errored, were refused, or failed a check.
	failed int
	// problems lists every failed check; any one fails the run.
	problems []string
	// errors lists jobs that never produced a result; they count as
	// failed but do not make the run incorrect.
	errors []string
}

func (g gateReport) ok() bool { return len(g.problems) == 0 }

func (g gateReport) info() map[string]any {
	first := func(xs []string) []string { return xs[:min(len(xs), 5)] }
	info := map[string]any{"gate_failed": g.failed}
	if len(g.problems) > 0 {
		info["gate_problems"] = first(g.problems)
	}
	if len(g.errors) > 0 {
		info["job_errors"] = first(g.errors)
	}
	return info
}

// fingerprint is what a repeated fixed-seed job must reproduce exactly.
type fingerprint struct {
	best        serve.BestSummary
	generations int
	datasetCSV  string
}

// oracle re-scores returned datasets from scratch with the facade
// evaluator, against the original file exactly as the daemon stores it.
type oracle struct {
	eval   *evoprot.Evaluator
	schema *evoprot.Schema
}

// specKey identifies a spec for the repeat check and the oracle cache.
func specKey(s evoprot.JobSpec) string {
	b, _ := json.Marshal(s) // a JobSpec always marshals
	return string(b)
}

// originalOf materializes spec's original dataset the way the daemon
// does: generated, stored as CSV and read back, which infers the schema
// the job's evaluator sees. It returns the normalized spec as well.
func originalOf(spec evoprot.JobSpec) (*evoprot.Dataset, evoprot.JobSpec, error) {
	orig, err := spec.Materialize()
	if err != nil {
		return nil, spec, err
	}
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		return nil, spec, err
	}
	orig, err = evoprot.ReadCSV(&buf)
	return orig, spec, err
}

func newOracle(spec evoprot.JobSpec) (*oracle, error) {
	orig, spec, err := originalOf(spec)
	if err != nil {
		return nil, err
	}
	var cfg evoprot.EvaluatorConfig
	if spec.Aggregator != "" {
		if cfg.Aggregator, err = evoprot.AggregatorByName(spec.Aggregator); err != nil {
			return nil, err
		}
	}
	if spec.MLTarget != "" {
		target, err := orig.Schema().Indices(spec.MLTarget)
		if err != nil {
			return nil, err
		}
		cfg.IL = append(infoloss.Default(), &infoloss.MLUtility{Target: target[0]})
	}
	eval, err := evoprot.NewEvaluator(orig, spec.Attributes, cfg)
	if err != nil {
		return nil, err
	}
	return &oracle{eval: eval, schema: orig.Schema()}, nil
}

// rescore requires the returned dataset to score exactly the reported
// best (IL, DR, score).
func (or *oracle) rescore(res serve.JobResult) error {
	masked, err := dataset.ReadCSVWithSchema(strings.NewReader(res.DatasetCSV), or.schema)
	if err != nil {
		return fmt.Errorf("decoding dataset_csv: %w", err)
	}
	ev, err := or.eval.Evaluate(masked)
	if err != nil {
		return err
	}
	if ev.IL != res.Best.IL || ev.DR != res.Best.DR || ev.Score != res.Best.Score {
		return fmt.Errorf("re-scored dataset gives IL %v DR %v score %v, result reports IL %v DR %v score %v",
			ev.IL, ev.DR, ev.Score, res.Best.IL, res.Best.DR, res.Best.Score)
	}
	return nil
}

// checkFeed requires the event feed's Seq values to run contiguously
// from 0 and every island's last generation to equal the budget.
func checkFeed(o outcome) error {
	last := make(map[int]int)
	for i, r := range o.events {
		if r.ev.Seq != uint64(i) {
			return fmt.Errorf("event %d carries seq %d", i, r.ev.Seq)
		}
		if r.ev.Island >= 0 && !r.ev.Done && r.ev.Stats.Gen > last[r.ev.Island] {
			last[r.ev.Island] = r.ev.Stats.Gen
		}
	}
	budget := o.spec.Budget()
	islands := islandsOf(o.spec.Islands)
	if len(last) != islands {
		return fmt.Errorf("feed has generation events from %d islands, want %d", len(last), islands)
	}
	for i, g := range last {
		if g != budget {
			return fmt.Errorf("island %d's last generation is %d, budget %d", i, g, budget)
		}
	}
	if o.res.Generations != budget {
		return fmt.Errorf("result reports %d generations, budget %d", o.res.Generations, budget)
	}
	return nil
}

// checkOutcomes runs the correctness gate over every outcome: feed
// integrity, an exact re-score of the returned dataset, and identical
// results for repeated fixed-seed specs.
func checkOutcomes(outs []outcome) gateReport {
	var g gateReport
	oracles := make(map[string]*oracle)
	firsts := make(map[string]fingerprint)
	for _, o := range outs {
		if o.err != nil {
			g.failed++
			g.errors = append(g.errors, o.err.Error())
			continue
		}
		if err := checkOutcome(o, oracles, firsts); err != nil {
			g.failed++
			g.problems = append(g.problems, fmt.Sprintf("job %s: %v", o.id, err))
		}
	}
	return g
}

func checkOutcome(o outcome, oracles map[string]*oracle, firsts map[string]fingerprint) error {
	if err := checkFeed(o); err != nil {
		return err
	}
	key := specKey(o.spec)
	or, ok := oracles[key]
	if !ok {
		var err error
		if or, err = newOracle(o.spec); err != nil {
			return fmt.Errorf("building the re-scoring oracle: %w", err)
		}
		oracles[key] = or
	}
	if err := or.rescore(o.res); err != nil {
		return err
	}
	fp := fingerprint{best: o.res.Best, generations: o.res.Generations, datasetCSV: o.res.DatasetCSV}
	if first, seen := firsts[key]; !seen {
		firsts[key] = fp
	} else if first != fp {
		return fmt.Errorf("repeated fixed-seed job differs from its first run: best %+v vs %+v", fp.best, first.best)
	}
	return nil
}
