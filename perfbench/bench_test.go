package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/dataset"
	"evoprot/internal/experiment"
	"evoprot/internal/infoloss"
	"evoprot/internal/risk"
	"evoprot/internal/score"
)

// tiny shrinks a workload's jobs so every code path runs in seconds.
func tiny(w workload) workload {
	specs := w.specs
	w.specs = func(seed uint64) []evoprot.JobSpec {
		out := specs(seed)
		for i := range out {
			if csv := out[i].DatasetCSV; csv != "" {
				out[i].DatasetCSV = strings.Join(strings.SplitAfter(csv, "\n")[:81], "")
			}
			out[i].Rows = 80
			out[i].Generations = 6
			if out[i].Islands > 1 {
				out[i].MigrateEvery = 3
			}
		}
		return out
	}
	w.traceJobs = 2
	return w
}

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloadNames []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range doc.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	sort.Strings(workloadNames)
	return endToEnd, perLayer, workloadNames
}

// requireMetrics checks that a result prints exactly the declared names,
// each with its declared unit.
func requireMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s not printed", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s printed but not declared", name)
		}
	}
}

func TestDeclaredMetricsMatchTheCode(t *testing.T) {
	e2e, layer, names := declared(t)
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", e2e, endToEndUnits)
	}
	if !reflect.DeepEqual(layer, perLayerUnits()) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's per-layer set")
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
}

// TestWorkloadsAtTinySize runs every workload's measured and traced
// paths end to end on shrunken jobs and checks that each prints every
// declared metric with its unit and passes the correctness gate.
func TestWorkloadsAtTinySize(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and runs jobs")
	}
	e2e, layer, _ := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := tiny(workloads[name])
			o := options{workload: name, seed: 3, seconds: 1, workDir: t.TempDir()}
			res, info, err := runMeasured(w, o, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("measured run: %+v %v", res, info)
			}
			requireMetrics(t, res.Metrics, e2e)
			for n, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}
			times, _ := info["times"].(map[string]metric)
			for _, n := range []string{"job_s", "job_s_median", "job_s_tail", "jobs_per_min", "gens_per_s", "first_event_ms", "cpu_s_per_job"} {
				if m, ok := times[n]; !ok || !(m.Value > 0) || m.Unit == "" {
					t.Errorf("diagnostic time %s = %+v, want a positive value with its unit", n, m)
				}
			}

			res, info, err = runTraced(w, o, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: %+v %v", res, info)
			}
			requireMetrics(t, res.Metrics, layer)
			for _, n := range []string{"storage.append_calls", "protection.individuals", "score.init_ms",
				"core.step_ms", "islands.epochs", "measure.PRL.full_ms", "measure.prepare_calls", "serve.events_per_job"} {
				if !(res.Metrics[n].Value > 0) {
					t.Errorf("per-layer metric %s = %v, want > 0", n, res.Metrics[n].Value)
				}
			}
			if w.cluster && !(res.Metrics["cluster.remote_calls"].Value > 0) {
				t.Errorf("cluster workload made no remote calls")
			}
		})
	}
}

func TestSpecsFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b, c := w.specs(7), w.specs(7), w.specs(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed generated different specs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds generated the same specs", name)
		}
		for _, s := range a {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: invalid spec %+v: %v", name, s, err)
			}
		}
	}
}

// TestGateRejectsCorruptedResults runs real jobs, confirms the gate
// passes them, then corrupts one thing at a time.
func TestGateRejectsCorruptedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon and runs jobs")
	}
	w := tiny(workloads["paper-flare"])
	sys, err := boot(w, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := drive(sys, w, w.specs(5), 0, 2)
	if err := sys.stop(); err != nil {
		t.Fatal(err)
	}
	if g := checkOutcomes(outs); !g.ok() || g.failed != 0 {
		t.Fatalf("gate rejects genuine results: %+v", g)
	}

	corrupt := map[string]func(o *outcome){
		"reported IL":    func(o *outcome) { o.res.Best.IL += 1e-9 },
		"reported score": func(o *outcome) { o.res.Best.Score *= 1.0000001 },
		"protected cell": func(o *outcome) {
			o.res.DatasetCSV = flipCell(t, o.spec, o.res.DatasetCSV)
		},
		"missing event": func(o *outcome) {
			o.events = append(o.events[:3:3], o.events[4:]...)
		},
		"short feed": func(o *outcome) {
			o.events = o.events[:len(o.events)/2]
		},
	}
	for what, f := range corrupt {
		bad := outs[1]
		bad.events = append([]received(nil), outs[1].events...)
		f(&bad)
		g := checkOutcomes([]outcome{outs[0], bad})
		if g.ok() || g.failed != 1 {
			t.Errorf("corrupted %s passed the gate: %+v", what, g)
		}
	}

	// A repeat that differs from its first run: the first run's
	// fingerprint is recorded with another dataset.
	firsts := map[string]fingerprint{specKey(outs[1].spec): {best: outs[1].res.Best, generations: outs[1].res.Generations, datasetCSV: "other"}}
	if err := checkOutcome(outs[1], map[string]*oracle{}, firsts); err == nil || !strings.Contains(err.Error(), "repeated") {
		t.Errorf("a differing repeat passed the gate: %v", err)
	}
}

// flipCell changes one protected cell of a returned dataset to another
// category.
func flipCell(t *testing.T, spec evoprot.JobSpec, csv string) string {
	t.Helper()
	orig, spec, err := originalOf(spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.ReadCSVWithSchema(strings.NewReader(csv), orig.Schema())
	if err != nil {
		t.Fatal(err)
	}
	col, _ := orig.Schema().IndexOf(spec.Attributes[0])
	d.Set(0, col, (d.At(0, col)+1)%orig.Schema().Attr(col).Cardinality())
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDecoratorsAreTransparent compares decorated and undecorated
// batteries on random masked files: full evaluations and generation
// batches must agree bit for bit, with and without the non-incremental
// ML-utility measure.
func TestDecoratorsAreTransparent(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		orig, err := evoprot.GenerateDataset("flare", 120, seed)
		if err != nil {
			t.Fatal(err)
		}
		names, _ := evoprot.ProtectedAttributes("flare")
		attrs, err := orig.Schema().Indices(names...)
		if err != nil {
			t.Fatal(err)
		}
		pop, err := experiment.BuildPopulation(orig, attrs, "flare", seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, withMLU := range []bool{false, true} {
			il := func() []infoloss.Measure {
				if withMLU {
					return append(infoloss.Default(), &infoloss.MLUtility{Target: attrs[0]})
				}
				return infoloss.Default()
			}
			plain, err := score.NewEvaluator(orig, attrs, score.Config{IL: il(), DR: risk.Default()})
			if err != nil {
				t.Fatal(err)
			}
			bat := decorate(il(), risk.Default(), newTracer())
			dec, err := score.NewEvaluator(orig, attrs, score.Config{IL: bat.il, DR: bat.dr})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Batchable() != dec.Batchable() {
				t.Fatalf("decoration changed Batchable: %v vs %v", plain.Batchable(), dec.Batchable())
			}
			rng := rand.New(rand.NewPCG(seed, 17))
			for i := 0; i < len(pop); i += 9 {
				base := pop[i].Data
				want, err := plain.Evaluate(base)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dec.Evaluate(base)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("Evaluate differs: %+v vs %+v", want, got)
				}
				compareBatches(t, rng, plain, dec, base, attrs, want)
			}
			calls := int64(0)
			for _, tm := range bat.timers {
				calls += tm.ops[opFull].calls.Load() + tm.ops[opTrial].calls.Load()
			}
			if calls == 0 {
				t.Fatal("the decorators timed nothing")
			}
		}
	}
}

// compareBatches scores the same random offspring through both
// evaluators' EvaluateBatch, each from its own prepared parent state.
func compareBatches(t *testing.T, rng *rand.Rand, plain, dec *score.Evaluator, base *evoprot.Dataset, attrs []int, parent score.Evaluation) {
	t.Helper()
	var offspring []score.BatchOffspring
	for k := 0; k < 5; k++ {
		child := base.Clone()
		var changes []dataset.CellChange
		for n := 0; n <= k%3; n++ {
			changes = append(changes, dataset.RandomChange(rng, child, attrs))
		}
		offspring = append(offspring, score.BatchOffspring{Child: child, Changes: changes})
	}
	batch := func(e *score.Evaluator) []score.BatchOffspring {
		st, err := e.Prepare(base)
		if err != nil {
			t.Fatal(err)
		}
		grp := []score.BatchGroup{{Parent: parent, State: st, Offspring: append([]score.BatchOffspring(nil), offspring...)}}
		if err := e.EvaluateBatch(grp, 1); err != nil {
			t.Fatal(err)
		}
		return grp[0].Offspring
	}
	want, got := batch(plain), batch(dec)
	for k := range want {
		if !reflect.DeepEqual(want[k].Eval, got[k].Eval) {
			t.Fatalf("EvaluateBatch offspring %d differs: %+v vs %+v", k, want[k].Eval, got[k].Eval)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p := tail(xs)
	if v != 30 || p != 75 {
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75", v, p)
	}
	for _, n := range []int{5, 20} {
		if v, p := tail(xs[:n]); v != float64(n) || p != 100 {
			t.Errorf("tail of 1..%d = %v at p%v, want the maximum", n, v, p)
		}
	}
}

// TestGensPerSecondSumsStampedTimes pins the rate's estimator: island
// generations over the sum of their stamped times, so a costly
// generation counts in full whatever the median, and runner-level and
// Done events count not at all.
func TestGensPerSecondSumsStampedTimes(t *testing.T) {
	ev := func(island int, done bool, d time.Duration) received {
		var e feedEvent
		e.Island, e.Done, e.Stats.TotalTime = island, done, d
		return received{ev: e}
	}
	o := outcome{events: []received{
		ev(0, false, time.Millisecond),
		ev(1, false, time.Millisecond),
		ev(0, false, 98*time.Millisecond),
		ev(1, false, 100*time.Millisecond),
		ev(-1, false, time.Second),
		ev(0, true, time.Second),
	}}
	if r, ok := gensPerSecond(o); !ok || math.Abs(r-20) > 1e-9 {
		t.Errorf("gensPerSecond = %v, %v; want 4 generations over 0.2 s = 20", r, ok)
	}
	if _, ok := gensPerSecond(outcome{}); ok {
		t.Error("gensPerSecond of a job without generation events reports a rate")
	}
}
