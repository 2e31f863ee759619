package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"evoprot"
	"evoprot/internal/core"
	"evoprot/internal/experiment"
	"evoprot/internal/infoloss"
	"evoprot/internal/islands"
	"evoprot/internal/risk"
	"evoprot/internal/score"
	"evoprot/internal/serve"
)

// timedBarrier decorates an islands.EpochBarrier: it times each epoch,
// the idle time islands spend waiting at the barrier for the slowest
// one, and the gaps between epochs, where migration and checkpoints run.
type timedBarrier struct {
	inner islands.EpochBarrier
	tr    *tracer

	epochs          int
	epochNs, idleNs int64
	gaps            int
	betweenNs       int64
	lastEnd         time.Time
	// around, when set, brackets each island's epoch on the calling
	// goroutine (the low-level replay's step meter).
	around func(island int, run func(int))
}

func (b *timedBarrier) RunEpoch(ctx context.Context, active []int, run func(int)) error {
	start := time.Now()
	if !b.lastEnd.IsZero() {
		b.gaps++
		b.betweenNs += int64(start.Sub(b.lastEnd))
	}
	var (
		mu   sync.Mutex
		ends []time.Time
	)
	err := b.inner.RunEpoch(ctx, active, func(i int) {
		if b.around != nil {
			b.around(i, run)
		} else {
			run(i)
		}
		mu.Lock()
		ends = append(ends, time.Now())
		mu.Unlock()
	})
	end := time.Now()
	b.epochs++
	b.epochNs += int64(end.Sub(start))
	var last time.Time
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	for _, e := range ends {
		b.idleNs += int64(last.Sub(e))
	}
	b.tr.record(b.tr.current(), "islands.epoch", start, end, 0)
	b.lastEnd = end
	return err
}

// sequentialBarrier runs island epochs one after another on the calling
// goroutine — a conforming barrier, so the trajectory is unchanged, and
// measure spans nest under the epoch that made them.
type sequentialBarrier struct{}

func (sequentialBarrier) RunEpoch(_ context.Context, active []int, run func(int)) error {
	for _, i := range active {
		run(i)
	}
	return nil
}

// stepMeter times engine generations from outside the engine: wall
// time, the measure time inside it, and heap bytes allocated.
type stepMeter struct {
	bat *battery

	start   time.Time
	allocs  uint64
	measure int64

	steps, mutations, crossovers int
	stepNs, mutationNs           int64
	crossoverNs, selfNs          int64
	allocBytes                   uint64
	evals, accepted              int
}

func (b *battery) measureNanos() int64 {
	var n int64
	for _, t := range b.timers {
		for op := range t.ops {
			n += t.ops[op].nanos.Load()
		}
	}
	return n
}

func (m *stepMeter) begin() {
	m.start = time.Now()
	m.allocs = heapAllocs()
	m.measure = m.bat.measureNanos()
}

func (m *stepMeter) end(gs core.GenStats) {
	d := int64(time.Since(m.start))
	m.allocBytes += heapAllocs() - m.allocs
	m.selfNs += d - (m.bat.measureNanos() - m.measure)
	m.steps++
	m.stepNs += d
	if gs.Op == "mutation" {
		m.mutations++
		m.mutationNs += d
	} else {
		m.crossovers++
		m.crossoverNs += d
	}
	m.evals += gs.Evals
	m.accepted += gs.Accepted
}

// replayed is one job's replay: its result and the layer timings.
type replayed struct {
	best        *core.Individual
	generations int
	buildNs     int64
	initNs      int64
	individuals int
}

// sameResult requires a replay to reproduce the daemon's result bit for
// bit: best IL, DR and score, and the generation count.
func sameResult(what string, best *core.Individual, generations int, want serve.JobResult) error {
	if best == nil {
		return fmt.Errorf("%s replay produced no best individual", what)
	}
	if best.Eval.IL != want.Best.IL || best.Eval.DR != want.Best.DR || best.Eval.Score != want.Best.Score || generations != want.Generations {
		return fmt.Errorf("%s replay gives IL %v DR %v score %v over %d generations, daemon gave IL %v DR %v score %v over %d",
			what, best.Eval.IL, best.Eval.DR, best.Eval.Score, generations,
			want.Best.IL, want.Best.DR, want.Best.Score, want.Generations)
	}
	return nil
}

// facadeReplay reruns spec through the public facade — spec.Options,
// NewRunner, Run — with a timing barrier and the daemon's checkpoint
// cadence into a discarding sink, so between-epoch time includes the
// snapshot encoding the daemon pays. It returns the result and how many
// progress events the run emitted.
func facadeReplay(spec evoprot.JobSpec, bar *timedBarrier) (*evoprot.RunResult, int, error) {
	orig, spec, err := originalOf(spec)
	if err != nil {
		return nil, 0, err
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, 0, err
	}
	var events int
	opts = append(opts,
		evoprot.WithEpochBarrier(bar),
		evoprot.WithProgress(func(evoprot.Event) { events++ }),
		evoprot.WithCheckpointSink(func([]byte) error { return nil }, serve.DefaultCheckpointEvery),
	)
	r, err := evoprot.NewRunner(orig, spec.Attributes, opts...)
	if err != nil {
		return nil, 0, err
	}
	res, err := r.Run(context.Background())
	return res, events, err
}

// lowLevelReplay rebuilds spec's run from the internal packages with a
// decorated measure battery: experiment.BuildPopulation, then
// core.NewEngine and Engine.Step timed from outside for one island, or
// islands.New over a sequential barrier for several.
func lowLevelReplay(spec evoprot.JobSpec, bat func([]infoloss.Measure, []risk.Measure) *battery, meter *stepMeter, tr *tracer) (replayed, error) {
	var out replayed
	orig, spec, err := originalOf(spec)
	if err != nil {
		return out, err
	}
	attrs, err := orig.Schema().Indices(spec.Attributes...)
	if err != nil {
		return out, err
	}
	il := infoloss.Default()
	if spec.MLTarget != "" {
		target, err := orig.Schema().Indices(spec.MLTarget)
		if err != nil {
			return out, err
		}
		il = append(il, &infoloss.MLUtility{Target: target[0]})
	}
	b := bat(il, risk.Default())
	meter.bat = b
	cfg := score.Config{IL: b.il, DR: b.dr}
	if spec.Aggregator != "" {
		if cfg.Aggregator, err = score.ExtendedAggregatorByName(spec.Aggregator); err != nil {
			return out, err
		}
	}
	eval, err := score.NewEvaluator(orig, attrs, cfg)
	if err != nil {
		return out, err
	}
	sel, err := core.SelectionByName(spec.Selection)
	if err != nil {
		return out, err
	}
	engine := core.Config{
		Generations:         spec.Budget(),
		Seed:                spec.Seed,
		InitWorkers:         spec.Workers,
		EvalWorkers:         spec.EvalWorkers,
		Selection:           sel,
		Objective:           spec.Objective,
		NoImprovementWindow: spec.EarlyStop,
	}
	if spec.ParetoRef != nil {
		engine.ParetoRef = score.Pair{IL: spec.ParetoRef.IL, DR: spec.ParetoRef.DR}
	}

	t := time.Now()
	endBuild := tr.begin("protection.build")
	initial, err := experiment.BuildPopulation(orig, attrs, spec.Grid, spec.Seed)
	endBuild()
	out.buildNs = int64(time.Since(t))
	if err != nil {
		return out, err
	}
	out.individuals = len(initial)

	n := islandsOf(spec.Islands)
	if n == 1 {
		t = time.Now()
		endInit := tr.begin("score.init")
		eng, err := core.NewEngine(eval, initial, engine)
		endInit()
		out.initNs = int64(time.Since(t))
		if err != nil {
			return out, err
		}
		for g := 0; g < engine.Generations; g++ {
			meter.begin()
			endStep := tr.begin("core.step")
			gs := eng.Step()
			endStep()
			meter.end(gs)
		}
		out.best, out.generations = eng.Best(), eng.ExecutedGenerations()
		return out, nil
	}

	topo, err := islands.TopologyByName(spec.Topology)
	if err != nil {
		return out, err
	}
	bar := &timedBarrier{inner: sequentialBarrier{}, tr: tr}
	bar.around = func(i int, run func(int)) {
		end := tr.begin("islands.island_epoch")
		meter.begin()
		run(i)
		end()
	}
	icfg := islands.Config{
		Islands:      n,
		MigrateEvery: spec.MigrateEvery,
		Migrants:     spec.Migrants,
		Topology:     topo,
		Engine:       engine,
		Barrier:      bar,
		OnEvent: func(ev islands.Event) {
			if ev.Island >= 0 && !ev.Done {
				meter.end(ev.Stats)
				meter.begin()
			}
		},
	}
	if spec.Niches != "" {
		if icfg.PerIsland, err = islands.NichesByName(spec.Niches, n); err != nil {
			return out, err
		}
	}
	t = time.Now()
	endInit := tr.begin("score.init")
	ir, err := islands.New(context.Background(), eval, initial, icfg)
	endInit()
	out.initNs = int64(time.Since(t))
	if err != nil {
		return out, err
	}
	res, err := ir.Run(context.Background())
	if err != nil {
		return out, err
	}
	out.best, out.generations = res.Best, res.Generations
	return out, nil
}

// runTraced is the per-layer run. It runs the workload's traced job set
// twice against the daemon — once bare, once with timing decorators on
// the store and the worker transport — then replays every job through
// the facade and through the internal packages with decorated measures,
// requiring each replay to reproduce the daemon's result bit for bit.
func runTraced(w workload, o options, dir string) (result, map[string]any, error) {
	specs := w.specs(o.seed)

	sys, err := boot(w, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return result{}, nil, err
	}
	plain, _ := drive(sys, w, specs, 0, w.traceJobs)
	if err := sys.stop(); err != nil {
		return result{}, nil, err
	}

	tr := newTracer()
	sys, err = boot(w, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return result{}, nil, err
	}
	traced, _ := drive(sys, w, specs, 0, w.traceJobs)
	if err := sys.stop(); err != nil {
		return result{}, nil, err
	}

	all := append(append([]outcome(nil), plain...), traced...)
	gate := checkOutcomes(all)
	res := result{Correct: gate.ok(), Attempted: len(all), Failed: gate.failed}
	info := gate.info()
	if gate.failed > 0 {
		return res, info, fmt.Errorf("%d of %d traced-run jobs failed", gate.failed, len(all))
	}

	pl := newLayers()
	pl.serve(traced, sys.store)
	pl.storage(sys.store, len(traced))
	pl.cluster(sys.rt, len(traced))

	var (
		bats    []*battery
		meter   = &stepMeter{}
		facade  = &timedBarrier{inner: islands.InProcessBarrier{}, tr: tr}
		replays []replayed
	)
	for _, o := range traced {
		tr.record(o.id, "job", o.start, o.start.Add(o.total), int64(o.resultBytes))
		tr.setTrace(o.id)
		facade.lastEnd = time.Time{}
		fres, events, err := facadeReplay(o.spec, facade)
		if err != nil {
			return res, info, fmt.Errorf("facade replay of job %s: %w", o.id, err)
		}
		if err := sameResult("facade", fres.Best, fres.Generations, o.res); err != nil {
			res.Correct = false
			return res, info, fmt.Errorf("job %s: %w", o.id, err)
		}
		if events != len(o.events) {
			res.Correct = false
			return res, info, fmt.Errorf("job %s: facade replay emitted %d events, the daemon's feed holds %d", o.id, events, len(o.events))
		}
		rep, err := lowLevelReplay(o.spec, func(il []infoloss.Measure, dr []risk.Measure) *battery {
			b := decorate(il, dr, tr)
			bats = append(bats, b)
			return b
		}, meter, tr)
		if err != nil {
			return res, info, fmt.Errorf("low-level replay of job %s: %w", o.id, err)
		}
		if err := sameResult("low-level", rep.best, rep.generations, o.res); err != nil {
			res.Correct = false
			return res, info, fmt.Errorf("job %s: %w", o.id, err)
		}
		replays = append(replays, rep)
	}
	pl.replays(replays, meter, facade, bats)

	var plainS, tracedS []float64
	for _, o := range plain {
		plainS = append(plainS, o.total.Seconds())
	}
	for _, o := range traced {
		tracedS = append(tracedS, o.total.Seconds())
	}
	pl.set("trace.overhead_ms", 1000*(median(tracedS)-median(plainS)))
	res.Metrics = pl.metrics

	self := tr.selfTimes()
	path := filepath.Join(o.workDir, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return res, info, err
	}
	info["trace_file"] = path
	info["untraced_job_s"] = median(plainS)
	info["traced_job_s"] = median(tracedS)
	selfMs := make(map[string]float64)
	for name, d := range self {
		selfMs[name] = ms(d)
	}
	info["self_ms"] = selfMs
	return res, info, nil
}
