package main

import "fmt"

// endToEndUnits lists the end-to-end metrics a measured run prints, with
// their units; BENCHMARK.json declares the same set.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"alloc_mb_per_job": "MB",
	"peak_rss_mb":      "MB",
	"ok_share":         "ratio",
}

// measureNames are the measures the battery decorators report, the
// paper's seven plus the ML-utility measure.
var measureNames = []string{"CTBIL", "DBIL", "EBIL", "ID", "DBRL", "PRL", "RSRL", "MLU"}

// perLayerUnits lists the per-layer metrics a traced run prints. Work
// counts, bytes and *_ms totals are per job; the serve latencies are
// medians per call; core and islands times are means per generation and
// per epoch.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"serve.submit_ms":         "ms",
		"serve.queue_wait_ms":     "ms",
		"serve.status_ms":         "ms",
		"serve.event_delivery_ms": "ms",
		"serve.result_ms":         "ms",
		"serve.result_bytes":      "bytes",
		"serve.events_per_job":    "count",

		"storage.put_calls":         "count",
		"storage.put_ms":            "ms",
		"storage.append_calls":      "count",
		"storage.append_ms":         "ms",
		"storage.get_calls":         "count",
		"storage.get_ms":            "ms",
		"storage.put_bytes":         "bytes",
		"storage.append_bytes":      "bytes",
		"storage.checkpoint_bytes":  "bytes",
		"storage.checkpoint_put_ms": "ms",

		"cluster.remote_calls":     "count",
		"cluster.remote_ms":        "ms",
		"cluster.remote_bytes":     "bytes",
		"cluster.lease_acquire_ms": "ms",
		"cluster.renew_calls":      "count",

		"protection.build_ms":    "ms",
		"protection.individuals": "count",

		"score.init_ms":                "ms",
		"score.init_per_individual_ms": "ms",

		"core.step_ms":           "ms",
		"core.step_mutation_ms":  "ms",
		"core.step_crossover_ms": "ms",
		"core.self_ms":           "ms",
		"core.alloc_kb_per_gen":  "KB",
		"core.evals_per_gen":     "count",
		"core.accepted_per_gen":  "count",

		"islands.epochs":            "count",
		"islands.epoch_ms":          "ms",
		"islands.barrier_idle_ms":   "ms",
		"islands.between_epochs_ms": "ms",

		"trace.overhead_ms": "ms",
	}
	for _, m := range measureNames {
		for _, op := range opNames {
			u["measure."+m+"."+op+"_ms"] = "ms"
		}
	}
	for _, op := range opNames {
		u["measure."+op+"_calls"] = "count"
	}
	return u
}

// layers assembles a traced run's per-layer metrics. Every metric
// starts at 0, which is also its value on a workload that does not
// exercise the layer (cluster.* outside the cluster workload, MLU
// without an ML target).
type layers struct {
	units   map[string]string
	metrics map[string]metric
}

func newLayers() *layers {
	l := &layers{units: perLayerUnits(), metrics: make(map[string]metric)}
	for name, unit := range l.units {
		l.metrics[name] = metric{0, unit}
	}
	return l
}

func (l *layers) set(name string, v float64) {
	unit, ok := l.units[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: unregistered per-layer metric %q", name))
	}
	l.metrics[name] = metric{v, unit}
}

// perCall divides a total by a count, 0 when nothing happened.
func perCall(total float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// serve reads the service layer off the traced pass's client-side
// observations; event delivery pairs each event's store append with the
// client's read of the same event.
func (l *layers) serve(outs []outcome, st *timedStore) {
	var submit, wait, status, result, bytes, delivery []float64
	events := 0
	for _, o := range outs {
		submit = append(submit, ms(o.submit))
		wait = append(wait, ms(o.queueWait))
		status = append(status, ms(o.status))
		result = append(result, ms(o.result))
		bytes = append(bytes, float64(o.resultBytes))
		events += len(o.events)
		appended := st.appendTimes(o.id)
		for k, r := range o.events {
			if k < len(appended) {
				delivery = append(delivery, ms(r.at.Sub(appended[k])))
			}
		}
	}
	l.set("serve.submit_ms", median(submit))
	l.set("serve.queue_wait_ms", median(wait))
	l.set("serve.status_ms", median(status))
	l.set("serve.event_delivery_ms", median(delivery))
	l.set("serve.result_ms", median(result))
	l.set("serve.result_bytes", median(bytes))
	l.set("serve.events_per_job", float64(events)/float64(len(outs)))
}

func (l *layers) storage(st *timedStore, jobs int) {
	j := float64(jobs)
	l.set("storage.put_calls", float64(st.put.calls.Load())/j)
	l.set("storage.put_ms", st.put.ms()/j)
	l.set("storage.append_calls", float64(st.append_.calls.Load())/j)
	l.set("storage.append_ms", st.append_.ms()/j)
	l.set("storage.get_calls", float64(st.get.calls.Load())/j)
	l.set("storage.get_ms", st.get.ms()/j)
	l.set("storage.put_bytes", float64(st.put.bytes.Load())/j)
	l.set("storage.append_bytes", float64(st.append_.bytes.Load())/j)
	n := st.checkpoint.calls.Load()
	l.set("storage.checkpoint_bytes", perCall(float64(st.checkpoint.bytes.Load()), n))
	l.set("storage.checkpoint_put_ms", perCall(st.checkpoint.ms(), n))
}

func (l *layers) cluster(rt *timedTransport, jobs int) {
	if rt == nil {
		return
	}
	j := float64(jobs)
	l.set("cluster.remote_calls", float64(rt.remote.calls.Load())/j)
	l.set("cluster.remote_ms", rt.remote.ms()/j)
	l.set("cluster.remote_bytes", float64(rt.remote.bytes.Load())/j)
	l.set("cluster.lease_acquire_ms", perCall(rt.acquire.ms(), rt.acquire.calls.Load()))
	l.set("cluster.renew_calls", float64(rt.renew.calls.Load())/j)
}

// replays reads the protection, score, core, islands and measure layers
// off the replays.
func (l *layers) replays(reps []replayed, m *stepMeter, bar *timedBarrier, bats []*battery) {
	j := float64(len(reps))
	var build, init int64
	individuals := 0
	for _, r := range reps {
		build += r.buildNs
		init += r.initNs
		individuals += r.individuals
	}
	l.set("protection.build_ms", float64(build)/1e6/j)
	l.set("protection.individuals", float64(individuals)/j)
	l.set("score.init_ms", float64(init)/1e6/j)
	l.set("score.init_per_individual_ms", perCall(float64(init)/1e6, int64(individuals)))

	steps := int64(m.steps)
	l.set("core.step_ms", perCall(float64(m.stepNs)/1e6, steps))
	l.set("core.step_mutation_ms", perCall(float64(m.mutationNs)/1e6, int64(m.mutations)))
	l.set("core.step_crossover_ms", perCall(float64(m.crossoverNs)/1e6, int64(m.crossovers)))
	l.set("core.self_ms", perCall(float64(m.selfNs)/1e6, steps))
	l.set("core.alloc_kb_per_gen", perCall(float64(m.allocBytes)/1024, steps))
	l.set("core.evals_per_gen", perCall(float64(m.evals), steps))
	l.set("core.accepted_per_gen", perCall(float64(m.accepted), steps))

	l.set("islands.epochs", float64(bar.epochs)/j)
	l.set("islands.epoch_ms", perCall(float64(bar.epochNs)/1e6, int64(bar.epochs)))
	l.set("islands.barrier_idle_ms", perCall(float64(bar.idleNs)/1e6, int64(bar.epochs)))
	l.set("islands.between_epochs_ms", perCall(float64(bar.betweenNs)/1e6, int64(bar.gaps)))

	var calls [numOps]int64
	for _, b := range bats {
		for _, t := range b.timers {
			for op := range t.ops {
				calls[op] += t.ops[op].calls.Load()
				name := "measure." + t.name + "." + opNames[op] + "_ms"
				prev := l.metrics[name].Value
				l.set(name, prev+float64(t.ops[op].nanos.Load())/1e6/j)
			}
		}
	}
	for op, n := range calls {
		l.set("measure."+opNames[op]+"_calls", float64(n)/j)
	}
}
