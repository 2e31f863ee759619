package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest order statistic with at least ten samples
// above it, as the percentile it sits at. A sample too small for that
// statistic to lie above the median (fewer than 21 values) has no such
// tail; then it returns the maximum, the 100th percentile.
func tail(xs []float64) (value, percentile float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	if n <= 20 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// speed is the machine-speed diagnostic: two fixed loops timed in
// milliseconds.
type speed struct{ aluMs, memMs float64 }

// speedSink keeps the loops' results observable so the compiler cannot
// drop them.
var speedSink uint64

// machineSpeed times a fixed pure-ALU loop and a fixed memory-bound
// pointer chase over a 32 MiB table. Each is the best of three passes.
func machineSpeed() speed {
	best := func(f func()) float64 {
		b := math.Inf(1)
		for i := 0; i < 3; i++ {
			t := time.Now()
			f()
			b = math.Min(b, float64(time.Since(t).Nanoseconds())/1e6)
		}
		return b
	}
	alu := best(func() {
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		speedSink += x
	})
	const slots = 4 << 20 // 32 MiB of uint64
	table := make([]uint64, slots)
	x := uint64(1)
	for i := range table {
		x = x*6364136223846793005 + 1442695040888963407
		table[i] = x % slots
	}
	mem := best(func() {
		p := uint64(0)
		for i := 0; i < 500_000; i++ {
			p = table[p]
		}
		speedSink += p
	})
	return speed{aluMs: alu, memMs: mem}
}

// usageMeter brackets a measurement window with process CPU time and
// heap-allocation counters, and resets the kernel's peak-RSS mark so the
// window's peak leaves out the machine-speed loops and the set-ups.
type usageMeter struct {
	cpu    time.Duration
	allocs uint64
}

// cost is what a window consumed.
type cost struct {
	cpu        time.Duration
	allocBytes uint64
	maxRSSKB   int64
}

const allocMetric = "/gc/heap/allocs:bytes"

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: allocMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startUsage() (*usageMeter, error) {
	// Hand freed pages back first, so the reset mark starts from what the
	// process really holds.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	return &usageMeter{cpu: cpuTime(rusage()), allocs: heapAllocs()}, nil
}

func (u *usageMeter) stop() (cost, error) {
	c := cost{
		cpu:        cpuTime(rusage()) - u.cpu,
		allocBytes: heapAllocs() - u.allocs,
	}
	var err error
	c.maxRSSKB, err = peakRSSKB()
	return c, err
}

// peakRSSKB reads the process's peak resident set since the last reset
// (VmHWM) from /proc/self/status.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// islandsOf is the island count a spec runs.
func islandsOf(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// gensPerSecond is one job's generation rate per island: its generations
// over the generation times the engine stamps on their events, pooled
// over islands. The stamps leave event delivery and barrier waits out;
// summing them keeps the rare costly generations in, which a median
// would drop or not depending on the trajectory (at paper scale a
// crossover generation costs ~100 times a mutation one).
func gensPerSecond(o outcome) (float64, bool) {
	var gens int
	var busy time.Duration
	for _, r := range o.events {
		if r.ev.Island < 0 || r.ev.Done {
			continue
		}
		gens++
		busy += r.ev.Stats.TotalTime
	}
	if gens == 0 || busy <= 0 {
		return 0, false
	}
	return float64(gens) / busy.Seconds(), true
}

// bySpec collects one value per job, keyed by the job's spec in the
// workload's pool.
type bySpec map[int][]float64

func (b bySpec) add(slot int, v float64) { b[slot] = append(b[slot], v) }

// typical is the median over specs of each spec's q-quantile. Repeats of
// one spec are the same work, so their spread is the machine's: a low
// quantile (q 0.25 for times, 0.75 for rates) keeps the machine's slow
// phases out of the estimate without mixing job sizes.
func (b bySpec) typical(q float64) float64 {
	var per []float64
	for _, xs := range b {
		per = append(per, quantile(xs, q))
	}
	return median(per)
}

// endToEnd computes a measured run's end-to-end metrics from the
// window's outcomes: the gated ones for the result line and the time
// figures for the diagnostic line, by name with their units. elapsed is
// the window from the first submission to the last result; of the run's
// attempted jobs (warm-ups included), failed errored or failed the
// correctness gate. NOTES.md says why the time figures are not gated:
// the machine's slow phases move them by more than any allowed bound.
func endToEnd(outs []outcome, elapsed time.Duration, setups []time.Duration, c cost, attempted, failed int) (map[string]metric, map[string]any, error) {
	jobS, firstMs, gps := bySpec{}, bySpec{}, bySpec{}
	var all []float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		all = append(all, o.total.Seconds())
		jobS.add(o.slot, o.total.Seconds())
		firstMs.add(o.slot, ms(o.firstEvent))
		if g, ok := gensPerSecond(o); ok {
			gps.add(o.slot, g)
		}
	}
	done := len(all)
	if done == 0 || len(gps) == 0 {
		return nil, nil, fmt.Errorf("no job completed in the window (%d attempted)", len(outs))
	}
	var setupS []float64
	for _, d := range setups {
		setupS = append(setupS, d.Seconds())
	}
	m := map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"alloc_mb_per_job": {float64(c.allocBytes) / 1e6 / float64(done), "MB"},
		"peak_rss_mb":      {float64(c.maxRSSKB) / 1024, "MB"},
		"ok_share":         {float64(attempted-failed) / float64(attempted), "ratio"},
	}
	tailV, tailP := tail(all)
	times := map[string]metric{
		"job_s":          {jobS.typical(0.25), "s"},
		"job_s_median":   {median(all), "s"},
		"job_s_tail":     {tailV, "s"},
		"jobs_per_min":   {float64(done) / elapsed.Minutes(), "1/min"},
		"gens_per_s":     {gps.typical(0.75), "1/s"},
		"first_event_ms": {firstMs.typical(0.25), "ms"},
		"cpu_s_per_job":  {c.cpu.Seconds() / float64(done), "s"},
	}
	info := map[string]any{
		"times":              times,
		"jobs_completed":     done,
		"window_s":           elapsed.Seconds(),
		"job_s_all":          all,
		"job_s_tail_pct":     tailP,
		"job_s_tail_samples": done,
		"setup_runs_s":       setupS,
	}
	return m, info, nil
}
