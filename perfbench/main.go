// Command perfbench is the repository's end-to-end benchmark. It boots
// evoprotd in process (a standalone daemon or a coordinator with one
// worker), drives it only through its public HTTP API, checks every
// result, and prints one JSON object of metrics as its last line of
// standard output.
//
//	perfbench --workload paper-flare --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
// and the job-time figures in the diagnostic line before them;
// with --trace 1 it replays the workload's jobs with timing decorators on
// the exported seams and reports the per-layer metrics. NOTES.md explains
// the workloads, the estimators and the machine's noise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// workDir holds the run's data directories and trace files; it lives
	// under the checkout so the benchmark writes nowhere else.
	workDir string
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, diag, err := run(o)
	if diag != nil {
		line, _ := json.Marshal(map[string]any{"diagnostic": diag})
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same job specs")
	fs.IntVar(&o.seconds, "seconds", 20, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 replays the jobs with timing decorators and reports per-layer metrics")
	fs.StringVar(&o.workDir, "work", filepath.Join(".bench_build", "work"), "scratch directory for data dirs and traces")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// run executes one benchmark invocation and returns its result line plus
// the machine-speed diagnostic printed beside it.
func run(o options) (result, map[string]any, error) {
	w := workloads[o.workload]
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)

	before := machineSpeed()
	var (
		res  result
		info map[string]any
	)
	if o.trace {
		res, info, err = runTraced(w, o, dir)
	} else {
		res, info, err = runMeasured(w, o, dir)
	}
	after := machineSpeed()
	diag := map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"alu_ms":       [2]float64{before.aluMs, after.aluMs},
		"mem_ms":       [2]float64{before.memMs, after.memMs},
		"alu_mem_note": "fixed loops timed before and after the run; a slow pair marks a slow machine phase, not a regression",
	}
	for k, v := range info {
		diag[k] = v
	}
	return res, diag, err
}

// runMeasured is the untraced run: several cold set-ups, then a closed
// loop of jobs for the measurement window, then the correctness gate.
func runMeasured(w workload, o options, dir string) (result, map[string]any, error) {
	specs := w.specs(o.seed)
	sys, setups, warmups, err := coldSetups(w, o.seed, dir)
	if err != nil {
		return result{}, nil, err
	}
	window := time.Duration(o.seconds) * time.Second
	usage, err := startUsage()
	if err != nil {
		_ = sys.stop()
		return result{}, nil, err
	}
	outcomes, elapsed := drive(sys, w, specs, window, 0)
	cost, err := usage.stop()
	if serr := sys.stop(); serr != nil {
		return result{}, nil, fmt.Errorf("stopping %s: %w", w.name, serr)
	}
	if err != nil {
		return result{}, nil, err
	}
	all := append(warmups, outcomes...)
	gate := checkOutcomes(all)
	m, info, err := endToEnd(outcomes, elapsed, setups, cost, len(all), gate.failed)
	if err != nil {
		return result{}, gate.info(), err
	}
	for k, v := range gate.info() {
		info[k] = v
	}
	return result{
		Correct:   gate.ok(),
		Attempted: len(all),
		Failed:    gate.failed,
		Metrics:   m,
	}, info, nil
}
