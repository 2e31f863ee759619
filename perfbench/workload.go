package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"evoprot"
	"evoprot/internal/cluster"
	"evoprot/internal/serve"
	"evoprot/internal/storage"
)

// workload is one traffic mix against one deployment shape. NOTES.md
// records why each exists.
type workload struct {
	name string
	// clients is the number of closed-loop clients; client i submits as
	// tenant i when auth is on.
	clients int
	auth    bool
	cluster bool
	// specs generates the job specs the clients cycle through. The daemon
	// receives only these; the same seed yields the same specs.
	specs func(seed uint64) []evoprot.JobSpec
	// traceJobs is how many jobs a traced run submits and replays.
	traceJobs int
}

var workloads = map[string]workload{
	"paper-flare": {
		name:      "paper-flare",
		clients:   1,
		specs:     paperFlareSpecs,
		traceJobs: 1,
	},
	"tenant-mix": {
		name:      "tenant-mix",
		clients:   2,
		auth:      true,
		specs:     tenantMixSpecs,
		traceJobs: 16,
	},
	"cluster-pareto": {
		name:      "cluster-pareto",
		clients:   1,
		cluster:   true,
		specs:     clusterParetoSpecs,
		traceJobs: 2,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// paperFlareGenerations balances the job: at paper scale on one core the
// initial population takes 8-11 s and the generation loop 5-8 s, so
// neither is less than a third of the job.
const paperFlareGenerations = 240

// paperFlareDataSeed fixes the flare file itself. The paper protects one
// fixed file; holding it fixed keeps the initial population's cost from
// swinging with the data while the job seed still varies the masking
// draws and the whole evolutionary trajectory.
const paperFlareDataSeed = 2012

// paperFlareSpecs is the paper's own job: flare at its 1066 records,
// uploaded inline, its three protected attributes and its masking grid,
// the max aggregation, scalar selection and sequential evaluation. Two
// job seeds alternate, so a run's two jobs average two trajectories.
func paperFlareSpecs(seed uint64) []evoprot.JobSpec {
	csv, attrs := inlineDataset("flare", 0, paperFlareDataSeed)
	specs := make([]evoprot.JobSpec, 2)
	for i := range specs {
		specs[i] = evoprot.JobSpec{
			DatasetCSV:  csv,
			Attributes:  attrs,
			Grid:        "flare",
			Aggregator:  "max",
			Objective:   "scalar",
			Generations: paperFlareGenerations,
			Seed:        seed + uint64(i)*1_000_003,
			EvalWorkers: -1,
		}
	}
	return specs
}

// mlTargets names the attribute the ML-utility measure predicts, per
// dataset: a protected attribute, so masking moves the accuracy.
var mlTargets = map[string]string{
	"housing": "DEGREE",
	"german":  "SAVINGS",
	"flare":   "CLASS",
	"adult":   "EDUCATION",
}

// tenantMixSpecs is a pool of 16 small jobs of fixed shapes: four per
// built-in dataset, half on two islands, a quarter Pareto and a quarter
// with an ML-utility target, with row counts of 60-120 and budgets of
// 15-40 generations spread over the shapes by two fixed permutations. The
// seed draws only the job seeds, hence the generated files and the
// trajectories: seeds change the inputs but neither the total work, nor
// which shape is the heaviest, nor which jobs share the queue.
func tenantMixSpecs(seed uint64) []evoprot.JobSpec {
	const n = 16
	rng := rand.New(rand.NewPCG(seed, 0x7e7a47))
	datasets := []string{"housing", "german", "flare", "adult"}
	specs := make([]evoprot.JobSpec, 0, n)
	for i := 0; i < n; i++ {
		ds := datasets[i%4]
		s := evoprot.JobSpec{
			Dataset:     ds,
			Rows:        60 + 4*((7*i+3)%n),
			Generations: 15 + 5*((5*i+1)%n)/3,
			Seed:        rng.Uint64N(1 << 40),
			EvalWorkers: -1,
		}
		if (i/4)%2 == 1 {
			s.Islands = 2
			s.MigrateEvery = 10
		}
		switch i / 4 {
		case 1:
			s.Objective = "pareto"
		case 2:
			s.MLTarget = mlTargets[ds]
		}
		specs = append(specs, s)
	}
	return specs
}

// clusterDataSeed fixes the adult file of the cluster workload, for the
// same reason as paperFlareDataSeed.
const clusterDataSeed = 1994

// clusterParetoSpecs alternates two jobs over one fixed 500-row adult
// file, uploaded inline, on two islands with the scalar-pareto niche:
// long enough for four migrations and checkpoints. The seed draws the two
// job seeds.
func clusterParetoSpecs(seed uint64) []evoprot.JobSpec {
	csv, attrs := inlineDataset("adult", 500, clusterDataSeed)
	rng := rand.New(rand.NewPCG(seed, 0xc1a5))
	specs := make([]evoprot.JobSpec, 2)
	for i := range specs {
		specs[i] = evoprot.JobSpec{
			DatasetCSV:  csv,
			Attributes:  attrs,
			Grid:        "adult",
			Islands:     2,
			Niches:      "scalar-pareto",
			Generations: 100,
			Seed:        rng.Uint64N(1 << 40),
			EvalWorkers: -1,
		}
	}
	return specs
}

// inlineDataset generates a built-in dataset as CSV for upload, with its
// protected attributes.
func inlineDataset(name string, rows int, seed uint64) (string, []string) {
	orig, err := evoprot.GenerateDataset(name, rows, seed)
	if err != nil {
		panic(err) // built-in names and fixed sizes cannot fail
	}
	var csv strings.Builder
	if err := orig.WriteCSV(&csv); err != nil {
		panic(err) // writing to a strings.Builder cannot fail
	}
	attrs, err := evoprot.ProtectedAttributes(name)
	if err != nil {
		panic(err)
	}
	return csv.String(), attrs
}

// warmupSpec is the small job every cold set-up runs to completion.
func warmupSpec(seed uint64) evoprot.JobSpec {
	return evoprot.JobSpec{Dataset: "flare", Rows: 200, Generations: 20, Seed: seed, EvalWorkers: -1}
}

// apiKeys are the tenants of auth-on workloads, one per client.
var apiKeys = []string{"bench-key-alpha", "bench-key-beta"}

// system is a booted deployment under test.
type system struct {
	base  string
	hc    *http.Client
	keys  []string
	store *timedStore     // non-nil on traced runs
	rt    *timedTransport // non-nil on traced cluster runs
	stop  func() error
}

func (s *system) client(i int) *apiClient {
	c := &apiClient{base: s.base, hc: s.hc}
	if len(s.keys) > 0 {
		c.key = s.keys[i%len(s.keys)]
	}
	return c
}

// boot starts the workload's deployment over a fresh data dir. With a
// tracer the store and the worker's transport carry timing decorators.
func boot(w workload, dir string, tr *tracer) (*system, error) {
	fs, err := storage.NewFS(dir)
	if err != nil {
		return nil, err
	}
	var st storage.Store = fs
	sys := &system{}
	if tr != nil {
		sys.store = newTimedStore(fs, tr)
		st = sys.store
	}
	cfg := serve.Config{Store: st, Workers: 1}
	if w.auth {
		var keys strings.Builder
		for i, k := range apiKeys {
			fmt.Fprintf(&keys, "%s tenant-%d\n", k, i)
		}
		kr, err := serve.ParseKeyring(strings.NewReader(keys.String()))
		if err != nil {
			return nil, err
		}
		cfg.Keyring = kr
		sys.keys = apiKeys
	}

	var (
		handler  http.Handler
		stopSide func(context.Context) error
	)
	if w.cluster {
		coord, err := cluster.NewCoordinator(cluster.Config{Serve: cfg, LeaseTTL: 3 * time.Second})
		if err != nil {
			return nil, err
		}
		coord.Start()
		handler, stopSide = coord.Handler(), coord.Stop
	} else {
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		srv.Start()
		handler, stopSide = srv.Handler(), srv.Stop
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = stopSide(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	sys.base = "http://" + ln.Addr().String()
	tr0 := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	sys.hc = &http.Client{Transport: tr0}

	stopWorker := func() {}
	if w.cluster {
		wt := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
		var rt http.RoundTripper = wt
		if tr != nil {
			sys.rt = newTimedTransport(wt, tr)
			rt = sys.rt
		}
		worker, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: sys.base,
			Name:        "bench-worker",
			Client:      &http.Client{Transport: rt},
		})
		if err != nil {
			_ = hs.Close()
			_ = stopSide(context.Background())
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			worker.Run(ctx)
		}()
		stopWorker = func() {
			cancel()
			<-done
			wt.CloseIdleConnections()
		}
	}

	sys.stop = func() error {
		stopWorker()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		tr0.CloseIdleConnections()
		return errors.Join(err, stopSide(ctx))
	}
	return sys, nil
}

// setupReps is how many cold set-ups a measured run times; setup_s is
// their median.
const setupReps = 7

// coldSetups boots the deployment setupReps times, each on a fresh data
// dir and each timed until the warm-up job has returned its result. The
// warm-up is the same fixed-seed spec every time, so its outcomes feed
// the gate's repeat check. It keeps the last system running for the
// measurement window.
func coldSetups(w workload, seed uint64, dir string) (*system, []time.Duration, []outcome, error) {
	var (
		times   []time.Duration
		warmups []outcome
	)
	for i := 0; ; i++ {
		t := time.Now()
		sys, err := boot(w, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), nil)
		if err != nil {
			return nil, nil, nil, err
		}
		o := sys.client(0).runJob(warmupSpec(seed))
		times = append(times, time.Since(t))
		warmups = append(warmups, o)
		if o.err != nil {
			_ = sys.stop()
			return nil, nil, nil, fmt.Errorf("warm-up job: %w", o.err)
		}
		if i == setupReps-1 {
			return sys, times, warmups, nil
		}
		if err := sys.stop(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// drive runs the workload's closed loop: each client submits its next
// job as soon as the previous one's result arrives. Client i takes specs
// i, i+clients, i+2*clients, ... of the pool, cycling. With jobs > 0 each
// client runs jobs/clients jobs; otherwise each client runs at least one
// job and starts another only if, judged by its previous job, it ends
// less than half a job past the window, so a run of long jobs ends close
// to the window's length. It returns every outcome and the time until
// the last client finished.
func drive(sys *system, w workload, specs []evoprot.JobSpec, window time.Duration, jobs int) ([]outcome, time.Duration) {
	start := time.Now()
	per := make([][]outcome, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := sys.client(c)
			var last time.Duration
			for k := 0; ; k++ {
				if jobs > 0 && k >= jobs/w.clients {
					return
				}
				if jobs == 0 && k > 0 && time.Since(start)+last/2 > window {
					return
				}
				slot := (c + k*w.clients) % len(specs)
				o := cl.runJob(specs[slot])
				o.slot = slot
				last = time.Since(o.start)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}
