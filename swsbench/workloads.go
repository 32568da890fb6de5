package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"time"

	"sws/internal/bench"
	"sws/internal/bpc"
	"sws/internal/pool"
	"sws/internal/serve"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/uts"
)

// executors is PEs x workers, the goroutines that execute tasks: two in
// every workload, one per vCPU of the 2-vCPU host the bounds were fitted on.
const executors = 2

// workload is one named benchmark input. Every workload is measured as a
// sequence of jobs: a whole bench.RunOnce execution for the pool
// workloads, one service job for serve-tiny.
type workload struct {
	// taskWork is the mean duration of a task body that is a timed spin,
	// which a serial run would also take; zero for UTS nodes, whose serial
	// cost is measured (uts.serial_ns_per_node).
	taskWork time.Duration
	// setup builds the workload's world and pools (or fleet) until every
	// PE is ready to run a task, and returns the teardown.
	setup func(seed int64) (func() error, error)
	// open prepares the job loop.
	open func(seed int64) (runner, error)
}

// jobResult is what one call into the workload's top layer produced.
type jobResult struct {
	tasks   uint64
	latency time.Duration
	// run holds the per-PE statistics of a bench.RunOnce job.
	run stats.Run
	// status is a serve-tiny job's final status.
	status  serve.JobStatus
	mallocs uint64
	refused bool
	// miss describes a wrong or refused result ("" when correct); err a
	// failure that leaves the workload unusable.
	miss string
	err  error
}

type runner interface {
	job(tr *tracer, i int) jobResult
	// segment is how many jobs the runner keeps state for: before the
	// first job of each segment of a phase, the phase calls renew and
	// then returns the memory freed so far to the OS.
	segment() int
	// renew gives the next segment a fresh instance of whatever the
	// runner keeps between jobs.
	renew() error
	close() error
}

// BPC with a chain of 20000 producers, each spawning 4 consumers and the
// next producer: the chain keeps migrating between the two PEs, so the
// steal protocol runs about once per six tasks.
var bounceParams = bpc.Params{Depth: 20000, NConsumers: 4, ConsumerWork: time.Microsecond, ProducerWork: time.Microsecond}

// workloads are the benchmark's inputs; README.md says why each exists.
var workloads = map[string]workload{
	// The owner path: push/pop and task execution, almost no steals.
	"uts-t1": {
		setup: poolSetup(utsConfig(2, 1), registerUTS),
		open:  utsOpen(utsConfig(2, 1)),
	},
	// The intra-PE worker tier, with no inter-PE steals.
	"uts-workers": {
		setup: poolSetup(utsConfig(1, 2), registerUTS),
		open:  utsOpen(utsConfig(1, 2)),
	},
	// The steal protocol: the producer chain bounces between the PEs.
	"bpc-bounce": {
		taskWork: time.Microsecond, // producers and consumers alike
		setup: poolSetup(bounceConfig(), func(reg *pool.Registry) error {
			w, err := bpc.NewWorkload(bounceParams)
			if err != nil {
				return err
			}
			return w.Register(reg)
		}),
		open: bounceOpen,
	},
	// Per-job fixed cost of the job service over a warm fleet.
	"serve-tiny": {
		setup: func(seed int64) (func() error, error) {
			s, err := serve.New(serveOptions(seed))
			if err != nil {
				return nil, err
			}
			return s.Close, nil
		},
		open: serveOpen,
	},
}

func utsConfig(pes, workers int) bench.RunConfig {
	return bench.RunConfig{
		PEs:       pes,
		Protocol:  pool.SWS,
		Latency:   bench.DefaultLatency(),
		Transport: shmem.TransportLocal,
		Pool:      pool.Config{Workers: workers},
	}
}

func bounceConfig() bench.RunConfig {
	return bench.RunConfig{
		PEs:       2,
		Protocol:  pool.SWS,
		Latency:   bench.DefaultLatency(),
		Transport: shmem.TransportShm,
	}
}

func serveOptions(seed int64) serve.Options {
	return serve.Options{
		World: shmem.Config{NumPEs: 2, HeapBytes: 64 << 20, Transport: shmem.TransportLocal},
		Pool:  pool.Config{Protocol: pool.SWS, Seed: seed},
	}
}

// jobSeed derives job i's victim-selection seed from the run's seed.
func jobSeed(seed int64, i int) int64 {
	s := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	s ^= s >> 31
	return int64(s>>1) | 1
}

func registerUTS(reg *pool.Registry) error {
	w, err := uts.NewWorkload(uts.T1)
	if err != nil {
		return err
	}
	return w.Register(reg)
}

// poolSetup builds what bench.RunOnce builds before its first task — the
// world and one pool per PE — through a fleet, which reports when every
// PE is ready.
func poolSetup(cfg bench.RunConfig, register func(*pool.Registry) error) func(int64) (func() error, error) {
	return func(seed int64) (func() error, error) {
		w, err := shmem.NewWorld(shmem.Config{
			NumPEs:    cfg.PEs,
			HeapBytes: 16 << 20, // bench.RunConfig's default
			Latency:   cfg.Latency,
			Transport: cfg.Transport,
		})
		if err != nil {
			return nil, err
		}
		pcfg := cfg.Pool
		pcfg.Protocol = cfg.Protocol
		pcfg.Seed = seed
		f, err := pool.NewFleet(w, pool.FleetOptions{
			Pool:     pcfg,
			Register: func(_ int, reg *pool.Registry) error { return register(reg) },
		})
		if err != nil {
			return nil, err
		}
		return f.Close, nil
	}
}

// runOnceRunner runs one workload instance per job through bench.RunOnce
// and checks it with the instance's own check.
type runOnceRunner struct {
	cfg  bench.RunConfig
	seed int64
	// make returns a fresh workload and the check of its result.
	make func() (bench.Workload, func() string, error)
}

// instance returns job i's configuration, a factory for its workload,
// and (once the factory ran) the check of that workload's result.
func (r *runOnceRunner) instance(i int) (bench.RunConfig, bench.Factory, *func() string) {
	check := new(func() string)
	factory := func() (bench.Workload, error) {
		w, c, err := r.make()
		*check = c
		return w, err
	}
	cfg := r.cfg
	cfg.Seed = jobSeed(r.seed, i)
	return cfg, factory, check
}

func (r *runOnceRunner) job(tr *tracer, i int) jobResult {
	cfg, factory, check := r.instance(i)
	var m0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.start("bench.RunOnce", 0)
	t0 := time.Now()
	run, err := bench.RunOnce(cfg, factory)
	res := jobResult{latency: time.Since(t0), run: run, err: err}
	tot := run.Total()
	res.tasks = tot.TasksExecuted
	if tr != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		res.mallocs = m1.Mallocs - m0.Mallocs
		sp.end(map[string]float64{
			"tasks":            float64(tot.TasksExecuted),
			"steals_attempted": float64(tot.StealsAttempted),
			"steals_ok":        float64(tot.StealsSuccessful),
			"tasks_stolen":     float64(tot.TasksStolen),
			"exec_ns":          float64(tot.ExecTime),
			"steal_ns":         float64(tot.StealTime),
			"search_ns":        float64(tot.SearchTime),
			"idle_iters":       float64(tot.IdleIters),
			"mallocs":          float64(res.mallocs),
		})
	}
	if err != nil {
		return res
	}
	res.miss = (*check)()
	if res.miss == "" {
		res.miss = ledgerMiss(tot)
	}
	return res
}

// machineRun runs job i through bench.MachineRun, which also reads every
// PE's communication counters, and returns the one-sided operations and
// tasks of that run.
func (r *runOnceRunner) machineRun(tr *tracer, i int) (comms, tasks uint64, miss string, err error) {
	cfg, factory, check := r.instance(i)
	sp := tr.start("bench.MachineRun", 0)
	rec, err := bench.MachineRun("swsbench", cfg, factory)
	sp.end(map[string]float64{
		"tasks":          float64(rec.TasksExecuted),
		"comms":          float64(rec.CommsTotal),
		"comms_blocking": float64(rec.CommsBlocking),
	})
	if err != nil {
		return 0, 0, "", err
	}
	return rec.CommsTotal, rec.TasksExecuted, (*check)(), nil
}

// Each bench.RunOnce job builds and tears down its own world, so every
// job is a memory segment of its own.
func (r *runOnceRunner) segment() int { return 1 }
func (r *runOnceRunner) renew() error { return nil }
func (r *runOnceRunner) close() error { return nil }

// ledgerMiss checks the pool's own accounting: every spawned task ran and
// none was lost.
func ledgerMiss(tot stats.PE) string {
	if tot.TasksSpawned != tot.TasksExecuted || tot.TasksLost != 0 {
		return fmt.Sprintf("spawned %d, executed %d, lost %d", tot.TasksSpawned, tot.TasksExecuted, tot.TasksLost)
	}
	return ""
}

func utsOpen(cfg bench.RunConfig) func(int64) (runner, error) {
	return func(seed int64) (runner, error) {
		want, err := uts.CountSerial(uts.T1, 0)
		if err != nil {
			return nil, err
		}
		return &runOnceRunner{cfg: cfg, seed: seed, make: func() (bench.Workload, func() string, error) {
			w, err := uts.NewWorkload(uts.T1)
			return w, func() string {
				if w.Nodes() != want.Nodes || w.Leaves() != want.Leaves {
					return fmt.Sprintf("uts: %d nodes %d leaves, serial count %d/%d", w.Nodes(), w.Leaves(), want.Nodes, want.Leaves)
				}
				return ""
			}, err
		}}, nil
	}
}

func bounceOpen(seed int64) (runner, error) {
	p := bounceParams
	return &runOnceRunner{cfg: bounceConfig(), seed: seed, make: func() (bench.Workload, func() string, error) {
		w, err := bpc.NewWorkload(p)
		return w, func() string {
			if w.Producers() != uint64(p.Depth) || w.Consumers() != uint64(p.Depth*p.NConsumers) {
				return fmt.Sprintf("bpc: %d producers %d consumers, want %d/%d", w.Producers(), w.Consumers(), p.Depth, p.Depth*p.NConsumers)
			}
			return ""
		}, err
	}}, nil
}

// serviceLifetime is how many jobs one serve.Service runs before the
// client moves to a fresh one. The service keeps every job's record, so
// its memory grows with the jobs it ran; a fixed lifetime measures it at
// a fixed job count, whatever the host's speed.
const serviceLifetime = 1000

// serveRunner is one closed-loop client of an in-process job service.
type serveRunner struct {
	s    *serve.Service
	seed int64
	ran  int    // jobs submitted to s
	want uint64 // serial node count of the tiny tree
	rng  *rand.Rand
	// retired and retiredComms total the fleets of closed services.
	retired      []stats.PE
	retiredComms shmem.CounterSnapshot
	// pair is the tenant order of the current pair of jobs: the client
	// alternates between two tenants, and the seed decides which of the
	// two goes first in each pair.
	pair [2]string
}

func serveOpen(seed int64) (runner, error) {
	want, err := uts.CountSerial(uts.Tiny, 0)
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serveOptions(seed))
	if err != nil {
		return nil, err
	}
	return &serveRunner{s: s, seed: seed, want: want.Nodes, rng: rand.New(rand.NewPCG(uint64(seed), 0x5e17e))}, nil
}

func (r *serveRunner) segment() int { return serviceLifetime }

// renew replaces a service that ran jobs with a fresh one, keeping its
// fleet's counters in the runner's totals. The old service's memory is
// returned to the OS before the new one is built, so that the new one
// can reuse its pages.
func (r *serveRunner) renew() error {
	if r.ran == 0 {
		return nil
	}
	pes, comms := r.fleetTotals()
	if err := r.s.Close(); err != nil {
		return err
	}
	debug.FreeOSMemory()
	s, err := serve.New(serveOptions(r.seed))
	if err != nil {
		return err
	}
	r.s, r.ran = s, 0
	r.retired, r.retiredComms = pes, comms
	return nil
}

func (r *serveRunner) job(tr *tracer, i int) jobResult {
	if i%2 == 0 {
		r.pair = [2]string{"tenant-a", "tenant-b"}
		if r.rng.IntN(2) == 1 {
			r.pair[0], r.pair[1] = r.pair[1], r.pair[0]
		}
	}
	spec := serve.JobSpec{Kind: serve.KindUTS, Tenant: r.pair[i%2], UTS: &serve.UTSSpec{Tree: "tiny"}}
	root := tr.start("client.job", 0)
	t0 := time.Now()
	sp := tr.start("serve.Service.Submit", root.id())
	st, err := r.s.Submit(spec)
	r.ran++
	sp.end(nil)
	var res jobResult
	if err != nil {
		res.latency = time.Since(t0)
		root.end(nil)
		var adm *serve.AdmissionError
		if errors.As(err, &adm) {
			res.refused = true
			res.miss = err.Error()
			return res
		}
		res.err = err
		return res
	}
	id := st.ID
	sp = tr.start("serve.Service.Wait", root.id())
	st, ok := r.s.Wait(id, time.Minute)
	res.latency = time.Since(t0)
	sp.end(map[string]float64{"queue_ms": st.QueueSeconds * 1e3, "run_ms": st.RunSeconds * 1e3})
	root.end(map[string]float64{"tasks": float64(st.TasksExecuted), "tasks_stolen": float64(st.TasksStolen)})
	res.status = st
	res.tasks = st.TasksExecuted
	switch {
	case !ok:
		res.err = fmt.Errorf("serve: job %s vanished", id)
	case st.State != serve.StateDone:
		res.miss = fmt.Sprintf("serve: job %s ended %s (%s)", st.ID, st.State, st.Error)
	case st.TasksExecuted != r.want:
		res.miss = fmt.Sprintf("serve: job %s executed %d tasks, serial count %d", st.ID, st.TasksExecuted, r.want)
	}
	return res
}

// fleetTotals reads the cumulative per-PE statistics and communication
// counters of every fleet the runner used; between jobs the fleet is
// quiescent.
func (r *serveRunner) fleetTotals() ([]stats.PE, shmem.CounterSnapshot) {
	f := r.s.Fleet()
	pes := make([]stats.PE, f.World().NumPEs())
	comms := r.retiredComms
	for rank := range pes {
		// Summing into a zero value copies the retired figures, so
		// later sums never write into them.
		if rank < len(r.retired) {
			pes[rank].Add(r.retired[rank])
		}
		p := f.Pool(rank)
		pes[rank].Add(p.Stats())
		comms = comms.Add(p.Shmem().Counters().Snapshot())
	}
	return pes, comms
}

func (r *serveRunner) close() error { return r.s.Close() }
