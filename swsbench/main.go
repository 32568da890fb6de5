// Command swsbench is the repository benchmark. It runs one named
// workload for a fixed time, checks every result against a serial
// reference, and prints each metric by name with its unit; its last
// stdout line is one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	bash swsbench/run.sh --workload uts-t1 --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) reports the per-layer metrics: it measures the workload
// once untraced and once with spans around every call into a layer (the
// difference is the tracing overhead), then times each layer on its own
// fixture, and writes the spans to .bench_build/traces/. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// setupReps is how many set-up probes a run makes to report the median.
// A set-up takes a few milliseconds, and on a shared host its upper tail
// is wake-up and vCPU delays, so it takes many to steady the median.
const setupReps = 41

// serveBurstJobs is the length of the serve fixture on workloads that
// do not run the service themselves: enough jobs to put ten beyond p99.
const serveBurstJobs = 1000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for the victim selection and the job order")
		seconds = flag.Int("seconds", 10, "measured time of the run, seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		probe   = flag.Bool("setup-probe", false, "build the workload's world once, print the seconds it took, and exit (used by the run itself)")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if ok && *probe {
		return setupProbe(wl, *seed)
	}
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "swsbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cpu0, _ := readCPU()
	b := &benchRun{name: *name, wl: wl, seed: *seed, d: time.Duration(*seconds) * time.Second}
	var err error
	if *traced == 1 {
		err = b.traced()
	} else {
		err = b.untraced()
	}
	cpu1, _ := readCPU()
	b.host = host(cpu0, cpu1)
	if err != nil {
		b.misses = append(b.misses, "error: "+err.Error())
		b.failed++
		b.attempted++
	}
	return b.report(*traced == 1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// benchRun is one invocation: its measurements and its correctness tally.
type benchRun struct {
	name string
	wl   workload
	seed int64
	d    time.Duration

	out       map[string]float64
	attempted int
	failed    int
	misses    []string
	jobs      int // jobs run so far; numbers the next job
	host      hostInfo
	tr        *tracer
}

// setup measures building the workload's world and pools (or service)
// until every PE is ready, as a fresh process pays it: each of setupReps
// probes runs in a new child process. In one process, later set-ups
// reuse freed heap memory that must be cleared again, which a program
// building its world once never pays. It records the medians of the CPU
// time the probes spent (setup_s) and of their wall time (wall.setup_s).
func (b *benchRun) setup() error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		sp := b.tr.start("setup", 0)
		out, err := exec.Command(exe, "--workload", b.name, "--seed", fmt.Sprint(b.seed), "--setup-probe").Output()
		if err != nil {
			sp.end(nil)
			return fmt.Errorf("setup probe: %w", err)
		}
		var c, w float64
		_, err = fmt.Sscan(string(out), &c, &w)
		sp.end(map[string]float64{"cpu_s": c, "wall_s": w})
		if err != nil {
			return fmt.Errorf("setup probe output %q: %w", out, err)
		}
		cpu, wall = append(cpu, c), append(wall, w)
	}
	b.out["setup_s"] = median(cpu)
	b.out["wall.setup_s"] = median(wall)
	return nil
}

// setupProbe builds the workload's world once, prints the CPU and wall
// seconds that took, and tears it down.
func setupProbe(wl workload, seed int64) int {
	t0, cpu0 := time.Now(), processCPU()
	teardown, err := wl.setup(seed)
	el, cpu := time.Since(t0), processCPU()-cpu0
	if err == nil {
		err = teardown()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "swsbench: setup: %v\n", err)
		return 1
	}
	fmt.Println(cpu.Seconds(), el.Seconds())
	return 0
}

// warmup is run, untimed but checked, before a run's timed phases: the
// first jobs of a process pay for cold caches and lazily built state.
const warmup = time.Second

// tracedChunks is how many alternating untraced and traced stretches a
// traced run's measured time is cut into.
const tracedChunks = 8

// phase runs one phase of r's jobs, numbered after the run's earlier
// jobs, and folds its results into the run's correctness counts.
func (b *benchRun) phase(r runner, tr *tracer, d time.Duration, maxJobs int) (*phase, error) {
	p := runPhase(r, tr, d, maxJobs, b.jobs)
	b.jobs += p.jobs
	b.attempted += p.jobs + p.checks
	b.failed += p.failed
	b.misses = append(b.misses, p.misses...)
	return p, p.err
}

func (b *benchRun) untraced() error {
	b.out = map[string]float64{}
	if err := b.setup(); err != nil {
		return err
	}
	r, err := b.wl.open(b.seed)
	if err != nil {
		return err
	}
	var p *phase
	if _, err = b.phase(r, nil, warmup, 0); err == nil {
		p, err = b.phase(r, nil, b.d, 0)
	}
	if err := errors.Join(err, r.close()); err != nil {
		return err
	}
	b.out["tasks_per_cpu_s"] = p.tasksPerCPUS()
	b.out["mem_peak_mb"] = p.memPeakMB
	b.wallLedger(p)
	return nil
}

// wallLedger records the wall-clock rates of p. They are what a user
// waits for, but on a shared host they follow the other tenants' load,
// so they are printed and traced, not bounded (README.md).
func (b *benchRun) wallLedger(p *phase) {
	b.out["wall.tasks_per_s"] = p.tasksPerS()
	b.out["wall.jobs_per_s"] = p.jobsPerS()
	b.out["wall.job_p50_ms"] = p.p50()
}

func (b *benchRun) traced() error {
	b.out = map[string]float64{}
	b.tr = newTracer()
	if err := b.setup(); err != nil {
		return err
	}
	r, err := b.wl.open(b.seed)
	if err != nil {
		return err
	}
	// Untraced and traced stretches alternate, so drift in the host's
	// speed lands on both sides of the tracing-overhead comparison.
	plain, traced := &phase{}, &phase{}
	_, err = b.phase(r, nil, warmup, 0)
	for i := 0; i < tracedChunks && err == nil; i++ {
		tr, into := (*tracer)(nil), plain
		if i%2 == 1 {
			tr, into = b.tr, traced
		}
		var p *phase
		p, err = b.phase(r, tr, b.d/tracedChunks, 0)
		into.merge(p)
	}
	if err := errors.Join(err, r.close()); err != nil {
		return err
	}
	b.out["trace.overhead.tasks_per_cpu_s"] = 1 - ratio(traced.tasksPerCPUS(), plain.tasksPerCPUS())
	b.wallLedger(plain)

	fx := &fixtures{tr: b.tr, parent: b.tr.start("fixtures", 0).id(), out: b.out}
	if err := fx.run(); err != nil {
		return err
	}
	b.attempted += fx.checks
	b.failed += len(fx.misses)
	b.misses = append(b.misses, fx.misses...)

	b.poolLedger(traced, plain)
	if traced.serve == nil {
		// The serve metrics come from a fixed burst of the serve-tiny
		// workload when this workload does not run the service.
		sr, err := workloads["serve-tiny"].open(b.seed)
		if err != nil {
			return err
		}
		burst, err := b.phase(sr, b.tr, time.Hour, serveBurstJobs)
		if err := errors.Join(err, sr.close()); err != nil {
			return err
		}
		b.serveLedger(burst)
	} else {
		b.serveLedger(traced)
	}
	if err := b.commsPerTask(r, traced); err != nil {
		return err
	}
	return nil
}

// poolLedger derives the pool and core metrics from the traced phase.
// Time shares are of executors x wall, where wall is the time spent
// inside bench.RunOnce (or the whole phase, for the always-on fleet).
func (b *benchRun) poolLedger(p, plain *phase) {
	tot := p.pool.tot
	capacity := float64(executors) * float64(p.pool.wall)
	b.out["pool.exec_frac"] = ratio(float64(tot.ExecTime), capacity)
	b.out["pool.steal_frac"] = ratio(float64(tot.StealTime), capacity)
	b.out["pool.search_frac"] = ratio(float64(tot.SearchTime), capacity)
	b.out["pool.unattributed_frac"] = 1 - b.out["pool.exec_frac"] - b.out["pool.steal_frac"] - b.out["pool.search_frac"]
	b.out["pool.idle_iters_per_task"] = ratio(float64(tot.IdleIters), float64(tot.TasksExecuted))
	b.out["pool.allocs_per_task"] = ratio(float64(p.pool.mallocs), float64(tot.TasksExecuted))
	b.out["core.steal_success_frac"] = ratio(float64(tot.StealsSuccessful), float64(tot.StealsAttempted))
	b.out["core.tasks_per_steal"] = ratio(float64(tot.TasksStolen), float64(tot.StealsSuccessful))

	// The largest share of tasks one executor ran: per worker on
	// multi-worker PEs, per PE otherwise.
	shares := map[[2]int]uint64{}
	for _, w := range tot.Workers {
		shares[[2]int{w.PE, w.ID}] += w.TasksExecuted
	}
	if len(shares) == 0 {
		for pe, st := range p.pool.perPE {
			shares[[2]int{pe, 0}] = st.TasksExecuted
		}
	}
	var most uint64
	for _, n := range shares {
		most = max(most, n)
	}
	b.out["pool.worker_exec_share_max"] = ratio(float64(most), float64(tot.TasksExecuted))

	serialNs := b.out["uts.serial_ns_per_node"]
	if b.wl.taskWork > 0 {
		serialNs = float64(b.wl.taskWork)
	}
	b.out["pool.efficiency_vs_serial"] = serialNs * plain.tasksPerS() / (float64(executors) * 1e9)
}

// serveLedger splits the client's job latency into the service's queue
// and run times and what neither covers.
func (b *benchRun) serveLedger(p *phase) {
	s := p.serve
	b.out["serve.queue_ms_p50"] = median(s.queueMS)
	b.out["serve.run_ms_p50"] = median(s.runMS)
	b.out["serve.overhead_ms_p50"] = median(s.overheadMS)
	b.out["serve.job_p99_ms"] = quantile(p.latMS, 0.99)
	b.out["serve.refused"] = float64(p.refused)
}

// commsPerTask counts one-sided operations per executed task: over the
// traced phase for the service's fleet, over one extra bench.MachineRun
// job for the pool workloads.
func (b *benchRun) commsPerTask(r runner, p *phase) error {
	if p.serve != nil {
		b.out["shmem.comms_per_task"] = ratio(float64(p.pool.comms.Total()), float64(p.pool.tot.TasksExecuted))
		return nil
	}
	ro := r.(*runOnceRunner)
	comms, tasks, miss, err := ro.machineRun(b.tr, b.jobs)
	b.jobs++
	b.attempted++
	if err != nil {
		return err
	}
	if miss != "" {
		b.failed++
		b.misses = append(b.misses, miss)
	}
	b.out["shmem.comms_per_task"] = ratio(float64(comms), float64(tasks))
	return nil
}

// report prints the metrics table and the result line, and returns the
// exit code: non-zero on any failed check.
func (b *benchRun) report(traced bool) int {
	res := result{Metrics: map[string]metric{}}
	res.Attempted = max(b.attempted, 1)
	res.Failed = b.failed
	if b.out != nil {
		b.out["host.cpu_steal_frac"] = b.host.CPUStealFrac
		b.out["failed_frac"] = ratio(float64(b.failed), float64(res.Attempted))
	}
	var ledger []ledgerRow
	if traced {
		for _, m := range layerMetrics {
			v, ok := b.out[m.Name]
			if !ok {
				b.misses = append(b.misses, "no value for "+m.Name)
			}
			res.Metrics[m.Name] = metric{finite(v), m.Unit}
			ledger = append(ledger, ledgerRow{m.Name, finite(v), m.Unit, m.Layer, m.Moves})
			fmt.Printf("%-40s %16.4f %-6s %-6s moves %s\n", m.Name, finite(v), m.Unit, m.Layer, m.Moves)
		}
		if b.tr != nil {
			if path, err := b.tr.write(".bench_build/traces", b.name, b.seed, ledger, b.host); err != nil {
				fmt.Fprintf(os.Stderr, "swsbench: writing trace: %v\n", err)
			} else {
				fmt.Printf("spans and ledger: %s\n", path)
			}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := b.out[m.Name]
			if !ok {
				b.misses = append(b.misses, "no value for "+m.Name)
			}
			res.Metrics[m.Name] = metric{finite(v), m.Unit}
			fmt.Printf("%-16s %16.4f %s\n", m.Name, finite(v), m.Unit)
		}
		for _, m := range layerMetrics {
			if v, ok := b.out[m.Name]; ok && strings.HasPrefix(m.Name, "wall.") {
				fmt.Printf("%-16s %16.4f %s (not bounded)\n", m.Name, v, m.Unit)
			}
		}
	}
	fmt.Printf("workload %s seed %d: %d attempted, %d failed (failed_frac %.4f); gomaxprocs %d, nproc %d, cpu steal %.3f\n",
		b.name, b.seed, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted),
		b.host.GOMAXPROCS, b.host.NProc, b.host.CPUStealFrac)
	for i, m := range b.misses {
		if i == 10 {
			fmt.Printf("... and %d more\n", len(b.misses)-i)
			break
		}
		fmt.Printf("FAIL %s\n", m)
	}
	res.Correct = b.failed == 0 && len(b.misses) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swsbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
