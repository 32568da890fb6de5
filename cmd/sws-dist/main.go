// Command sws-dist demonstrates genuinely distributed work stealing: it
// launches one OS process per PE, each hosting its own symmetric heap.
// Steals travel over the selected inter-process transport — TCP
// (default, works across hosts) or shm (an mmap'd segment in /dev/shm:
// one-sided ops are direct atomics on shared memory, zero syscalls on
// the fast path; single host only). Rank 0 prints the global result.
//
// Workloads: a recursive binary tree (default), the UTS benchmark, or
// BPC.
//
// Examples:
//
//	sws-dist -n 4 -depth 14
//	sws-dist -n 4 -transport shm -workload uts
//	sws-dist -n 3 -protocol sdc
//	sws-dist -n 4 -workload bpc
//	sws-dist -n 4 -bind 10.0.0.7   # tcp across hosts
//
// The same binary re-executes itself in worker mode for each rank (the
// -worker flags are internal).
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"sws/internal/bpc"
	"sws/internal/obs"
	"sws/internal/pool"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/trace"
	"sws/internal/uts"
)

// distHeapBytes is the per-PE symmetric heap size for distributed runs,
// shared by the tcp and shm paths (the shm segment is sized from it at
// creation, so launcher and workers must agree).
const distHeapBytes = 16 << 20

func main() {
	var (
		n         = flag.Int("n", 4, "number of PEs (one OS process each)")
		depth     = flag.Int("depth", 14, "binary recursion depth (2^depth leaves)")
		protoName = flag.String("protocol", "sws", "steal protocol: sws or sdc")
		workload  = flag.String("workload", "tree", "workload: tree, uts, or bpc")
		workers   = flag.Int("workers", 1, "executor goroutines per PE (two-level scheduling when >1)")
		grow      = flag.Bool("grow", false, "elastic task queues: grow/spill instead of full-queue backpressure")
		maxGrowth = flag.Int("max-growth", 0, "capacity doublings an elastic queue may perform (0 = default 3)")
		qcap      = flag.Int("qcap", 0, "task queue capacity in slots (0 = library default; the starting size with -grow)")
		transport = flag.String("transport", "tcp", "inter-process transport: tcp or shm (mmap'd segment, single host)")
		bind      = flag.String("bind", "127.0.0.1", "address the tcp transport listens on (set a routable address for multi-host runs)")

		metricsAddr = flag.String("metrics-addr", "", "serve live metrics/pprof; rank r listens on port+r (e.g. :9090 puts rank 2 on :9092)")

		opTimeout    = flag.Duration("op-timeout", 0, "per-operation transport deadline (0 = library default)")
		suspectAfter = flag.Duration("suspect-after", 0, "heartbeat silence before a peer is suspected (0 = library default)")
		deadAfter    = flag.Duration("dead-after", 0, "heartbeat silence before a peer is declared dead (0 = library default)")

		flightDir      = flag.String("flight-dir", "", "directory for flight-recorder journals, dumped on failure (empty = no dumps)")
		killRank       = flag.Int("kill-rank", -1, "chaos: this worker rank SIGKILLs itself once it has executed -kill-after-tasks tasks (-1 = no kill)")
		killAfterTasks = flag.Uint64("kill-after-tasks", 0, "chaos: tasks -kill-rank executes before it dies (a progress trigger, immune to how fast the run is)")

		members         = flag.Int("members", 0, "elastic membership: ranks [members, n) start parked (0 = all ranks are members)")
		joinRank        = flag.Int("join-rank", -1, "elastic membership: this parked rank joins the world after -join-after")
		joinAfter       = flag.Duration("join-after", 200*time.Millisecond, "delay before -join-rank begins joining")
		drainRank       = flag.Int("drain-rank", -1, "elastic membership: this rank drains out of the world once it has executed -drain-after-tasks tasks")
		drainAfterTasks = flag.Uint64("drain-after-tasks", 20000, "tasks -drain-rank executes before it begins draining (a progress trigger, immune to how fast the run is)")

		worker  = flag.Bool("worker", false, "internal: run as a worker process")
		rank    = flag.Int("rank", -1, "internal: worker rank")
		coord   = flag.String("coordinator", "", "internal: rendezvous address")
		segment = flag.String("segment", "", "internal: shm segment path")
	)
	flag.Parse()

	proto, err := pool.ParseProtocol(*protoName)
	if err != nil {
		fatal(err)
	}
	switch *workload {
	case "tree", "uts", "bpc":
	default:
		fatal(fmt.Errorf("unknown workload %q (want tree, uts, or bpc)", *workload))
	}
	switch *transport {
	case "tcp":
	case "shm":
		if !shmem.ShmSupported() {
			fatal(fmt.Errorf("-transport shm is not supported on this platform"))
		}
	default:
		fatal(fmt.Errorf("unknown transport %q (want tcp or shm)", *transport))
	}
	lcfg := livenessFlags{opTimeout: *opTimeout, suspectAfter: *suspectAfter, deadAfter: *deadAfter, flightDir: *flightDir}
	wcfg := wireFlags{transport: *transport, bind: *bind, coordinator: *coord, segment: *segment}
	qcfg := queueFlags{grow: *grow, maxGrowth: *maxGrowth, capacity: *qcap}
	ccfg := churnFlags{members: *members, joinRank: *joinRank, joinAfter: *joinAfter, drainRank: *drainRank, drainAfterTasks: *drainAfterTasks}
	if err := ccfg.validate(*n); err != nil {
		fatal(err)
	}
	kcfg := killFlags{rank: *killRank, afterTasks: *killAfterTasks}
	if *worker {
		if err := runWorker(*rank, *n, wcfg, *depth, proto, *workload, *metricsAddr, *workers, qcfg, lcfg, kcfg, ccfg); err != nil {
			fatal(fmt.Errorf("rank %d: %w", *rank, err))
		}
		return
	}
	if err := launch(*n, *depth, *protoName, *workload, *metricsAddr, *workers, qcfg, wcfg, lcfg, kcfg, ccfg); err != nil {
		fatal(err)
	}
}

// wireFlags selects and parameterizes the inter-process transport. The
// launcher fills in the rendezvous detail (coordinator address for tcp,
// segment path for shm) before spawning workers.
type wireFlags struct {
	transport   string
	bind        string
	coordinator string
	segment     string
}

// livenessFlags carries the failure-detector tuning from the launcher to
// every worker process (zero values defer to the library defaults), plus
// the flight-journal directory shared by workers and supervisor.
type livenessFlags struct {
	opTimeout, suspectAfter, deadAfter time.Duration
	flightDir                          string
}

// queueFlags carries the elastic-queue tuning from the launcher to every
// worker process (zero values defer to the library defaults).
type queueFlags struct {
	grow      bool
	maxGrowth int
	capacity  int
}

// killFlags is the chaos schedule: worker rank `rank` (rank < 0
// disables) SIGKILLs itself once it has executed afterTasks tasks. A
// progress trigger, unlike a wall-clock delay, cannot be outrun by a
// fast host finishing the run first. The target acts on its own count;
// the launcher reports the kill and journals it when the target's exit
// arrives.
type killFlags struct {
	rank       int
	afterTasks uint64
}

// trigger describes when the kill fires, for logs and the supervisor
// journal.
func (k killFlags) trigger() string {
	return fmt.Sprintf("after it executed %d tasks", k.afterTasks)
}

// waitExecuted polls the pool's live executed-task count until it
// reaches n. If the run finishes first it ends with the process, and the
// trigger waiting on it never fires.
func waitExecuted(p *pool.Pool, n uint64) {
	for p.TasksExecutedLive() < n {
		time.Sleep(time.Millisecond)
	}
}

// killSelfAfter runs in the kill target: it SIGKILLs its own process once
// the pool has executed n tasks. A run that finishes first exits zero,
// which the chaos tests report as a trigger that never fired.
func killSelfAfter(p *pool.Pool, n uint64) {
	waitExecuted(p, n)
	if self, err := os.FindProcess(os.Getpid()); err == nil {
		_ = self.Kill()
	}
}

// killedBySIGKILL reports whether a worker's exit error is death by
// SIGKILL.
func killedBySIGKILL(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

// churnFlags is the elastic-membership schedule, carried identically to
// every worker: how many ranks start as members (the rest start parked),
// which rank joins after a wall-clock delay, and which rank drains once
// it has executed a number of tasks (a progress trigger: a delay could
// outlast a fast run). Each worker drives only its OWN rank's transition
// — the advertised state propagates to peers through the liveness
// prober, which is the same path a real autoscaler would use from inside
// the resized process.
type churnFlags struct {
	members             int
	joinRank, drainRank int
	joinAfter           time.Duration
	drainAfterTasks     uint64
}

func (c churnFlags) validate(n int) error {
	if c.members < 0 || c.members > n {
		return fmt.Errorf("-members %d out of range [0, %d]", c.members, n)
	}
	if c.joinRank >= 0 {
		if c.members == 0 {
			return fmt.Errorf("-join-rank needs -members < n: with all %d ranks live there is no parked rank to join", n)
		}
		if c.joinRank < c.members || c.joinRank >= n {
			return fmt.Errorf("-join-rank %d is not a parked rank (parked ranks are [%d, %d))", c.joinRank, c.members, n)
		}
	}
	if c.drainRank >= n {
		return fmt.Errorf("-drain-rank %d out of range [0, %d)", c.drainRank, n)
	}
	if c.drainRank >= 0 && c.members > 0 && c.drainRank >= c.members && c.drainRank != c.joinRank {
		return fmt.Errorf("-drain-rank %d starts parked and never joins; pick a member rank [0, %d)", c.drainRank, c.members)
	}
	return nil
}

func (c churnFlags) active() bool { return c.members > 0 || c.joinRank >= 0 || c.drainRank >= 0 }

// grace is how long the launcher waits, after the first worker dies, for
// the survivors to finish their degraded run before it kills stragglers:
// the failure-detector window plus generous slack for one termination
// wave and result reporting.
func (l livenessFlags) grace() time.Duration {
	da := l.deadAfter
	if da == 0 {
		da = 2 * time.Second // shmem library default
	}
	return 2*da + 10*time.Second
}

// launch spawns one worker process per rank and supervises them. A clean
// run waits for every rank and returns nil. When any worker dies
// unexpectedly the launcher does not hang on the rest: survivors get a
// bounded grace window (failure-detector horizon plus one termination
// wave) to finish their degraded run and report partial results, then
// stragglers are killed; either way the launcher reports per-rank
// diagnostics and returns an error so the process exits non-zero.
func launch(n, depth int, protoName, workload, metricsAddr string, workers int, qcfg queueFlags, wcfg wireFlags, lcfg livenessFlags, kcfg killFlags, ccfg churnFlags) error {
	if n < 1 {
		return fmt.Errorf("need at least one PE, got %d", n)
	}
	var rendezvous string
	switch wcfg.transport {
	case "shm":
		// A previous launcher killed mid-run leaves its segment behind
		// (workers unlink only on clean teardown); sweep segments whose
		// creator pid is gone before adding our own.
		dir := shmem.DefaultShmDir()
		if swept, err := shmem.SweepStaleShmSegments(dir); err != nil {
			fmt.Fprintf(os.Stderr, "sws-dist: sweeping stale segments in %s: %v\n", dir, err)
		} else {
			for _, p := range swept {
				fmt.Printf("swept stale shm segment %s\n", p)
			}
		}
		wcfg.segment = filepath.Join(dir, shmem.ShmSegmentName())
		seg, err := shmem.CreateShmSegment(wcfg.segment, n, distHeapBytes)
		if err != nil {
			return fmt.Errorf("creating shm segment: %w", err)
		}
		// Unlink on every launcher return path — clean runs, failed runs,
		// and chaos runs alike. Only a SIGKILLed launcher leaks the file,
		// and the next launch's sweep reclaims it.
		defer seg.Close()
		rendezvous = "segment " + wcfg.segment
	default:
		coord, err := pickCoordinator(wcfg.bind)
		if err != nil {
			return err
		}
		wcfg.coordinator = coord
		rendezvous = "coordinator " + coord
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	fmt.Printf("launching %d worker processes over %s (%s)\n", n, wcfg.transport, rendezvous)
	procs := make([]*exec.Cmd, n)
	type exitEvent struct {
		rank int
		err  error
	}
	exits := make(chan exitEvent, n)
	for rank := 0; rank < n; rank++ {
		addr, err := rankMetricsAddr(metricsAddr, rank)
		if err != nil {
			return err
		}
		cmd := exec.Command(self,
			"-worker", "-rank", fmt.Sprint(rank), "-n", fmt.Sprint(n),
			"-transport", wcfg.transport, "-bind", wcfg.bind,
			"-coordinator", wcfg.coordinator, "-segment", wcfg.segment,
			"-depth", fmt.Sprint(depth),
			"-protocol", protoName, "-workload", workload,
			"-workers", fmt.Sprint(workers),
			"-grow="+fmt.Sprint(qcfg.grow),
			"-max-growth", fmt.Sprint(qcfg.maxGrowth),
			"-qcap", fmt.Sprint(qcfg.capacity),
			"-metrics-addr", addr,
			"-op-timeout", lcfg.opTimeout.String(),
			"-suspect-after", lcfg.suspectAfter.String(),
			"-dead-after", lcfg.deadAfter.String(),
			"-flight-dir", lcfg.flightDir,
			"-members", fmt.Sprint(ccfg.members),
			"-join-rank", fmt.Sprint(ccfg.joinRank),
			"-join-after", ccfg.joinAfter.String(),
			"-drain-rank", fmt.Sprint(ccfg.drainRank),
			"-drain-after-tasks", fmt.Sprint(ccfg.drainAfterTasks),
			"-kill-rank", fmt.Sprint(kcfg.rank),
			"-kill-after-tasks", fmt.Sprint(kcfg.afterTasks))
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting rank %d: %w", rank, err)
		}
		fmt.Printf("rank %d started (pid %d)\n", rank, cmd.Process.Pid)
		procs[rank] = cmd
		go func(rank int, cmd *exec.Cmd) {
			exits <- exitEvent{rank, cmd.Wait()}
		}(rank, cmd)
	}

	exited := make([]bool, n)
	errs := make([]error, n)
	killed := make([]bool, n)
	firstFail := -1
	var deadline <-chan time.Time
	for remaining := n; remaining > 0; {
		select {
		case ev := <-exits:
			remaining--
			exited[ev.rank] = true
			errs[ev.rank] = ev.err
			if ev.rank == kcfg.rank && !killed[ev.rank] && killedBySIGKILL(ev.err) {
				pid := procs[ev.rank].Process.Pid
				fmt.Fprintf(os.Stderr, "sws-dist: chaos: SIGKILL rank %d (pid %d) %s\n", ev.rank, pid, kcfg.trigger())
				// The killed process's in-memory flight ring dies with it;
				// the supervisor journals the kill in its place so
				// post-mortem tooling can name the dead rank even if no
				// survivor observed the death.
				if err := writeSupervisorJournal(lcfg.flightDir, n, ev.rank, pid, kcfg.trigger()); err != nil {
					fmt.Fprintf(os.Stderr, "sws-dist: supervisor journal: %v\n", err)
				}
			}
			if ev.err != nil && firstFail < 0 {
				firstFail = ev.rank
				grace := lcfg.grace()
				fmt.Fprintf(os.Stderr, "sws-dist: rank %d (pid %d) died: %v; waiting up to %v for survivors\n",
					ev.rank, procs[ev.rank].Process.Pid, ev.err, grace)
				deadline = time.After(grace)
			}
		case <-deadline:
			deadline = nil
			for r, cmd := range procs {
				if !exited[r] {
					killed[r] = true
					fmt.Fprintf(os.Stderr, "sws-dist: rank %d (pid %d) still running past grace window, killing\n",
						r, cmd.Process.Pid)
					_ = cmd.Process.Kill()
				}
			}
		}
	}

	var firstErr error
	for rank, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d exited: %w", rank, err)
		}
	}
	if firstErr == nil {
		return nil
	}
	fmt.Fprintf(os.Stderr, "sws-dist: run failed (first failure: rank %d); per-rank status:\n", firstFail)
	for rank, cmd := range procs {
		switch {
		case killed[rank]:
			fmt.Fprintf(os.Stderr, "  rank %d (pid %d): killed by supervisor after grace window\n", rank, cmd.Process.Pid)
		case errs[rank] != nil:
			fmt.Fprintf(os.Stderr, "  rank %d (pid %d): %v\n", rank, cmd.Process.Pid, errs[rank])
		default:
			fmt.Fprintf(os.Stderr, "  rank %d (pid %d): exited cleanly (degraded survivor)\n", rank, cmd.Process.Pid)
		}
	}
	return firstErr
}

// rankMetricsAddr offsets the metrics port by rank so each worker process
// gets its own endpoint. Port 0 (ephemeral) is passed through unchanged.
func rankMetricsAddr(base string, rank int) (string, error) {
	if base == "" {
		return "", nil
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("bad -metrics-addr %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("bad -metrics-addr port %q: %w", portStr, err)
	}
	if port == 0 {
		return base, nil
	}
	return net.JoinHostPort(host, strconv.Itoa(port+rank)), nil
}

// pickCoordinator reserves a port on the bind address for the rendezvous.
func pickCoordinator(bind string) (string, error) {
	ln, err := net.Listen("tcp", net.JoinHostPort(bind, "0"))
	if err != nil {
		return "", fmt.Errorf("reserving coordinator port on %s: %w", bind, err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// runWorker is one PE's process: join the world, run the pool, publish
// per-rank counts into rank 0's heap, and let rank 0 report.
func runWorker(rank, n int, wcfg wireFlags, depth int, proto pool.Protocol, workload, metricsAddr string, workers int, qcfg queueFlags, lcfg livenessFlags, kcfg killFlags, ccfg churnFlags) error {
	var gatherer *obs.Gatherer
	if metricsAddr != "" {
		gatherer = obs.NewGatherer()
		srv, err := obs.Serve(metricsAddr, gatherer)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		// Graceful on every exit path — including a degraded survivor's —
		// so a monitor's final scrape completes and the listener never
		// outlives the process's useful life.
		defer func() { _ = srv.ShutdownTimeout(2 * time.Second) }()
		fmt.Fprintf(os.Stderr, "rank %d: metrics on http://%s/metrics\n", rank, srv.Addr())
	}
	var w *shmem.World
	var err error
	if wcfg.transport == "shm" {
		w, err = shmem.JoinShm(shmem.ShmConfig{
			Rank:         rank,
			NumPEs:       n,
			Segment:      wcfg.segment,
			HeapBytes:    distHeapBytes,
			SuspectAfter: lcfg.suspectAfter,
			DeadAfter:    lcfg.deadAfter,
			FlightDir:    lcfg.flightDir,
		})
	} else {
		w, err = shmem.Join(shmem.DistConfig{
			Rank:         rank,
			NumPEs:       n,
			Coordinator:  wcfg.coordinator,
			Bind:         wcfg.bind,
			HeapBytes:    distHeapBytes,
			OpTimeout:    lcfg.opTimeout,
			SuspectAfter: lcfg.suspectAfter,
			DeadAfter:    lcfg.deadAfter,
			FlightDir:    lcfg.flightDir,
		})
	}
	if err != nil {
		return err
	}
	// Printed after the rendezvous completes: from here on, killing this
	// process leaves a world the survivors can detect and degrade around
	// (the supervision smoke test keys on this line).
	fmt.Printf("rank %d: joined world (pid %d)\n", rank, os.Getpid())
	if ccfg.members > 0 {
		// Every process must carve the same initial membership before the
		// world runs; ranks [members, n) park until a join transitions them.
		if err := w.SetInitialMembers(ccfg.members); err != nil {
			return err
		}
		if rank >= ccfg.members {
			fmt.Printf("rank %d: starting parked (members 0..%d)\n", rank, ccfg.members-1)
		}
	}
	// Each worker schedules only its own transition; peers learn of it
	// from the advertised membership word via the liveness prober.
	if ccfg.joinRank == rank {
		time.AfterFunc(ccfg.joinAfter, func() {
			if err := w.Live().BeginJoin(rank); err != nil {
				fmt.Fprintf(os.Stderr, "rank %d: join after %v refused: %v\n", rank, ccfg.joinAfter, err)
				return
			}
			fmt.Printf("rank %d: joining the world after %v\n", rank, ccfg.joinAfter)
		})
	}
	runErr := w.Run(func(c *shmem.Ctx) error {
		// A results array on rank 0: executed-task count per rank.
		resultsAddr, err := c.Alloc(n * shmem.WordSize)
		if err != nil {
			return err
		}
		reg := pool.NewRegistry()
		var expect uint64 // expected world task total (0 = unknown)
		var seed func(p *pool.Pool) error
		pcfg := pool.Config{Protocol: proto, Seed: int64(n), Metrics: gatherer, Workers: workers,
			QueueCapacity: qcfg.capacity, Growable: qcfg.grow, MaxGrowth: qcfg.maxGrowth}
		if (kcfg.rank == rank || ccfg.drainRank == rank) && pcfg.Metrics == nil {
			// The kill and drain triggers read the pool's live executed
			// count, which is kept only with a gatherer attached; an
			// unserved one will do.
			pcfg.Metrics = obs.NewGatherer()
		}
		switch workload {
		case "uts":
			wl, err := uts.NewWorkload(uts.Small)
			if err != nil {
				return err
			}
			if err := wl.Register(reg); err != nil {
				return err
			}
			pcfg.PayloadCap = uts.PayloadSize
			seed = func(p *pool.Pool) error { return wl.Seed(p, c.Rank()) }
		case "bpc":
			wl, err := bpc.NewWorkload(bpc.Default())
			if err != nil {
				return err
			}
			if err := wl.Register(reg); err != nil {
				return err
			}
			expect = wl.Params.TotalTasks()
			seed = func(p *pool.Pool) error { return wl.Seed(p, c.Rank()) }
		default:
			var h task.Handle
			h = reg.MustRegister("node", func(tc *pool.TaskCtx, payload []byte) error {
				args, err := task.ParseArgs(payload, 1)
				if err != nil {
					return err
				}
				if args[0] == 0 {
					return nil
				}
				for i := 0; i < 2; i++ {
					if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
						return err
					}
				}
				return nil
			})
			expect = uint64(1)<<(depth+1) - 1
			seed = func(p *pool.Pool) error {
				if c.Rank() != 0 {
					return nil
				}
				return p.Add(h, task.Args(uint64(depth)))
			}
		}
		p, err := pool.New(c, reg, pcfg)
		if err != nil {
			return err
		}
		if err := seed(p); err != nil {
			return err
		}
		if kcfg.rank == rank {
			go killSelfAfter(p, kcfg.afterTasks)
		}
		if ccfg.drainRank == rank {
			go func() {
				waitExecuted(p, ccfg.drainAfterTasks)
				if err := w.Live().BeginDrain(rank); err != nil {
					fmt.Fprintf(os.Stderr, "rank %d: drain after %d tasks refused: %v\n", rank, ccfg.drainAfterTasks, err)
					return
				}
				fmt.Printf("rank %d: draining out of the world after %d tasks\n", rank, ccfg.drainAfterTasks)
			}()
		}
		start := time.Now()
		if err := p.Run(); err != nil {
			return err
		}
		st := p.Stats()
		if st.Degraded {
			// Peers died mid-run: the cross-rank result gather (stores into
			// rank 0's heap fenced by barriers) cannot complete over partial
			// membership, so each survivor reports what it knows locally.
			fmt.Printf("rank %d (pid %d): DEGRADED survivor: executed %d tasks, %d dead PEs, ~%d tasks lost by ledger (%d written off locally) in %v\n",
				c.Rank(), os.Getpid(), st.TasksExecuted, st.DeadPEs, st.TasksLost, st.TasksWrittenOff, time.Since(start).Round(time.Millisecond))
			return nil
		}
		addr := resultsAddr + shmem.Addr(c.Rank()*shmem.WordSize)
		if err := c.Store64(0, addr, st.TasksExecuted); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		fmt.Printf("rank %d (pid %d): executed %d tasks, %d steals in, %d attempts out\n",
			c.Rank(), os.Getpid(), st.TasksExecuted, st.TasksStolen, st.StealsAttempted)
		if st.MemberDrains > 0 {
			fmt.Printf("rank %d: drained and parked (%d tasks forwarded to live PEs)\n", c.Rank(), st.TasksForwarded)
		}
		if st.MemberJoins > 0 {
			fmt.Printf("rank %d: joined mid-run and executed %d tasks\n", c.Rank(), st.TasksExecuted)
		}
		if c.Rank() == 0 {
			buf := make([]byte, n*shmem.WordSize)
			if err := c.Get(0, resultsAddr, buf); err != nil {
				return err
			}
			var total uint64
			for i := 0; i < n; i++ {
				total += binary.NativeEndian.Uint64(buf[i*shmem.WordSize:])
			}
			status := "OK"
			if expect != 0 && total != expect {
				status = fmt.Sprintf("MISMATCH (want %d)", expect)
			}
			fmt.Printf("world total: %d tasks across %d processes in %v [%s]\n",
				total, n, time.Since(start).Round(time.Millisecond), status)
			if lv := w.Live(); lv.Elastic() {
				live, joining, draining, parked := lv.MembershipCounts()
				fmt.Printf("membership: epoch %d, %d live / %d joining / %d draining / %d parked\n",
					lv.MemberEpoch(), live, joining, draining, parked)
			}
		}
		return c.Barrier()
	})
	if runErr != nil {
		// Not every fatal path routes through the pool's dump triggers: a
		// steal to a freshly-killed peer can fail with a raw transport
		// error (refused dial) before the failure detector classifies the
		// peer as dead. DumpFlight is once-guarded, so this is a no-op
		// when an earlier trigger already wrote the journal.
		if derr := w.DumpFlight("run-error: " + runErr.Error()); derr != nil {
			fmt.Fprintf(os.Stderr, "rank %d: flight dump failed: %v\n", rank, derr)
		}
	}
	return runErr
}

// writeSupervisorJournal records a chaos kill into the flight-dump
// directory as flight-supervisor.jsonl: same JSONL shape as the per-rank
// journals (rank -1 marks the supervisor), one PeerState(dead) event for
// the killed rank.
func writeSupervisorJournal(dir string, n, rank, pid int, trigger string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f := trace.NewFlight(-1, 4)
	f.Record(trace.PeerState, int64(rank), int64(shmem.PeerDead), 0)
	file, err := os.Create(filepath.Join(dir, "flight-supervisor.jsonl"))
	if err != nil {
		return err
	}
	reason := fmt.Sprintf("supervisor: SIGKILLed rank %d (pid %d) %s", rank, pid, trigger)
	if err := f.WriteTo(file, n, reason); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sws-dist:", err)
	os.Exit(1)
}
