// Execution layer: multi-worker PEs. Config.Workers goroutines share one
// PE — one designated owner worker drives every protocol owner op
// (Release/Acquire/Progress/Push/Pop, epoch flips, termination probes,
// mailbox sends) so the single-owner invariants of internal/core hold
// unchanged, while executor workers spin on the intra-PE tier (an
// internal/ldeque MPMC ring) running tasks. Work flows
//
//	spawn -> ring -> (overflow, staged by owner) -> wsq local -> shared,
//	wsq local -> ring (owner refill)            -> executors,
//
// so the SWS stealval protocol remains the inter-PE tier only: local
// workers exchange tasks with process atomics, and remote thieves see the
// surplus the owner releases — the two-level scheme of Wimmer & Träff
// style mixed-mode runtimes.
//
// Termination accounting is aggregated: workers keep per-worker atomic
// (spawned, executed) counters with spawn counted before a task becomes
// visible and execution counted after its body returns; each owner
// iteration stages worker output, publishes count deltas (loading
// executed before spawned — see term.Publish for why that order never
// under-counts), and only then makes staged tasks remotely observable.
package pool

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sws/internal/ldeque"
	"sws/internal/ptimer"
	"sws/internal/stats"
	"sws/internal/task"
	"sws/internal/trace"
)

// workerState is one worker goroutine's slice of the execution layer.
// Worker 0 is the owner.
type workerState struct {
	id int
	tc TaskCtx
	// rng is this worker's independent deterministic stream (worker 0's
	// doubles as the PE's victim-selection stream).
	rng *rand.Rand

	// Termination counters (see term.Publish): spawned is incremented
	// before a spawned task becomes visible anywhere; executed after the
	// task body returns.
	spawned  atomic.Uint64
	executed atomic.Uint64

	execNs    atomic.Int64
	idleIters atomic.Uint64
}

// remoteSpawn is a worker-issued SpawnOn staged for the owner to send.
type remoteSpawn struct {
	pe int
	d  task.Desc
}

// execLayer holds a multi-worker PE's shared execution state.
type execLayer struct {
	dq      *ldeque.Queue
	workers []*workerState

	// mu guards the overflow/outbox staging areas and the first-error
	// slot. Workers only append under contention-free short sections; the
	// owner swaps the slices out wholesale each iteration.
	mu       sync.Mutex
	overflow []task.Desc   // local spawns that did not fit in the ring
	outbox   []remoteSpawn // worker SpawnOn calls awaiting the owner
	err      error         // first executor failure

	// stop tells executors to exit (set at termination or on error;
	// rearmed at the start of each job).
	stop atomic.Bool

	// pubSpawned/pubExecuted are the aggregate counts already published
	// to the termination detector (owner-only; monotonic across jobs,
	// like the detector's counters).
	pubSpawned  uint64
	pubExecuted uint64

	// refillTarget is the adaptive ring-refill batch: how deep
	// fillLocalTier fills the intra-PE ring, in tasks. It starts at the
	// classic fixed batch (2x workers) and tracks observed executor
	// starvation — bursty workloads that leave executors idling between
	// refills push it toward the ring capacity; steady ones decay it back
	// (owner-only).
	refillTarget int
	// refillIdleBase is the executor idle-iteration sum already accounted
	// for by refill adaptation (owner-only).
	refillIdleBase uint64

	// foldedExec/foldedSpawned/foldedExecNs are the worker-counter totals
	// fold has already merged into the PE stats, so folding once per job
	// on a warm pool adds only each job's delta (owner-only).
	foldedExec    uint64
	foldedSpawned uint64
	foldedExecNs  int64
}

func newExecLayer(p *Pool, workers, ringCap int) *execLayer {
	ex := &execLayer{dq: ldeque.MustNew(ringCap), refillTarget: 2 * workers}
	for i := 0; i < workers; i++ {
		ws := &workerState{id: i, rng: rngStream(p.cfg.Seed, p.ctx.Rank(), i)}
		ws.tc = TaskCtx{p: p, w: ws}
		ex.workers = append(ex.workers, ws)
	}
	return ex
}

// fail records the first executor error; the owner surfaces it.
func (ex *execLayer) fail(err error) {
	ex.mu.Lock()
	if ex.err == nil {
		ex.err = err
	}
	ex.mu.Unlock()
}

func (ex *execLayer) firstErr() error {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return ex.err
}

// takeStaged swaps out the staging areas, returning worker output for the
// owner to publish and forward.
func (ex *execLayer) takeStaged() ([]task.Desc, []remoteSpawn) {
	ex.mu.Lock()
	over, out := ex.overflow, ex.outbox
	ex.overflow, ex.outbox = nil, nil
	ex.mu.Unlock()
	return over, out
}

// workerSpawn is the multi-worker Spawn path: count, copy, ring, with
// ring overflow staged for the owner to push into the protocol queue.
func (p *Pool) workerSpawn(ws *workerState, h task.Handle, payload []byte) error {
	if len(payload) > p.cfg.PayloadCap {
		return fmt.Errorf("pool: payload %d bytes exceeds PayloadCap %d", len(payload), p.cfg.PayloadCap)
	}
	d := task.Desc{Handle: h}
	if len(payload) > 0 {
		// The ring keeps a reference (the protocol queue would copy);
		// copying here preserves Spawn's caller-may-reuse-buffer contract.
		d.Payload = append([]byte(nil), payload...)
	}
	// Count before the task becomes visible — the ordering term.Publish
	// relies on.
	ws.spawned.Add(1)
	if p.live != nil {
		p.live.tasksSpawned.Add(1)
	}
	if p.exec.dq.TryPush(d) {
		return nil
	}
	p.exec.mu.Lock()
	p.exec.overflow = append(p.exec.overflow, d)
	p.exec.mu.Unlock()
	return nil
}

// workerSpawnOn is the multi-worker SpawnOn path: remote sends are owner
// ops (the spawn count must be published before the task is observable on
// the target), so workers stage them in the outbox.
func (p *Pool) workerSpawnOn(ws *workerState, pe int, h task.Handle, payload []byte) error {
	if pe == p.ctx.Rank() {
		return p.workerSpawn(ws, h, payload)
	}
	if pe < 0 || pe >= p.ctx.NumPEs() {
		return fmt.Errorf("pool: SpawnOn target %d out of range [0, %d)", pe, p.ctx.NumPEs())
	}
	if lv := p.ctx.Liveness(); lv != nil && lv.Elastic() && !lv.Member(pe) {
		// See Pool.SpawnOn: non-member targets spawn locally instead.
		return p.workerSpawn(ws, h, payload)
	}
	if len(payload) > p.cfg.PayloadCap {
		return fmt.Errorf("pool: payload %d bytes exceeds PayloadCap %d", len(payload), p.cfg.PayloadCap)
	}
	d := task.Desc{Handle: h}
	if len(payload) > 0 {
		d.Payload = append([]byte(nil), payload...)
	}
	ws.spawned.Add(1)
	if p.live != nil {
		p.live.tasksSpawned.Add(1)
	}
	p.exec.mu.Lock()
	p.exec.outbox = append(p.exec.outbox, remoteSpawn{pe: pe, d: d})
	p.exec.mu.Unlock()
	return nil
}

// executeWorker runs one task on behalf of a worker, updating the
// worker's atomic counters and the shared (atomic) instrumentation.
func (p *Pool) executeWorker(ws *workerState, d task.Desc) error {
	fn, err := p.reg.fn(d.Handle)
	if err != nil {
		return err
	}
	t0 := ptimer.Now()
	if err := fn(&ws.tc, d.Payload); err != nil {
		return fmt.Errorf("pool: task %d failed: %w", d.Handle, err)
	}
	el := p.cal.Since(t0)
	ws.execNs.Add(int64(el))
	p.lat.exec.Record(el)
	p.tr.Record(trace.TaskExec, int64(d.Handle), int64(el))
	if p.live != nil {
		p.live.tasksExecuted.Add(1)
	}
	// Executed counts only after the body returned — by then every child
	// spawn is in some worker's spawned counter, so the owner's
	// executed-before-spawned load order covers them.
	ws.executed.Add(1)
	return nil
}

// executorLoop is a non-owner worker: pop from the intra-PE ring, run,
// repeat; yield (and occasionally sleep) when the ring is dry so
// oversubscribed worlds stay live.
func (p *Pool) executorLoop(ws *workerState) {
	ex := p.exec
	spins := 0
	for !ex.stop.Load() {
		d, ok := ex.dq.TryPop()
		if !ok {
			ws.idleIters.Add(1)
			spins++
			if spins%256 == 0 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		spins = 0
		if err := p.executeWorker(ws, d); err != nil {
			ex.fail(err)
			return
		}
	}
}

// publishCounts aggregates the workers' termination counters and
// publishes the deltas. It loads every executed counter before any
// spawned counter: a task's spawn increment happens before it becomes
// poppable and its execution increment happens after its body (and all
// its child spawns) finished, so this order guarantees the published
// pair never shows an execution whose spawn — or whose children's spawns
// — are missing. That invariant is what makes termination probes safe at
// any moment, even with tasks mid-flight in other workers' hands: every
// outstanding task keeps some PE's published spawned ahead of the global
// executed sum.
func (p *Pool) publishCounts() error {
	ex := p.exec
	var te, ts uint64
	for _, ws := range ex.workers {
		te += ws.executed.Load()
	}
	for _, ws := range ex.workers {
		ts += ws.spawned.Load()
	}
	if ts > ex.pubSpawned || te > ex.pubExecuted {
		if err := p.det.Publish(int(ts-ex.pubSpawned), int(te-ex.pubExecuted)); err != nil {
			return err
		}
		ex.pubSpawned, ex.pubExecuted = ts, te
	}
	return nil
}

// adaptRefill computes the next ring-refill batch from the previous one
// and the executor idle iterations observed since the last refill, clamped
// to [min, max]. Any observed starvation doubles the batch — idle
// executors mean refills were not keeping up, so the next one should
// stock deeper; an idle-free interval decays the batch halfway back
// toward the classic fixed minimum, so a workload that stops bursting
// stops hoarding (surplus returns to the protocol queue where thieves
// can see it).
func adaptRefill(prev int, idleDelta uint64, min, max int) int {
	next := prev
	if idleDelta > 0 {
		next = prev * 2
	} else {
		next = min + (prev-min)/2
	}
	if next < min {
		next = min
	}
	if next > max {
		next = max
	}
	return next
}

// fillLocalTier keeps the ring fed from the protocol queue: when the ring
// runs shallow (below one task per worker) the owner pops from the local
// portion up to the adaptive refill target. The target starts at the
// classic 2x-workers batch and tracks observed executor starvation
// (adaptRefill), so bursty workloads keep the ring warm while steady ones
// stay shallow — surplus work lives in the protocol queue where Release
// can expose it to remote thieves; deep local tiers hoard.
func (p *Pool) fillLocalTier() (int, error) {
	ex := p.exec
	w := len(ex.workers)
	if ex.dq.Len() >= w {
		return 0, nil
	}
	var idle uint64
	for _, ws := range ex.workers[1:] {
		idle += ws.idleIters.Load()
	}
	ex.refillTarget = adaptRefill(ex.refillTarget, idle-ex.refillIdleBase, 2*w, p.cfg.LocalQueueCap)
	ex.refillIdleBase = idle
	if p.live != nil {
		p.live.refillTarget.Store(int64(ex.refillTarget))
	}
	moved := 0
	for ex.dq.Len() < ex.refillTarget {
		d, ok, err := p.q.Pop()
		if err != nil {
			return moved, err
		}
		if !ok {
			break
		}
		if !ex.dq.TryPush(d) {
			// Workers refilled the ring concurrently; put the task back.
			if err := p.push(d); err != nil {
				return moved, err
			}
			break
		}
		moved++
	}
	return moved, nil
}

// sendStagedRemote delivers one staged worker SpawnOn. The covering
// publishCounts already ran, so the spawn is visible to the detector
// before the task can be observed remotely.
func (p *Pool) sendStagedRemote(o remoteSpawn) error {
	if err := p.mbox.send(o.pe, o.d); err != nil {
		return err
	}
	p.st.RemoteSpawnsSent++
	p.tr.Record(trace.RemoteSpawn, int64(o.pe), 0)
	if p.live != nil {
		p.live.remoteSent.Add(1)
	}
	return nil
}

// runMulti is the owner worker's loop. It drives the same scheduler steps
// as runSingle, plus the execution-layer choreography: stage worker
// output, publish aggregated counts, make staged work observable, keep
// the ring fed, and execute tasks itself between protocol duties.
func (p *Pool) runMulti() (err error) {
	ex := p.exec
	ex.stop.Store(false) // rearm after any previous job on a warm pool
	var wg sync.WaitGroup
	for _, ws := range ex.workers[1:] {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			p.executorLoop(ws)
		}(ws)
	}
	defer func() {
		ex.stop.Store(true)
		wg.Wait()
		if err == nil {
			err = ex.firstErr()
		}
		ex.fold(p)
	}()

	iter := 0
	for {
		iter++
		if werr := p.ctx.Err(); werr != nil {
			return fmt.Errorf("pool: world failed: %w", werr)
		}
		if ferr := ex.firstErr(); ferr != nil {
			return ferr
		}
		if err := p.stepMembership(); err != nil {
			return err
		}
		if p.parked {
			done, err := p.stepParked()
			if err != nil {
				return err
			}
			if done {
				break
			}
			p.st.IdleIters++
			ex.workers[0].idleIters.Add(1)
			p.ctx.Relax()
			continue
		}
		// Stage worker output, publish the counts that cover it, and only
		// then make it remotely observable (push/send) — the order that
		// keeps the detector from ever missing outstanding work.
		staged, outbox := ex.takeStaged()
		if err := p.publishCounts(); err != nil {
			return err
		}
		for _, d := range staged {
			if err := p.push(d); err != nil {
				return err
			}
		}
		for _, o := range outbox {
			if err := p.sendStagedRemote(o); err != nil {
				return err
			}
		}
		if err := p.stepRelease(); err != nil {
			return err
		}
		if err := p.stepProgress(iter); err != nil {
			return err
		}
		handled, err := p.stepDrainInbox()
		if err != nil {
			return err
		}
		if handled {
			continue
		}
		moved, err := p.fillLocalTier()
		if err != nil {
			return err
		}
		// The owner is a worker too: run one task between protocol duties.
		if d, ok := ex.dq.TryPop(); ok {
			if err := p.executeWorker(ex.workers[0], d); err != nil {
				return err
			}
			p.ctx.Relax()
			continue
		}
		if moved > 0 {
			continue
		}
		handled, err = p.stepAcquire()
		if err != nil {
			return err
		}
		if handled {
			continue
		}
		found, err := p.search()
		if err != nil {
			return err
		}
		if found {
			continue
		}
		// Probe termination. Per-PE counts do not balance individually
		// (stolen tasks execute on a different rank than they spawned
		// on); only the global sum does, and the publish ordering above
		// makes probing safe at any moment — outstanding work always
		// keeps the global sums apart.
		done, err := p.stepCheckTermination()
		if err != nil {
			return err
		}
		if done {
			break
		}
		p.st.IdleIters++
		ex.workers[0].idleIters.Add(1)
		p.ctx.Relax()
	}
	ex.stop.Store(true)
	wg.Wait()
	// Global termination implies quiescence, so no worker output can have
	// appeared after the final publish; verify the invariant held.
	if over, out := ex.takeStaged(); len(over) != 0 || len(out) != 0 {
		return fmt.Errorf("pool: %d tasks staged after termination (accounting bug)", len(over)+len(out))
	}
	return nil
}

// fold merges the workers' atomic counters into the PE's stats, including
// the per-worker breakdown rows. It runs once per job (after the
// executors have stopped); the PE totals absorb only the delta since the
// previous fold, and the per-worker rows are rewritten in place with
// pool-lifetime cumulative figures — so a warm pool neither double-counts
// across jobs nor grows a row per job, and stats.PE.Delta can difference
// the rows by (PE, ID) for per-job worker breakdowns.
func (ex *execLayer) fold(p *Pool) {
	rank := p.ctx.Rank()
	if len(p.st.Workers) != len(ex.workers) {
		p.st.Workers = make([]stats.Worker, len(ex.workers))
	}
	var sumExe, sumSp uint64
	var sumNs int64
	for i, ws := range ex.workers {
		exe, sp := ws.executed.Load(), ws.spawned.Load()
		ns := ws.execNs.Load()
		sumExe += exe
		sumSp += sp
		sumNs += ns
		w := stats.Worker{
			PE: rank, ID: ws.id,
			TasksExecuted: exe, TasksSpawned: sp,
			ExecTime: time.Duration(ns), IdleIters: ws.idleIters.Load(),
		}
		if ws.id == 0 {
			w.StealTime, w.SearchTime = p.st.StealTime, p.st.SearchTime
		}
		p.st.Workers[i] = w
	}
	p.st.TasksExecuted += sumExe - ex.foldedExec
	p.st.TasksSpawned += sumSp - ex.foldedSpawned
	p.st.ExecTime += time.Duration(sumNs - ex.foldedExecNs)
	ex.foldedExec, ex.foldedSpawned, ex.foldedExecNs = sumExe, sumSp, sumNs
}
