// Scheduler layer: the per-PE decision loop, decomposed into small
// explicit steps. Each step is one scheduling decision — expose work,
// reclaim protocol space, drain the remote-spawn inbox, run a local task,
// pull shared work back, steal, probe termination — over the protocol
// layer (wsq.Queue) underneath. Run dispatches to the single-worker loop
// (the paper's one-goroutine PE, preserved op-for-op) or the multi-worker
// loop in worker.go, where the same steps are driven by the owner worker
// while executors consume the intra-PE tier.
package pool

import (
	"errors"
	"fmt"
	"time"

	"sws/internal/ptimer"
	"sws/internal/shmem"
	"sws/internal/stats"
	"sws/internal/trace"
	"sws/internal/wsq"
)

// JobResult summarizes one job's execution on this PE.
type JobResult struct {
	// Seq is the job's 1-based sequence number on this pool.
	Seq uint64
	// Stats is this PE's counter set scoped to the job: the delta of the
	// pool's cumulative counters across the job's barriers.
	Stats stats.PE
	// Elapsed is this PE's wall time between the job's barriers.
	Elapsed time.Duration
}

// Run processes tasks until global termination. It is RunJob without the
// per-job result — kept for the common one-job-per-pool call sites. A
// warm pool may call it (or RunJob) any number of times; each call is one
// job epoch.
func (p *Pool) Run() error {
	_, err := p.RunJob()
	return err
}

// RunJob runs one job epoch to global termination: it rearms the
// termination detector, opens with a barrier (which fences every PE's
// detector reset against the job's eventual verdict broadcast), processes
// tasks until the detector declares the global pool exhausted, and closes
// with a barrier. Every PE must call it collectively, with the job's
// root tasks seeded (Add/SpawnOn) beforehand. Whole-job timing covers
// the span between the barriers, matching the paper's whole-program
// timers; the returned stats are the job's deltas, so a long-lived fleet
// reports per-job figures while Stats stays cumulative.
func (p *Pool) RunJob() (JobResult, error) {
	p.jobSeq++
	p.prevProbes = 0
	prev := p.Stats()
	if err := p.det.StartJob(); err != nil {
		return JobResult{}, err
	}
	p.tr.Record(trace.JobStart, int64(p.jobSeq), 0)
	if err := p.ctx.Barrier(); err != nil {
		if !errors.Is(err, shmem.ErrPeerDead) {
			return JobResult{}, err
		}
		// A peer died before the job started. All collective allocation
		// happened in New; the barrier is only a timing fence, so the
		// survivors proceed straight into a degraded job.
	}
	start := time.Now()
	var err error
	if p.exec != nil {
		err = p.runMulti()
	} else {
		err = p.runSingle()
	}
	if err != nil {
		return JobResult{}, err
	}
	p.elapsed = time.Since(start)
	res := JobResult{Seq: p.jobSeq, Elapsed: p.elapsed, Stats: p.Stats().Delta(prev)}
	p.tr.Record(trace.JobEnd, int64(p.jobSeq), int64(res.Stats.TasksExecuted))
	if lv := p.ctx.Liveness(); lv != nil && lv.AnyDead() {
		// The closing barrier can never complete over dead membership;
		// the degraded termination broadcast already synchronized the
		// survivors' decision to stop.
		return res, nil
	}
	if err := p.ctx.Barrier(); err != nil && !errors.Is(err, shmem.ErrPeerDead) {
		// A death declared while waiting here (kill racing the finish)
		// poisons the barrier; the job's work is already complete, so a
		// dead-peer unwind is not a failure.
		return res, err
	}
	return res, nil
}

// runSingle is the classic one-goroutine scheduler loop. The step order —
// release, periodic progress, inbox drain, local pop, acquire, search,
// termination check — and every communication it performs are identical
// to the pre-layering monolith, which is what keeps Workers=1 sim runs
// bit-compatible.
func (p *Pool) runSingle() error {
	iter := 0
	for {
		iter++
		if err := p.ctx.Err(); err != nil {
			return fmt.Errorf("pool: world failed: %w", err)
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
				return nil
			}
			p.st.IdleIters++
			p.ctx.Relax()
			continue
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
		handled, err = p.stepExecuteLocal()
		if err != nil {
			return err
		}
		if handled {
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
		done, err := p.stepCheckTermination()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		// Idle PEs keep searching aggressively (the paper's model has
		// idle processes continuously looking for work); Relax keeps
		// oversubscribed worlds live and is the sim's scheduling point.
		p.st.IdleIters++
		p.ctx.Relax()
	}
}

// releaseMayMove is the owner-side precondition of every protocol's
// Release: at least two local tasks and no unclaimed shared ones. A
// Release that moves work found it true on entry; the converse need not
// hold (an SWS release also waits for the next parity to drain).
// TestReleaseAcquireGates pins this to both protocols' queues.
func releaseMayMove(q wsq.Queue) bool {
	return q.LocalCount() >= 2 && q.SharedAvail() == 0
}

// acquireMayMove is the owner-side precondition of an Acquire that moves
// work: unclaimed shared tasks remain.
func acquireMayMove(q wsq.Queue) bool { return q.SharedAvail() > 0 }

// stepRelease exposes work to thieves when the shared portion has run dry
// (§3.1: release is invoked when the runtime discovers the imbalance).
// Release runs on every iteration (an elastic queue does its maintenance
// there), but the clock is read only when releaseMayMove says it can move
// work. The pre-check costs one extra own-heap Load64 on busy iterations,
// and it races thieves: one that claims the last shared task between the
// pre-check and Release lets Release move work untimed. The release
// latency histogram's count can therefore trail the releases counter.
func (p *Pool) stepRelease() error {
	var t0 ptimer.Tick
	if releaseMayMove(p.q) {
		t0 = ptimer.Now()
	}
	released, err := p.q.Release()
	if err != nil {
		return err
	}
	if released > 0 {
		if t0 != 0 {
			p.lat.release.Record(p.cal.Since(t0))
		}
		p.st.Releases++
		p.tr.Record(trace.Release, 0, int64(released))
		p.recordEpochFlip(int64(released))
		if p.live != nil {
			p.live.releases.Add(1)
		}
	}
	return nil
}

// stepProgress periodically reclaims queue space held by completed steals
// and refreshes the live queue-depth gauges.
func (p *Pool) stepProgress(iter int) error {
	if iter%64 != 0 {
		return nil
	}
	if err := p.q.Progress(); err != nil {
		return err
	}
	local, shared := int64(p.q.LocalCount()), int64(p.q.SharedAvail())
	if p.live != nil {
		p.live.qLocal.Store(local)
		p.live.qShared.Store(shared)
		if p.coreQ != nil {
			// Elastic mirror: this step runs on the owner goroutine, so
			// reading owner-side queue stats here is race-free.
			qs := p.coreQ.Stats()
			p.live.queueGrows.Store(qs.Grows)
			p.live.queueShrinks.Store(qs.Shrinks)
			p.live.tasksSpilled.Store(qs.Spilled)
			p.live.queueCap.Store(int64(qs.Capacity))
			p.live.spillDepth.Store(int64(qs.SpillDepth))
		}
	}
	// Journal the depth only when it moved: an idle PE polling Progress
	// must not flood its flight ring with identical samples.
	if local != p.flightQLocal || shared != p.flightQShared {
		p.flightQLocal, p.flightQShared = local, shared
		p.ctx.FlightRecord(trace.QueueDepth, local, shared)
	}
	return nil
}

// stepDrainInbox moves remotely spawned tasks from the inbox into the
// local queue (already counted as spawned by their senders), reporting
// whether any arrived.
func (p *Pool) stepDrainInbox() (bool, error) {
	got, err := p.mbox.drain(p.push)
	if err != nil {
		return false, err
	}
	if got == 0 {
		return false, nil
	}
	if err := p.det.NoteActivity(); err != nil {
		return false, err
	}
	p.st.RemoteSpawnsRecv += uint64(got)
	p.tr.Record(trace.InboxDrain, 0, int64(got))
	if p.live != nil {
		p.live.remoteRecv.Add(uint64(got))
	}
	return true, nil
}

// stepExecuteLocal pops and runs the newest local task (LIFO), reporting
// whether one ran.
func (p *Pool) stepExecuteLocal() (bool, error) {
	d, ok, err := p.q.Pop()
	if err != nil || !ok {
		return false, err
	}
	if err := p.execute(d); err != nil {
		return false, err
	}
	// One scheduling point per task keeps oversubscribed worlds fair:
	// thieves get to run between a busy PE's tasks, which is what
	// dedicated cores would give them.
	p.ctx.Relax()
	return true, nil
}

// stepAcquire pulls shared work back once the local portion is empty,
// reporting whether anything moved. Like stepRelease it reads the clock
// only when acquireMayMove says it can move work, so the acquire latency
// histogram's count can trail the acquires counter.
func (p *Pool) stepAcquire() (bool, error) {
	var t0 ptimer.Tick
	if acquireMayMove(p.q) {
		t0 = ptimer.Now()
	}
	moved, err := p.q.Acquire()
	if err != nil || moved == 0 {
		return false, err
	}
	if t0 != 0 {
		p.lat.acquire.Record(p.cal.Since(t0))
	}
	p.st.Acquires++
	p.tr.Record(trace.Acquire, 0, int64(moved))
	p.recordEpochFlip(int64(moved))
	if p.live != nil {
		p.live.acquires.Add(1)
	}
	return true, nil
}

// stepCheckTermination runs one termination-detection probe, tracing
// summation waves and the final termination event.
func (p *Pool) stepCheckTermination() (bool, error) {
	done, err := p.det.Check()
	if err != nil {
		return false, err
	}
	if pr := p.det.Probes; pr != p.prevProbes {
		p.prevProbes = pr
		var flag int64
		if done {
			flag = 1
		}
		p.tr.Record(trace.TermWave, int64(pr), flag)
	}
	if done {
		p.tr.Record(trace.Terminated, 0, 0)
		if p.live != nil {
			p.live.terminated.Store(1)
			if p.det.Degraded {
				p.live.degraded.Store(1)
				p.live.tasksLost.Store(p.det.Lost)
			}
		}
		if p.det.Degraded {
			// Degraded termination means work was written off with dead
			// PEs — exactly the post-mortem the journals exist for.
			_ = p.ctx.FlightDump("degraded termination")
		}
	}
	return done, nil
}
