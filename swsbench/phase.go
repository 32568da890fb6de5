package main

import (
	"errors"
	"runtime"
	"runtime/debug"
	"time"

	"sws/internal/shmem"
	"sws/internal/stats"
)

// phase is a stretch of back-to-back jobs of one workload.
type phase struct {
	jobs, checks, failed, refused int
	tasks                         uint64
	wall                          time.Duration
	latMS                         []float64
	// rateCPU is each job's tasks per second of CPU time the whole
	// process used while the job ran.
	rateCPU []float64
	// memPeakMB is the phase's peak resident set, megabytes.
	memPeakMB float64
	misses    []string
	// err is a failure that ended the phase early.
	err error

	// pool is the pool layer's accounting, collected in traced phases.
	pool poolView
	// serve is the service's latency split (serve-tiny only).
	serve *serveView
}

type poolView struct {
	tot   stats.PE
	perPE []stats.PE
	// wall is the time the pools were up: inside bench.RunOnce, or the
	// whole phase for the service's always-on fleet.
	wall    time.Duration
	mallocs uint64
	comms   shmem.CounterSnapshot
}

type serveView struct {
	queueMS, runMS, overheadMS []float64
}

// merge adds q's jobs and accounting to p.
func (p *phase) merge(q *phase) {
	p.jobs += q.jobs
	p.checks += q.checks
	p.failed += q.failed
	p.refused += q.refused
	p.tasks += q.tasks
	p.wall += q.wall
	p.latMS = append(p.latMS, q.latMS...)
	p.rateCPU = append(p.rateCPU, q.rateCPU...)
	p.memPeakMB = max(p.memPeakMB, q.memPeakMB)
	p.misses = append(p.misses, q.misses...)
	p.err = errors.Join(p.err, q.err)
	p.pool.tot.Add(q.pool.tot)
	for pe, st := range q.pool.perPE {
		if pe == len(p.pool.perPE) {
			p.pool.perPE = append(p.pool.perPE, stats.PE{})
		}
		p.pool.perPE[pe].Add(st)
	}
	p.pool.wall += q.pool.wall
	p.pool.mallocs += q.pool.mallocs
	p.pool.comms = p.pool.comms.Add(q.pool.comms)
	if q.serve != nil {
		if p.serve == nil {
			p.serve = &serveView{}
		}
		p.serve.queueMS = append(p.serve.queueMS, q.serve.queueMS...)
		p.serve.runMS = append(p.serve.runMS, q.serve.runMS...)
		p.serve.overheadMS = append(p.serve.overheadMS, q.serve.overheadMS...)
	}
}

func (p *phase) tasksPerS() float64    { return ratio(float64(p.tasks), p.wall.Seconds()) }
func (p *phase) jobsPerS() float64     { return ratio(float64(p.jobs), p.wall.Seconds()) }
func (p *phase) p50() float64          { return median(p.latMS) }
func (p *phase) tasksPerCPUS() float64 { return median(p.rateCPU) }

// runPhase runs jobs first, first+1, ... until d has passed (or maxJobs
// jobs ran, when maxJobs > 0). A nil tracer records no spans and reads
// no counters beyond what the correctness checks need. Each job's CPU
// time is read around the job alone; the memory bookkeeping between
// jobs is outside it: before each memory segment (runner.segment) the
// garbage of the jobs before is collected and its pages returned to the
// OS, so the phase's peak is that of the largest segment, not of garbage
// the collector had not yet reached.
func runPhase(r runner, tr *tracer, d time.Duration, maxJobs, first int) *phase {
	p := &phase{}
	sr, isServe := r.(*serveRunner)
	var before []stats.PE
	var comms0 shmem.CounterSnapshot
	var m0 runtime.MemStats
	if isServe {
		p.serve = &serveView{}
		before, comms0 = sr.fleetTotals()
		if tr != nil {
			runtime.ReadMemStats(&m0)
		}
	}
	seg := r.segment()
	t0 := time.Now()
	deadline := t0.Add(d)
	for i := first; ; i++ {
		// Segments count from the phase's first job, so a phase never
		// inherits a segment its predecessor started.
		k := i - first
		if k%seg == 0 {
			if err := r.renew(); err != nil {
				p.err = err
				break
			}
			debug.FreeOSMemory()
			if k == 0 {
				resetPeakRSS()
			}
		}
		cpu0 := processCPU()
		res := r.job(tr, i)
		cpu := processCPU() - cpu0
		p.jobs++
		p.tasks += res.tasks
		latMS := float64(res.latency.Nanoseconds()) / 1e6
		p.latMS = append(p.latMS, latMS)
		p.rateCPU = append(p.rateCPU, ratio(float64(res.tasks), cpu.Seconds()))
		if res.err != nil {
			p.failed++
			p.err = res.err
			break
		}
		if res.miss != "" {
			p.failed++
			p.misses = append(p.misses, res.miss)
		}
		if res.refused {
			p.refused++
		}
		if isServe {
			q, run := res.status.QueueSeconds*1e3, res.status.RunSeconds*1e3
			p.serve.queueMS = append(p.serve.queueMS, q)
			p.serve.runMS = append(p.serve.runMS, run)
			p.serve.overheadMS = append(p.serve.overheadMS, latMS-q-run)
		} else if tr != nil {
			p.pool.tot.Add(res.run.Total())
			for pe, st := range res.run.PEs {
				if pe == len(p.pool.perPE) {
					p.pool.perPE = append(p.pool.perPE, stats.PE{})
				}
				p.pool.perPE[pe].Add(st)
			}
			p.pool.wall += res.latency
			p.pool.mallocs += res.mallocs
		}
		if time.Now().After(deadline) || (maxJobs > 0 && p.jobs >= maxJobs) {
			break
		}
	}
	p.wall = time.Since(t0)
	p.memPeakMB = peakRSSMB()
	if isServe {
		// The fleet is quiescent between jobs: its cumulative counters
		// cover exactly this phase's jobs once the phase start is
		// subtracted.
		after, comms1 := sr.fleetTotals()
		for pe := range after {
			d := after[pe].Delta(before[pe])
			p.pool.perPE = append(p.pool.perPE, d)
			p.pool.tot.Add(d)
		}
		p.checks++
		if miss := ledgerMiss(p.pool.tot); miss != "" {
			p.failed++
			p.misses = append(p.misses, "serve fleet: "+miss)
		}
		p.pool.wall = p.wall
		p.pool.comms = comms1.Sub(comms0)
		if tr != nil {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			p.pool.mallocs = m1.Mallocs - m0.Mallocs
		}
	}
	return p
}
