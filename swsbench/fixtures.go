package main

import (
	"errors"
	"fmt"
	"time"

	"sws/internal/bench"
	"sws/internal/core"
	"sws/internal/pool"
	"sws/internal/sdc"
	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/uts"
	"sws/internal/wsq"
)

// fixtures measures the layers under the workloads on small dedicated
// 2-PE worlds with no injected latency (unless a metric's name says
// rtt2us). Rank 0 issues the operations; rank 1 is the remote target or
// the thief. Every value is a median over batches or repetitions.
type fixtures struct {
	tr     *tracer
	parent uint64
	out    map[string]float64
	// checks counts the assertions made; misses lists those that failed.
	checks int
	misses []string
}

func (f *fixtures) check(ok bool, format string, args ...any) {
	f.checks++
	if !ok {
		f.misses = append(f.misses, fmt.Sprintf(format, args...))
	}
}

// run measures every fixture in turn.
func (f *fixtures) run() error {
	steps := []func() error{
		f.opsLocalAndShm,
		f.opsTCP,
		f.opOverhead,
		f.steals,
		f.ownerOps,
		f.emptyJob,
		f.serial,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// opSpec is one timed one-sided operation.
type opSpec struct {
	metric, span string
	remote       bool
	n, batches   int
	op           func(c *shmem.Ctx, pe int, addr shmem.Addr, buf []byte) error
	// quiet completes the batch's non-blocking ops inside the timing.
	quiet bool
}

func fetchAdd(c *shmem.Ctx, pe int, addr shmem.Addr, _ []byte) error {
	_, err := c.FetchAdd64(pe, addr, 1)
	return err
}

func get64(c *shmem.Ctx, pe int, addr shmem.Addr, buf []byte) error {
	return c.Get(pe, addr+shmem.WordSize, buf)
}

func storeNBI(c *shmem.Ctx, pe int, addr shmem.Addr, _ []byte) error {
	return c.Store64NBI(pe, addr+2*shmem.WordSize, 7)
}

// ops times each spec on a fresh 2-PE world and checks that the
// fetch-adds all landed.
func (f *fixtures) ops(cfg shmem.Config, specs []opSpec) error {
	cfg.NumPEs = 2
	cfg.HeapBytes = 1 << 20
	w, err := shmem.NewWorld(cfg)
	if err != nil {
		return err
	}
	return w.Run(func(c *shmem.Ctx) error {
		addr, err := c.Alloc(4 * shmem.WordSize)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			buf := make([]byte, shmem.WordSize)
			adds := [2]uint64{}
			for _, s := range specs {
				pe := 0
				if s.remote {
					pe = 1
				}
				per := make([]float64, 0, s.batches)
				sp := f.tr.start(s.span, f.parent)
				for b := 0; b < s.batches; b++ {
					t0 := time.Now()
					for i := 0; i < s.n; i++ {
						if err := s.op(c, pe, addr, buf); err != nil {
							return err
						}
					}
					if s.quiet {
						if err := c.Quiet(); err != nil {
							return err
						}
					}
					per = append(per, float64(time.Since(t0).Nanoseconds())/float64(s.n))
				}
				sp.end(map[string]float64{"ops": float64(s.n * s.batches)})
				f.out[s.metric] = median(per)
				if s.span == "shmem.Ctx.FetchAdd64" {
					adds[pe] += uint64(s.n * s.batches)
				}
			}
			for pe, want := range adds {
				got, err := c.Load64(pe, addr)
				if err != nil {
					return err
				}
				f.check(got == want, "shmem %v: PE %d counter %d after %d fetch-adds", cfg.Transport, pe, got, want)
			}
		}
		return c.Barrier()
	})
}

func (f *fixtures) opsLocalAndShm() error {
	for _, tk := range []shmem.TransportKind{shmem.TransportLocal, shmem.TransportShm} {
		t := tk.String()
		err := f.ops(shmem.Config{Transport: tk}, []opSpec{
			{"shmem.fetch_add_self_ns." + t, "shmem.Ctx.FetchAdd64", false, 20000, 9, fetchAdd, false},
			{"shmem.fetch_add_remote_ns." + t, "shmem.Ctx.FetchAdd64", true, 20000, 9, fetchAdd, false},
			{"shmem.get64_remote_ns." + t, "shmem.Ctx.Get", true, 20000, 9, get64, false},
			{"shmem.store_nbi_remote_ns." + t, "shmem.Ctx.Store64NBI", true, 20000, 9, storeNBI, true},
		})
		if err != nil {
			return fmt.Errorf("%s op fixture: %w", t, err)
		}
	}
	return nil
}

// opsTCP is the only point that opens sockets (loopback).
func (f *fixtures) opsTCP() error {
	err := f.ops(shmem.Config{Transport: shmem.TransportTCP}, []opSpec{
		{"shmem.fetch_add_remote_ns.tcp", "shmem.Ctx.FetchAdd64", true, 300, 9, fetchAdd, false},
	})
	if err != nil {
		return fmt.Errorf("tcp op fixture: %w", err)
	}
	return nil
}

// opOverhead is the cost of per-op instrumentation: the local owner
// fetch-add minus the same op with latency histograms and the flight
// recorder off.
func (f *fixtures) opOverhead() error {
	const bare = "obs.bare_fetch_add_self_ns.local"
	err := f.ops(shmem.Config{NoOpLatency: true, FlightCap: -1}, []opSpec{
		{bare, "shmem.Ctx.FetchAdd64", false, 20000, 9, fetchAdd, false},
	})
	if err != nil {
		return fmt.Errorf("bare op fixture: %w", err)
	}
	f.out["obs.op_overhead_ns.local"] = f.out["shmem.fetch_add_self_ns.local"] - f.out[bare]
	delete(f.out, bare)
	return nil
}

// stealSpec is one steal-latency point.
type stealSpec struct {
	metric    string
	sdc       bool
	transport shmem.TransportKind
	latency   shmem.LatencyModel
	vol, reps int
}

func (f *fixtures) steals() error {
	rtt := bench.DefaultLatency()
	specs := []stealSpec{
		{"core.steal_ns.v1.local", false, shmem.TransportLocal, shmem.LatencyModel{}, 1, 300},
		{"core.steal_ns.v1.shm", false, shmem.TransportShm, shmem.LatencyModel{}, 1, 300},
		{"core.steal_ns.v1.rtt2us.shm", false, shmem.TransportShm, rtt, 1, 300},
		{"core.steal_ns.v64.rtt2us.shm", false, shmem.TransportShm, rtt, 64, 200},
		{"sdc.steal_ns.v1.rtt2us.shm", true, shmem.TransportShm, rtt, 1, 300},
	}
	var sws, sdcComms shmem.CounterSnapshot
	var swsSteals, sdcSteals int
	for _, s := range specs {
		ns, comms, err := f.steal(s)
		if err != nil {
			return fmt.Errorf("%s: %w", s.metric, err)
		}
		f.out[s.metric] = ns
		if s.sdc {
			sdcComms = sdcComms.Add(comms)
			sdcSteals += s.reps
		} else {
			sws = sws.Add(comms)
			swsSteals += s.reps
		}
	}
	f.out["core.comms_per_steal"] = float64(sws.Total()) / float64(swsSteals)
	f.out["core.blocking_per_steal"] = float64(sws.Blocking()) / float64(swsSteals)
	f.out["sdc.comms_per_steal"] = float64(sdcComms.Total()) / float64(sdcSteals)
	f.out["core.sws_over_sdc_steal.v1.rtt2us.shm"] = f.out["core.steal_ns.v1.rtt2us.shm"] / f.out["sdc.steal_ns.v1.rtt2us.shm"]
	return nil
}

// steal times s.reps steals of s.vol tasks by PE 1 from PE 0 and checks
// each steal's one-sided operations against the paper's Figure 2: SWS 3
// (2 blocking), SDC 6.
func (f *fixtures) steal(s stealSpec) (float64, shmem.CounterSnapshot, error) {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20, Latency: s.latency, Transport: s.transport})
	if err != nil {
		return 0, shmem.CounterSnapshot{}, err
	}
	capacity := max(8*s.vol, 64)
	span := "core.Queue.Steal"
	if s.sdc {
		span = "sdc.Queue.Steal"
	}
	var durs []float64
	var comms shmem.CounterSnapshot
	payload := make([]byte, 16)
	err = w.Run(func(c *shmem.Ctx) error {
		var q wsq.Queue
		var err error
		if s.sdc {
			q, err = sdc.NewQueue(c, sdc.Options{Capacity: capacity})
		} else {
			q, err = core.NewQueue(c, core.Options{Capacity: capacity, Epochs: true, Damping: true})
		}
		if err != nil {
			return err
		}
		for rep := 0; rep < s.reps; rep++ {
			if c.Rank() == 0 {
				// Expose exactly 2*vol tasks so steal-half takes vol.
				for i := 0; i < 4*s.vol; i++ {
					if err := q.Push(task.Desc{Handle: 0, Payload: payload}); err != nil {
						return err
					}
				}
				if n, err := q.Release(); err != nil {
					return err
				} else if n != 2*s.vol {
					return fmt.Errorf("released %d, want %d", n, 2*s.vol)
				}
				if err := c.Barrier(); err != nil { // victim ready
					return err
				}
				if err := c.Barrier(); err != nil { // thief stole
					return err
				}
				if err := drain(q); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil { // round done
					return err
				}
				continue
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			before := c.Counters().Snapshot()
			sp := f.tr.start(span, f.parent)
			t0 := time.Now()
			tasks, out, err := q.Steal(0)
			el := time.Since(t0)
			d := c.Counters().Snapshot().Sub(before)
			sp.end(map[string]float64{"comms": float64(d.Total()), "blocking": float64(d.Blocking()), "tasks": float64(len(tasks))})
			if err != nil {
				return err
			}
			if out != wsq.Stolen || len(tasks) != s.vol {
				return fmt.Errorf("rep %d: outcome %v, %d tasks, want %d", rep, out, len(tasks), s.vol)
			}
			if s.sdc {
				f.check(d.Total() == 6, "%s rep %d: SDC steal made %d comms, want 6", s.metric, rep, d.Total())
			} else {
				f.check(d.Total() == 3 && d.Blocking() == 2, "%s rep %d: SWS steal made %d comms (%d blocking), want 3 (2)", s.metric, rep, d.Total(), d.Blocking())
			}
			comms = comms.Add(d)
			durs = append(durs, float64(el.Nanoseconds()))
			if err := c.Quiet(); err != nil { // completion landed
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	return median(durs), comms, err
}

// drain pops every task left in the victim's queue and reclaims the
// space stolen blocks held.
func drain(q wsq.Queue) error {
	for {
		_, ok, err := q.Pop()
		if err != nil {
			return err
		}
		if ok {
			continue
		}
		n, err := q.Acquire()
		if err != nil {
			return err
		}
		if n == 0 {
			return q.Progress()
		}
	}
}

// ownerOps times the owner's push+pop pair and release+acquire pair on a
// queue no thief touches.
func (f *fixtures) ownerOps() error {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20})
	if err != nil {
		return err
	}
	return w.Run(func(c *shmem.Ctx) error {
		q, err := core.NewQueue(c, core.Options{Capacity: 1024, Epochs: true, Damping: true})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			return c.Barrier()
		}
		d := task.Desc{Handle: 0, Payload: make([]byte, 16)}
		const n, batches = 20000, 9
		per := make([]float64, 0, batches)
		sp := f.tr.start("core.Queue.Push+Pop", f.parent)
		popped := 0
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := q.Push(d); err != nil {
					return err
				}
				_, ok, err := q.Pop()
				if err != nil {
					return err
				}
				if ok {
					popped++
				}
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/n)
		}
		sp.end(map[string]float64{"pairs": n * batches})
		f.out["core.push_pop_ns.local"] = median(per)
		f.check(popped == n*batches, "core: popped %d of %d pushed tasks", popped, n*batches)

		// Two local tasks: Release shares one, the owner pops the other,
		// then Acquire takes the shared one back.
		const reps = 2000
		pairs := make([]float64, 0, reps)
		sp = f.tr.start("core.Queue.Release+Acquire", f.parent)
		for rep := 0; rep < reps; rep++ {
			for i := 0; i < 2; i++ {
				if err := q.Push(d); err != nil {
					return err
				}
			}
			t0 := time.Now()
			rel, err := q.Release()
			el := time.Since(t0)
			if err != nil {
				return err
			}
			if _, _, err := q.Pop(); err != nil {
				return err
			}
			t0 = time.Now()
			acq, err := q.Acquire()
			el += time.Since(t0)
			if err != nil {
				return err
			}
			f.check(rel == 1 && acq == 1, "core: release moved %d, acquire %d, want 1 and 1", rel, acq)
			if err := drain(q); err != nil {
				return err
			}
			pairs = append(pairs, float64(el.Nanoseconds()))
		}
		sp.end(map[string]float64{"pairs": reps})
		f.out["core.release_acquire_ns.local"] = median(pairs)
		return c.Barrier()
	})
}

// emptyJob times pool.Fleet.Run of a job whose only task does nothing:
// the opening barrier, the termination wave and the rearm between jobs.
func (f *fixtures) emptyJob() error {
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 4 << 20})
	if err != nil {
		return err
	}
	var h task.Handle
	fl, err := pool.NewFleet(w, pool.FleetOptions{Register: func(rank int, reg *pool.Registry) error {
		hr, err := reg.Register("noop", func(*pool.TaskCtx, []byte) error { return nil })
		if rank == 0 {
			h = hr // every rank gets the same handle; one writer avoids a race
		}
		return err
	}})
	if err != nil {
		return err
	}
	job := pool.Job{Seed: func(p *pool.Pool, rank int) error {
		if rank != 0 {
			return nil
		}
		return p.Add(h, nil)
	}}
	const reps = 400
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		sp := f.tr.start("pool.Fleet.Run", f.parent)
		t0 := time.Now()
		run, err := fl.Run(job)
		el := time.Since(t0)
		sp.end(map[string]float64{"tasks": float64(run.Total().TasksExecuted)})
		if err != nil {
			return errors.Join(err, fl.Close())
		}
		f.check(run.Total().TasksExecuted == 1, "pool: empty job executed %d tasks", run.Total().TasksExecuted)
		durs = append(durs, float64(el.Nanoseconds())/1e3)
	}
	f.out["pool.empty_job_us"] = median(durs)
	return fl.Close()
}

// serial times uts.CountSerial on the T1 tree, one core.
func (f *fixtures) serial() error {
	const reps = 5
	per := make([]float64, 0, reps)
	var first uts.CountResult
	for i := 0; i < reps; i++ {
		sp := f.tr.start("uts.CountSerial", f.parent)
		t0 := time.Now()
		res, err := uts.CountSerial(uts.T1, 0)
		el := time.Since(t0)
		sp.end(map[string]float64{"nodes": float64(res.Nodes)})
		if err != nil {
			return err
		}
		if i == 0 {
			first = res
		}
		f.check(res == first, "uts: serial count changed between calls")
		per = append(per, float64(el.Nanoseconds())/float64(res.Nodes))
	}
	f.out["uts.serial_ns_per_node"] = median(per)
	return nil
}
