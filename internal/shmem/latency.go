package shmem

import (
	"runtime"
	"time"

	"sws/internal/ptimer"
)

// LatencyModel charges synthetic communication costs to one-sided
// operations so that protocol communication counts translate into measured
// time, as they do on a real RDMA fabric.
//
// The model is intentionally simple: a blocking one-sided operation costs
// one network round-trip plus a bandwidth term; a non-blocking injection
// costs only the (much smaller) injection overhead — its completion is
// asynchronous, exactly like a deferred-copy acknowledgement in the paper.
// Operations a PE performs on its own heap cost nothing: they are plain
// memory operations, just as in OpenSHMEM.
//
// The zero value charges nothing and is what correctness tests use.
type LatencyModel struct {
	// BlockingRTT is charged to every blocking remote operation
	// (Put, Get, FetchAdd64, Swap64, CompareSwap64, Load64, Store64).
	BlockingRTT time.Duration
	// InjectOverhead is charged to every non-blocking remote injection
	// (Store64NBI, Add64NBI, PutNBI).
	InjectOverhead time.Duration
	// PerKB is an additional bandwidth charge per KiB of payload on
	// bulk transfers (Put/Get), pro-rated by byte.
	PerKB time.Duration
	// Occupy controls what a waiting PE does with its processor. False
	// (default): the wait yields, so on hosts with fewer cores than PEs
	// the other PEs compute in the meantime — communication is overlap-
	// friendly, as on a real cluster where a blocked core's time is only
	// that core's loss. True: the wait spins without yielding, consuming
	// simulated core time — on an oversubscribed host this surfaces
	// protocol communication *counts* in wall-clock runtime (every
	// round-trip anywhere slows the whole world), which is the right
	// model for compute-bound workloads on a single-core host where
	// overlapped waits would otherwise be invisible. See DESIGN.md §4.7.
	Occupy bool
}

// Zero reports whether the model charges nothing.
func (m LatencyModel) Zero() bool {
	return m.BlockingRTT == 0 && m.InjectOverhead == 0 && m.PerKB == 0
}

// blockingCost returns the charge for a blocking transfer of n payload bytes.
func (m LatencyModel) blockingCost(n int) time.Duration {
	return m.BlockingRTT + m.bandwidth(n)
}

// charge waits out d under the model's occupancy mode. It returns the
// tick its wait loop last read — a timestamp the caller gets for free,
// used by the flight recorder to stamp the op's apply without a second
// clock read. A zero tick means no wait happened (or the wait slept), so
// the caller must read the clock itself if it needs one.
func (m LatencyModel) charge(d time.Duration) ptimer.Tick {
	if m.Occupy {
		return occupy(d)
	}
	return charge(d)
}

// occupy burns the processor for d without yielding (modulo Go's own
// asynchronous preemption).
func occupy(d time.Duration) ptimer.Tick {
	if d <= 0 {
		return 0
	}
	start := ptimer.Now()
	for {
		now := ptimer.Now()
		if now.Sub(start) >= d {
			return now
		}
	}
}

func (m LatencyModel) bandwidth(n int) time.Duration {
	if m.PerKB == 0 || n == 0 {
		return 0
	}
	return time.Duration(int64(m.PerKB) * int64(n) / 1024)
}

// charge waits out d of network time. Durations at benchmark scale
// (hundreds of ns to a few µs) are far below time.Sleep's scheduler
// granularity, so the wait spins against the monotonic clock — but it
// yields on every iteration: a PE waiting on a network round-trip is
// blocked, not computing, and on hosts with fewer cores than PEs the
// yield is what lets the other PEs use the core in the meantime (this is
// how an oversubscribed world emulates dedicated cores).
func charge(d time.Duration) ptimer.Tick {
	if d <= 0 {
		return 0
	}
	if d >= 200*time.Microsecond {
		// Long enough for the scheduler to be accurate and courteous.
		time.Sleep(d)
		return 0
	}
	start := ptimer.Now()
	for {
		now := ptimer.Now()
		if now.Sub(start) >= d {
			return now
		}
		runtime.Gosched()
	}
}

// yield cedes the processor to another goroutine.
func yield() { runtime.Gosched() }
