package shmem

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
	"time"

	"sws/internal/obs"
	"sws/internal/race"
)

// bucketIndex is the obs.Hist bucket a quantile estimate falls in.
func bucketIndex(d time.Duration) int { return bits.Len64(uint64(max(d, 0))) }

// Sampling fidelity: the same own-heap op stream, recorded in full in one
// Counters and through the 1-in-localSampleEvery sampler in another, must
// yield the same p50/p90/p99 to within one histogram bucket, per op and
// overall, and the same total count to within one block. The stream
// cycles through eight ops — a period that divides the block, which is
// the aliasing case: a sampler that always timed the same offset within
// its block would see only one op kind.
func TestOwnHeapSamplingFidelity(t *testing.T) {
	stream := []Op{OpPut, OpGet, OpLoad, OpStore, OpFetchAdd, OpSwap, OpCompareSwap, OpLoad}
	median := map[Op]float64{
		OpPut: 40, OpGet: 35, OpLoad: 12, OpStore: 15,
		OpFetchAdd: 20, OpSwap: 22, OpCompareSwap: 30,
	}
	rng := rand.New(rand.NewPCG(1, 2))
	var full, sampled Counters
	n := localSampleEvery*len(stream)*3000 + 37 // not a whole number of blocks
	for i := 0; i < n; i++ {
		op := stream[i%len(stream)]
		// Log-normal around the op's median, with a rare slow tail (a
		// preempted op) so p99 is not just the body.
		ns := median[op] * math.Exp(0.5*rng.NormFloat64())
		if rng.IntN(200) == 0 {
			ns *= 50
		}
		d := time.Duration(ns)
		full.sampleLocal()
		full.lat[op][0].Record(d)
		if sampled.sampleLocal() {
			sampled.recordLocalSample(op, d)
		}
	}

	var fullAll, sampledAll obs.HistSnap
	for op := range median {
		f, s := full.Latency(op, false), sampled.Latency(op, false)
		fullAll.Add(f)
		sampledAll.Add(s)
		compareQuantiles(t, op.String(), f, s)
	}
	compareQuantiles(t, "all ops", fullAll, sampledAll)
	fc, sc := fullAll.Count(), sampledAll.Count()
	if fc != uint64(n) {
		t.Fatalf("full recording counted %d of %d ops", fc, n)
	}
	if diff := int64(fc) - int64(sc); diff < -localSampleEvery || diff > localSampleEvery {
		t.Errorf("sampled histograms count %d ops, full %d: off by more than one block (%d)", sc, fc, localSampleEvery)
	}
	if got := sampled.Snapshot().Local; got != uint64(n) {
		t.Errorf("sampled Counters counted %d own-heap ops, want every one of %d", got, n)
	}
}

func compareQuantiles(t *testing.T, what string, full, sampled obs.HistSnap) {
	t.Helper()
	if sampled.Empty() {
		t.Errorf("%s: no samples recorded", what)
		return
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		f, s := full.Quantile(q), sampled.Quantile(q)
		if d := bucketIndex(f) - bucketIndex(s); d < -1 || d > 1 {
			t.Errorf("%s p%.0f: sampled %v, full %v — %d buckets apart", what, 100*q, s, f, d)
		}
	}
}

// Through a real Ctx: own-heap ops are all counted, about one in
// localSampleEvery is timed (with weight localSampleEvery), and remote
// ops are timed on every call.
func TestOwnHeapOpLatencySampled(t *testing.T) {
	run(t, Config{NumPEs: 2}, func(c *Ctx) error {
		addr, err := c.Alloc(8)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			before := c.Counters().Snapshot()
			const self = 100*localSampleEvery + 5
			for i := 0; i < self; i++ {
				if _, err := c.FetchAdd64(0, addr, 1); err != nil {
					return err
				}
			}
			if got := c.Counters().Snapshot().Sub(before).Local; got != self {
				t.Errorf("own-heap count %d, want %d", got, self)
			}
			if got := c.Counters().Latency(OpFetchAdd, false).Count(); got < self-localSampleEvery || got > self+localSampleEvery {
				t.Errorf("own-heap fetch-add histogram holds %d, want %d within one block", got, self)
			}
			const remote = 10
			for i := 0; i < remote; i++ {
				if _, err := c.FetchAdd64(1, addr, 1); err != nil {
					return err
				}
			}
			if got := c.Counters().Latency(OpFetchAdd, true).Count(); got != remote {
				t.Errorf("remote fetch-add histogram holds %d, want every one of %d", got, remote)
			}
		}
		return c.Barrier()
	})
}

// Own-heap ops are the scheduler's per-task path: none may allocate,
// whether or not the op is its block's timed sample.
func TestAllocFreeOwnHeapOps(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	run(t, Config{NumPEs: 1}, func(c *Ctx) error {
		addr, err := c.Alloc(64)
		if err != nil {
			return err
		}
		buf := make([]byte, 32)
		var failed error
		check := func(err error) {
			if err != nil && failed == nil {
				failed = err
			}
		}
		ops := []struct {
			name string
			f    func()
		}{
			{"Put", func() { check(c.Put(0, addr, buf)) }},
			{"Get", func() { check(c.Get(0, addr, buf)) }},
			{"FetchAdd64", func() { _, err := c.FetchAdd64(0, addr, 1); check(err) }},
			{"Load64", func() { _, err := c.Load64(0, addr); check(err) }},
			{"Store64", func() { check(c.Store64(0, addr, 7)) }},
			{"Swap64", func() { _, err := c.Swap64(0, addr, 9); check(err) }},
			{"CompareSwap64", func() { _, err := c.CompareSwap64(0, addr, 9, 9); check(err) }},
		}
		for _, op := range ops {
			if n := testing.AllocsPerRun(10*localSampleEvery, op.f); n != 0 {
				t.Errorf("own-heap %s allocates %v times per op", op.name, n)
			}
		}
		if c.Counters().Latency(OpFetchAdd, false).Empty() {
			t.Error("no own-heap fetch-add was timed: the sampled path went unexercised")
		}
		return failed
	})
}
