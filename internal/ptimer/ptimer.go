// Package ptimer provides the runtime's hot-path clock: monotonic ticks
// and calibrated interval timers for the steal/search/exec accounting.
//
// The paper's measurements use TSC-based timers calibrated every run. Go
// exposes no raw TSC, and time.Now reads two clocks (wall and
// monotonic). A Tick is the monotonic half alone — nanoseconds since a
// process-wide base — so taking one costs a single monotonic read.
// Intervals between ticks are calibrated: the fixed cost of a Now/Since
// pair is measured at startup and subtracted from every recorded
// interval, so for the microsecond-scale intervals the benchmarks record
// (a steal is a handful of round-trips) accumulated timer overhead does
// not masquerade as protocol time.
package ptimer

import (
	"slices"
	"time"
)

// Tick is a monotonic timestamp: nanoseconds since the process-wide
// base. Ticks from one process are comparable; journals that align
// across processes keep a wall-clock reading beside their epoch tick.
type Tick int64

// base sits one second before package initialization, so every tick a
// caller can read is positive and the zero Tick never names a real
// instant: it serves as "no reading" (an untimed op, a clock the callee
// must read itself).
var base = time.Now().Add(-time.Second)

// Now returns the current tick: one monotonic clock read (time.Since on
// a monotonic base never consults the wall clock).
func Now() Tick { return Tick(time.Since(base)) }

// Since returns the raw interval from t to now.
func Since(t Tick) time.Duration { return time.Duration(Now() - t) }

// Sub returns the interval t - u.
func (t Tick) Sub(u Tick) time.Duration { return time.Duration(t - u) }

// TickOf maps a time.Time carrying a monotonic reading onto the tick
// scale.
func TickOf(t time.Time) Tick { return Tick(t.Sub(base)) }

// Calibration captures the measured cost of one Now/Since pair.
type Calibration struct {
	// Overhead is subtracted from every interval measured via Since.
	Overhead time.Duration
}

// calibrateSamples is the number of timer pairs measured by Calibrate.
const calibrateSamples = 1024

// Calibrate measures the clock overhead inside a timed interval on this
// machine. Call once per run (the paper calibrates per run, too).
//
// An empty interval, Since(Now()), reports exactly the overhead every
// interval carries: the tail of the opening read after it sampled the
// clock plus the head of the closing read before it did — about one read,
// not the two a loop of pairs costs end to end. The median over many
// pairs ignores the ones a preemption stretched.
func Calibrate() Calibration {
	samples := make([]time.Duration, calibrateSamples)
	for i := 0; i < 64; i++ { // warm the path
		_ = Since(Now())
	}
	for i := range samples {
		samples[i] = Since(Now())
	}
	slices.Sort(samples)
	return Calibration{Overhead: max(samples[len(samples)/2], 0)}
}

// Since returns the calibrated elapsed time since start: the raw interval
// minus the measured clock overhead, clamped at zero.
func (c Calibration) Since(start Tick) time.Duration {
	d := Since(start) - c.Overhead
	if d < 0 {
		return 0
	}
	return d
}
