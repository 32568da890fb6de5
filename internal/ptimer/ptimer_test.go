package ptimer

import (
	"testing"
	"time"
)

func TestCalibrateReasonable(t *testing.T) {
	c := Calibrate()
	if c.Overhead < 0 {
		t.Fatalf("negative overhead %v", c.Overhead)
	}
	if c.Overhead > time.Millisecond {
		t.Fatalf("implausible clock overhead %v", c.Overhead)
	}
}

func TestSinceSubtractsOverhead(t *testing.T) {
	c := Calibration{Overhead: time.Hour}
	if d := c.Since(Now()); d != 0 {
		t.Fatalf("Since with huge overhead = %v, want clamp to 0", d)
	}
	c = Calibration{}
	start := Now()
	time.Sleep(2 * time.Millisecond)
	if d := c.Since(start); d < 2*time.Millisecond {
		t.Fatalf("Since = %v, want >= 2ms", d)
	}
}

// A microsecond of work must survive calibration: the subtracted
// overhead is one clock read's worth, so a short interval is trimmed,
// not zeroed. The busy-wait is timed against the raw clock so it lasts
// at least 1µs whatever the overhead.
func TestCalibratedMicrosecondNotZero(t *testing.T) {
	c := Calibrate()
	for i := 0; i < 100; i++ {
		start := Now()
		for Since(start) < time.Microsecond {
		}
		d := c.Since(start)
		if d == 0 {
			t.Fatalf("a %v busy-wait reported as 0 (overhead %v)", time.Microsecond, c.Overhead)
		}
		if d < time.Microsecond-c.Overhead {
			t.Fatalf("a %v busy-wait reported as %v, below the work minus overhead %v", time.Microsecond, d, c.Overhead)
		}
	}
}

func TestTicksPositiveAndMonotonic(t *testing.T) {
	a := Now()
	if a <= 0 {
		t.Fatalf("tick %d, want > 0 (the zero Tick means no reading)", a)
	}
	time.Sleep(time.Millisecond)
	b := Now()
	if d := b.Sub(a); d < time.Millisecond {
		t.Fatalf("ticks %v apart across a 1ms sleep", d)
	}
}

func TestTickOfMatchesNow(t *testing.T) {
	before := Now()
	tk := TickOf(time.Now())
	after := Now()
	if tk < before || tk > after {
		t.Fatalf("TickOf(time.Now()) = %d, outside the ticks %d..%d read around it", tk, before, after)
	}
}
