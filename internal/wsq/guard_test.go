package wsq

import (
	"strings"
	"testing"

	"sws/internal/race"
)

func TestOwnerGuardDetectsOverlap(t *testing.T) {
	var g OwnerGuard
	g.Enter(OwnerPush)
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "Pop raced with Push") {
			t.Fatalf("overlapping Enter panicked with %v, want both op names", r)
		}
	}()
	g.Enter(OwnerPop)
	t.Fatal("overlapping Enter did not panic")
}

func TestOwnerGuardSequentialOps(t *testing.T) {
	var g OwnerGuard
	for op := OwnerPush; op <= OwnerProgress; op++ {
		g.Enter(op)
		g.Exit()
	}
	if s := OwnerOp(99).String(); s != "OwnerOp(99)" {
		t.Fatalf("unknown op renders as %q", s)
	}
}

// The guard brackets every owner op on the scheduler's per-task path, so
// it must not allocate.
func TestAllocFreeOwnerGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	var g OwnerGuard
	if n := testing.AllocsPerRun(1000, func() {
		g.Enter(OwnerPush)
		g.Exit()
		g.Enter(OwnerPop)
		g.Exit()
	}); n != 0 {
		t.Fatalf("Enter/Exit allocates %v times per round", n)
	}
}
