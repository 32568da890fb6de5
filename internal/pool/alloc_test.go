package pool

import (
	"testing"

	"sws/internal/core"
	"sws/internal/race"
	"sws/internal/shmem"
	"sws/internal/task"
)

// A task's trip through the owner path — a guarded Push then Pop of the
// protocol queue — must not allocate: the guard, the slot codec and the
// own-heap ops all run on every task.
func TestAllocFreeGuardedPushPop(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	runWorld(t, 1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		raw, err := core.NewQueue(c, core.Options{Epochs: true, Damping: true})
		if err != nil {
			return err
		}
		q := &guardedQueue{Queue: raw}
		d := task.Desc{Handle: 1}
		var failed error
		n := testing.AllocsPerRun(1000, func() {
			if err := q.Push(d); err != nil {
				failed = err
				return
			}
			if _, ok, err := q.Pop(); err != nil || !ok {
				failed = err
				if err == nil {
					t.Error("Pop found nothing after Push")
				}
			}
		})
		if failed != nil {
			return failed
		}
		if n != 0 {
			t.Errorf("guarded Push+Pop allocates %v times per round trip", n)
		}
		return nil
	})
}
