package exec

import (
	"context"
	"sync/atomic"
)

// This file is the executor's cancellation support. Two things end a
// scan early: the query's context (a client gone, a statement deadline)
// and, inside a fan-out, the shared early-stop flag (the caller's RowFunc
// returned false, or a sibling chunk failed). Every loop polls both
// itself, at chunk granularity: the sweep kernel at each page boundary
// (sweeper.enterPage — the one poll under every heap-visiting path,
// inline or fanned out), RID collection every cancelCheckRIDs entries,
// and the fan-out harnesses (runTasks, collectEmit) before handing out
// each task. No goroutine watches the context on a scan's behalf. A nil
// context — the default for native callers that never cancel — costs
// nothing.

// cancelCheckRIDs is how many collected RIDs may pass between two
// context checks in an index RID-collection loop. RID collection is
// B+Tree iteration, far cheaper per entry than a heap page visit, so the
// stride is coarser than the per-page checks of the sweep phase. (A CM
// probe collects no RIDs: its page list comes from the in-memory page
// directory, and only its sweep polls.)
const cancelCheckRIDs = 1024

// ctxErr is the executor's non-blocking context poll: nil context (or
// one that cannot be cancelled) reports nil, a cancelled or expired one
// reports its error.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// stopRequested is the poll of loops that read no heap page (RID
// collection, task hand-out): it reports that the fan-out's shared flag
// is set or the context is done, without saying which — the harness
// reports a cancelled context once its workers have returned.
func stopRequested(ctx context.Context, stop *atomic.Bool) bool {
	return stop.Load() || ctxErr(ctx) != nil
}
