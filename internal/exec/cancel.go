package exec

import (
	"context"
	"sync/atomic"
)

// This file is the executor's cancellation support. Every access method
// checks its query's context at chunk granularity: serial scans at page
// boundaries (lazyScan.emit), RID collection every cancelCheckRIDs
// entries, and the parallel harnesses (runTasks, collectEmit) once per
// task plus through a watcher goroutine that mirrors the context onto
// the shared early-stop flag workers already poll. A nil context — the
// default for native callers that never cancel — costs nothing.

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

// watchCancel mirrors ctx's cancellation onto the executor's shared
// early-stop flag, so every worker polling the flag stops within one
// chunk of the cancellation no matter where it is. It returns a stop
// function the caller must invoke once the run ends (it releases the
// watcher goroutine). A nil or never-cancelled context spawns nothing.
func watchCancel(ctx context.Context, cancel *atomic.Bool) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			cancel.Store(true)
		case <-done:
		}
	}()
	return func() { close(done) }
}
