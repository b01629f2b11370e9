package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// This file is the cross-connection batch coalescer: sessions hand
// their single-SELECT request lines to a striped batcher, which
// collects statements arriving from different connections within a
// small window (CoalesceWindow, default 200µs) or up to a batch cap
// (CoalesceMax, default 32), whichever fills first, and flushes them
// through one DB.ExecPreparedBatch call — the SelectMany fan-out the
// engine already had, now fed by the whole server instead of one
// ';'-separated line. Each statement keeps its own context, MVCC
// snapshot, outcome and error; the flush takes ONE statement-gate slot
// for the whole batch, which is where coalescing pays at high
// connection counts: tiny point probes that could never use the worker
// pool alone share a slot and fill it together.

// batchReq is one session's statement waiting in a stripe.
type batchReq struct {
	ctx  context.Context
	prep *repro.PreparedSelect
	out  chan repro.ScriptResult // buffered 1; flush always delivers
}

// batcher coalesces single SELECTs across sessions. Stripes cut
// submit-side lock contention: a session picks one round-robin, so
// batches form per stripe.
type batcher struct {
	s       *Server
	window  time.Duration
	maxSize int
	next    atomic.Int64
	stripes []*stripe
}

// stripe is one independently flushing collection point.
type stripe struct {
	b       *batcher
	mu      sync.Mutex
	pending []batchReq
	timer   *time.Timer // armed while pending is non-empty
}

// newBatcher wires the stripes. Zero config values take the defaults
// documented on Config.
func newBatcher(s *Server, window time.Duration, maxSize, stripes int) *batcher {
	if window <= 0 {
		window = 200 * time.Microsecond
	}
	if maxSize <= 0 {
		maxSize = 32
	}
	if stripes <= 0 {
		stripes = 1
	}
	b := &batcher{s: s, window: window, maxSize: maxSize}
	for i := 0; i < stripes; i++ {
		b.stripes = append(b.stripes, &stripe{b: b})
	}
	return b
}

// submit enqueues one prepared statement and returns the channel its
// result will arrive on. Delivery is guaranteed: every enqueued
// request is part of exactly one flush, and ExecPreparedBatch always
// returns a result per statement (a dead ctx fails that statement
// alone, fast).
func (b *batcher) submit(ctx context.Context, prep *repro.PreparedSelect) <-chan repro.ScriptResult {
	req := batchReq{ctx: ctx, prep: prep, out: make(chan repro.ScriptResult, 1)}
	st := b.stripes[int(b.next.Add(1))%len(b.stripes)]
	st.mu.Lock()
	st.pending = append(st.pending, req)
	if len(st.pending) >= b.maxSize {
		batch := st.take()
		st.mu.Unlock()
		st.flush(batch) // cap reached: flush on the submitter's goroutine
		return req.out
	}
	if len(st.pending) == 1 {
		st.timer = time.AfterFunc(b.window, st.flushTimed)
	}
	st.mu.Unlock()
	return req.out
}

// take detaches the pending batch and disarms the window timer. Caller
// holds st.mu.
func (st *stripe) take() []batchReq {
	batch := st.pending
	st.pending = nil
	if st.timer != nil {
		st.timer.Stop()
		st.timer = nil
	}
	return batch
}

// flushTimed is the window-expiry path, on the timer's goroutine. A
// cap-triggered flush may have raced it and emptied the stripe.
func (st *stripe) flushTimed() {
	st.mu.Lock()
	batch := st.take()
	st.mu.Unlock()
	if len(batch) > 0 {
		st.flush(batch)
	}
}

// flush executes one batch through ExecPreparedBatch under a single
// statement-gate slot and delivers each statement's result to its
// session.
func (st *stripe) flush(batch []batchReq) {
	s := st.b.s
	if s.gate != nil {
		s.gate <- struct{}{}
		defer func() { <-s.gate }()
	}
	ctxs := make([]context.Context, len(batch))
	preps := make([]*repro.PreparedSelect, len(batch))
	for i, r := range batch {
		ctxs[i] = r.ctx
		preps[i] = r.prep
	}
	results := s.db.ExecPreparedBatch(ctxs, preps)
	s.m.batches.Inc()
	s.m.batchStmts.Add(int64(len(batch)))
	for i, r := range batch {
		r.out <- results[i]
	}
}
