package server

import (
	"context"
	"sync"
	"time"

	"repro"
)

// This file is the cross-connection batch coalescer: sessions hand
// their single-SELECT request lines to one batcher, which collects
// statements arriving from different connections within a small window
// (CoalesceWindow, default 200µs) or up to a batch cap (CoalesceMax,
// default 32), whichever fills first, and flushes them through one
// DB.ExecPreparedBatch call — one fan-out fed by the whole server. Each
// statement keeps its own context, MVCC snapshot, outcome and error; the
// flush takes ONE statement-gate slot for the whole batch, which is
// where coalescing pays at high connection counts: tiny point probes
// that could never use the worker pool alone share a slot and fill it
// together.

// batchReq is one session's statement waiting in the batcher.
type batchReq struct {
	ctx  context.Context
	prep *repro.PreparedSelect
	out  chan repro.ScriptResult // buffered 1; flush always delivers
}

// batcher coalesces single SELECTs across sessions: the one collection
// point, flushing on its window or its cap.
type batcher struct {
	s       *Server
	window  time.Duration
	maxSize int

	mu      sync.Mutex
	pending []batchReq
	timer   *time.Timer // armed while pending is non-empty
}

// newBatcher applies the defaults documented on Config to zero values.
func newBatcher(s *Server, window time.Duration, maxSize int) *batcher {
	if window <= 0 {
		window = 200 * time.Microsecond
	}
	if maxSize <= 0 {
		maxSize = 32
	}
	return &batcher{s: s, window: window, maxSize: maxSize}
}

// submit enqueues one prepared statement and returns the channel its
// result will arrive on. Delivery is guaranteed: every enqueued
// request is part of exactly one flush, and ExecPreparedBatch always
// returns a result per statement (a dead ctx fails that statement
// alone, fast).
func (b *batcher) submit(ctx context.Context, prep *repro.PreparedSelect) <-chan repro.ScriptResult {
	req := batchReq{ctx: ctx, prep: prep, out: make(chan repro.ScriptResult, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, req)
	if len(b.pending) >= b.maxSize {
		batch := b.take()
		b.mu.Unlock()
		b.flush(batch) // cap reached: flush on the submitter's goroutine
		return req.out
	}
	if len(b.pending) == 1 {
		b.timer = time.AfterFunc(b.window, b.flushTimed)
	}
	b.mu.Unlock()
	return req.out
}

// take detaches the pending batch and disarms the window timer. Caller
// holds b.mu.
func (b *batcher) take() []batchReq {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// flushTimed is the window-expiry path, on the timer's goroutine. A
// cap-triggered flush may have raced it and emptied the batcher.
func (b *batcher) flushTimed() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
}

// flush executes one batch through ExecPreparedBatch under a single
// statement-gate slot and delivers each statement's result to its
// session.
func (b *batcher) flush(batch []batchReq) {
	s := b.s
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
