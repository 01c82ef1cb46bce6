package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Memo is a run-scoped, concurrency-safe cache of leaf cell results
// with singleflight semantics: the first caller of a key computes the
// cell, every concurrent or later caller of the same key gets that
// value. The runner creates one per run so experiments that simulate
// the same cell (fig16, table11 and policies all run the Table XI
// ramp) compute it once. The zero value is unusable; use NewMemo. A
// nil *Memo caches nothing: Do calls fn directly.
//
// The contract:
//
//   - Keys. A key is a comparable value holding every input that
//     changes the cell's result (policy, seed, load schedule, …) and
//     nothing else — in particular not the caller's telemetry scope.
//     Keys of different types never collide.
//   - Telemetry. The caller that computes a cell owns whatever its fn
//     publishes; a caller that reuses the cell gets shared = true and
//     counts that in its own scope.
//   - Failures are not cached. A cell whose fn returns an error or
//     panics is removed before its waiters wake, so a retry recomputes
//     it. Waiters of a genuinely failed cell get its error; waiters of
//     a cell whose owner was cancelled (context.Canceled or
//     DeadlineExceeded) recompute it when their own context is still
//     live, and otherwise return their own context's error.
//   - Panics. A panicking fn still completes the cell (waiters get an
//     error naming the panic), then the panic resumes into the
//     caller's own isolation (sweep.Map's cell recovery or the
//     runner's).
//   - Leases. A waiter lends the lease attached to its context (see
//     Attach) while it blocks, exactly as Map does, and reacquires it
//     before returning or recomputing.
//   - Leaf cells only. fn must not call Do (on any memo): a cell that
//     waits on another cell could form a wait cycle, and a blocked
//     owner would hold its budget token while doing nothing.
type Memo struct {
	mu    sync.Mutex
	cells map[any]*memoCell
}

// memoCell is one key's computation. done is closed once val/err are
// final; a failed cell is removed from the map before that.
type memoCell struct {
	done chan struct{}
	val  any
	err  error
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{cells: map[any]*memoCell{}}
}

// Do returns the value of the cell named key, computing it with fn at
// most once per memo among concurrent and successive callers. shared
// reports that the value came from another caller's computation. A nil
// memo calls fn(ctx) directly. See Memo for the failure, cancellation
// and lease rules; fn must not itself call Do.
func Do[T any](ctx context.Context, m *Memo, key any, fn func(ctx context.Context) (T, error)) (v T, shared bool, err error) {
	if m == nil {
		v, err = fn(ctx)
		return v, false, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return v, false, err
		}
		m.mu.Lock()
		c, found := m.cells[key]
		if !found {
			c = &memoCell{done: make(chan struct{})}
			m.cells[key] = c
			m.mu.Unlock()
			v, err = compute(ctx, m, key, c, fn)
			return v, false, err
		}
		m.mu.Unlock()

		if err := wait(ctx, c.done); err != nil {
			return v, false, err
		}
		if c.err == nil {
			return c.val.(T), true, nil
		}
		if !errors.Is(c.err, context.Canceled) && !errors.Is(c.err, context.DeadlineExceeded) {
			return v, false, c.err
		}
		// The owner was cancelled, not the cell: its removal already
		// happened, so the next pass computes the cell here or waits
		// on whoever got there first.
	}
}

// compute runs fn as the owner of cell c and publishes the outcome.
// The deferred publish runs on every exit, panics included, so waiters
// never hang.
func compute[T any](ctx context.Context, m *Memo, key any, c *memoCell, fn func(ctx context.Context) (T, error)) (v T, err error) {
	defer func() {
		p := recover()
		if p != nil {
			err = fmt.Errorf("sweep: memo cell %v panicked: %v", key, p)
		}
		c.val, c.err = v, err
		if err != nil {
			m.mu.Lock()
			delete(m.cells, key)
			m.mu.Unlock()
		}
		close(c.done)
		if p != nil {
			panic(p)
		}
	}()
	return fn(ctx)
}

// wait blocks until done is closed or ctx ends, lending the lease
// attached to ctx for the duration of the block. It reacquires the
// lease before returning, and reports ctx's error if ctx ended first.
func wait(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return nil // completed cell: no block, no budget traffic
	default:
	}
	lease := leaseFrom(ctx)
	lease.Release()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if rerr := lease.Reacquire(ctx); err == nil {
		err = rerr
	}
	return err
}
