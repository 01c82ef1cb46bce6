package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// doResult is what one Do call returned (or its panic).
type doResult struct {
	v      int
	shared bool
	err    error
	panic  any
	used   int // waiter only: its budget's Used when Do returned
}

// owner starts Do(key) on m in its own goroutine with a fn that blocks
// until finish delivers its outcome (or ctx ends). It returns once fn
// is running, with the channel the owner's result arrives on.
func owner(t *testing.T, ctx context.Context, m *Memo, key string, finish <-chan func() (int, error)) <-chan doResult {
	t.Helper()
	running := make(chan struct{})
	out := make(chan doResult, 1)
	go func() {
		var r doResult
		defer func() {
			r.panic = recover()
			out <- r
		}()
		r.v, r.shared, r.err = Do(ctx, m, key, func(ctx context.Context) (int, error) {
			close(running)
			select {
			case f := <-finish:
				return f()
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		})
	}()
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("owner's fn never ran")
	}
	return out
}

// waiter calls Do(key) on m holding a lease on its own one-token
// budget, so its blocking is observable: Budget.Used drops to 0 while
// it waits. It returns once the waiter is blocked.
func waiter(t *testing.T, ctx context.Context, m *Memo, key string, fn func(ctx context.Context) (int, error)) <-chan doResult {
	t.Helper()
	b := NewBudget(1)
	lease, err := b.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan doResult, 1)
	go func() {
		defer lease.Release()
		var r doResult
		r.v, r.shared, r.err = Do(Attach(ctx, lease), m, key, fn)
		r.used = b.Used()
		out <- r
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.Used() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never blocked with its lease lent")
		}
		time.Sleep(time.Millisecond)
	}
	return out
}

func recv(t *testing.T, ch <-chan doResult) doResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("Do never returned")
		return doResult{}
	}
}

func value(v int) func() (int, error) { return func() (int, error) { return v, nil } }

// TestMemoSingleflight: N concurrent callers of one key run fn once
// and all get its value; a later caller reuses it without running fn.
// Every caller holds a lease on one budget, so the test can wait until
// all N-1 waiters have lent theirs back before letting fn finish.
func TestMemoSingleflight(t *testing.T) {
	const n = 16
	m := NewMemo()
	b := NewBudget(n)
	var calls atomic.Int64
	gate := make(chan struct{})
	var done sync.WaitGroup
	vals := make([]int, n)
	shared := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		lease, err := b.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		done.Add(1)
		go func() {
			defer done.Done()
			defer lease.Release()
			vals[i], shared[i], errs[i] = Do(Attach(context.Background(), lease), m, "cell", func(ctx context.Context) (int, error) {
				calls.Add(1)
				<-gate
				return 7, nil
			})
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Used() != 1 { // the owner's token
		if time.Now().After(deadline) {
			t.Fatalf("Used = %d: not every waiter blocked with its lease lent", b.Used())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	done.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
	owners := 0
	for i := range vals {
		if errs[i] != nil || vals[i] != 7 {
			t.Fatalf("caller %d got (%d, %v), want 7", i, vals[i], errs[i])
		}
		if !shared[i] {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d callers report computing the cell, want 1", owners)
	}
	v, sh, err := Do(context.Background(), m, "cell", func(ctx context.Context) (int, error) {
		calls.Add(1)
		return 0, nil
	})
	if v != 7 || !sh || err != nil || calls.Load() != 1 {
		t.Fatalf("later caller got (%d, %v, %v) after %d calls", v, sh, err, calls.Load())
	}
}

// TestMemoKeysAreDistinct: distinct keys, including equal values of
// different types, are distinct cells.
func TestMemoKeysAreDistinct(t *testing.T) {
	type other string
	m := NewMemo()
	a, _, _ := Do(context.Background(), m, "k", func(ctx context.Context) (int, error) { return 1, nil })
	b, sb, _ := Do(context.Background(), m, other("k"), func(ctx context.Context) (int, error) { return 2, nil })
	c, sc, _ := Do(context.Background(), m, "j", func(ctx context.Context) (int, error) { return 3, nil })
	if a != 1 || b != 2 || c != 3 || sb || sc {
		t.Fatalf("got %d, %d (shared %v), %d (shared %v)", a, b, sb, c, sc)
	}
}

// TestMemoErrorNotCached: a failed cell is removed, so the next caller
// recomputes it; a waiter on the failing computation gets its error.
func TestMemoErrorNotCached(t *testing.T) {
	m := NewMemo()
	boom := errors.New("boom")
	finish := make(chan func() (int, error), 1)
	own := owner(t, context.Background(), m, "cell", finish)
	wait := waiter(t, context.Background(), m, "cell", func(ctx context.Context) (int, error) {
		t.Error("waiter of a genuinely failed cell recomputed it")
		return 0, nil
	})
	finish <- func() (int, error) { return 0, boom }
	if r := recv(t, own); !errors.Is(r.err, boom) {
		t.Fatalf("owner err = %v", r.err)
	}
	if r := recv(t, wait); !errors.Is(r.err, boom) || r.shared {
		t.Fatalf("waiter got %+v, want the owner's error", r)
	}
	v, shared, err := Do(context.Background(), m, "cell", func(ctx context.Context) (int, error) { return 9, nil })
	if v != 9 || shared || err != nil {
		t.Fatalf("retry got (%d, %v, %v), want a fresh computation of 9", v, shared, err)
	}
}

// TestMemoOwnerCancelledWaiterRecomputes: the owner's cancellation is
// not the cell's failure; a live waiter computes the cell itself.
func TestMemoOwnerCancelledWaiterRecomputes(t *testing.T) {
	m := NewMemo()
	octx, cancel := context.WithCancel(context.Background())
	own := owner(t, octx, m, "cell", nil)
	wait := waiter(t, context.Background(), m, "cell", func(ctx context.Context) (int, error) { return 42, nil })
	cancel()
	if r := recv(t, own); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("owner err = %v, want its own cancellation", r.err)
	}
	if r := recv(t, wait); r.err != nil || r.v != 42 || r.shared {
		t.Fatalf("waiter got %+v, want its own computation of 42", r)
	}
	if v, shared, _ := Do(context.Background(), m, "cell", func(ctx context.Context) (int, error) { return 0, nil }); v != 42 || !shared {
		t.Fatalf("the waiter's computation was not cached: (%d, %v)", v, shared)
	}
}

// TestMemoWaiterCancelled: a waiter whose own context ends returns its
// own error; the owner's computation carries on and is cached.
func TestMemoWaiterCancelled(t *testing.T) {
	m := NewMemo()
	finish := make(chan func() (int, error), 1)
	own := owner(t, context.Background(), m, "cell", finish)
	wctx, cancel := context.WithCancel(context.Background())
	wait := waiter(t, wctx, m, "cell", func(ctx context.Context) (int, error) {
		t.Error("cancelled waiter computed the cell")
		return 0, nil
	})
	cancel()
	if r := recv(t, wait); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("waiter err = %v, want its own cancellation", r.err)
	}
	finish <- value(5)
	if r := recv(t, own); r.err != nil || r.v != 5 {
		t.Fatalf("owner got %+v", r)
	}
}

// TestMemoOwnerPanics: a panicking owner completes the cell before
// its panic resumes, so waiters return an error instead of hanging,
// and the cell is recomputed afterwards.
func TestMemoOwnerPanics(t *testing.T) {
	m := NewMemo()
	finish := make(chan func() (int, error), 1)
	own := owner(t, context.Background(), m, "cell", finish)
	wait := waiter(t, context.Background(), m, "cell", func(ctx context.Context) (int, error) {
		t.Error("waiter of a panicked cell recomputed it")
		return 0, nil
	})
	finish <- func() (int, error) { panic("kaboom") }
	if r := recv(t, own); r.panic != "kaboom" {
		t.Fatalf("owner's panic = %v, want it to resume as kaboom", r.panic)
	}
	if r := recv(t, wait); r.err == nil || !strings.Contains(r.err.Error(), "kaboom") {
		t.Fatalf("waiter err = %v, want the owner's panic", r.err)
	}
	if v, shared, err := Do(context.Background(), m, "cell", func(ctx context.Context) (int, error) { return 3, nil }); v != 3 || shared || err != nil {
		t.Fatalf("after the panic got (%d, %v, %v), want a fresh 3", v, shared, err)
	}
}

// TestMemoNil: a nil memo calls fn every time.
func TestMemoNil(t *testing.T) {
	calls := 0
	for i := 0; i < 2; i++ {
		v, shared, err := Do(context.Background(), nil, "cell", func(ctx context.Context) (int, error) {
			calls++
			return calls, nil
		})
		if v != i+1 || shared || err != nil {
			t.Fatalf("call %d got (%d, %v, %v)", i, v, shared, err)
		}
	}
}

// TestMemoWaiterLendsLease: a blocked waiter's token goes back to the
// budget (waiter polls for that), and it holds the token again once Do
// returns.
func TestMemoWaiterLendsLease(t *testing.T) {
	m := NewMemo()
	finish := make(chan func() (int, error), 1)
	own := owner(t, context.Background(), m, "cell", finish)
	wait := waiter(t, context.Background(), m, "cell", func(ctx context.Context) (int, error) { return 0, nil })
	finish <- value(11)
	recv(t, own)
	r := recv(t, wait)
	if r.v != 11 || !r.shared || r.err != nil {
		t.Fatalf("waiter got %+v", r)
	}
	if r.used != 1 {
		t.Fatalf("Used = %d when Do returned, want the waiter's token back", r.used)
	}
}
