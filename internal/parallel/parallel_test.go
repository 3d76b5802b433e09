package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-3); got != want {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		hits := make([]atomic.Int32, n)
		err := ForEach(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(8, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReportsLowestFailingIndex(t *testing.T) {
	fail := map[int]bool{13: true, 5: true, 70: true}
	for _, workers := range []int{1, 8} {
		err := ForEach(workers, 100, func(i int) error {
			if fail[i] {
				return fmt.Errorf("point %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "point 5" {
			t.Errorf("workers=%d: err = %v, want point 5", workers, err)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 50
	var inFlight, peak atomic.Int32
	err := ForEach(workers, n, func(int) error {
		now := inFlight.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent points, cap %d", p, workers)
	}
}

func TestForEachSequentialShortCircuits(t *testing.T) {
	ran := 0
	err := ForEach(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 4 {
		t.Errorf("ran %d points (err %v), want short-circuit after index 3", ran, err)
	}
}

func TestForEachRecoversPanicsIntoPointErrors(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		err := ForEach(workers, 40, func(i int) error {
			ran.Add(1)
			if i == 7 {
				panic("poisoned point")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 7 || pe.Value != "poisoned point" {
			t.Errorf("workers=%d: PanicError = {%d %v}", workers, pe.Index, pe.Value)
		}
		if pe.Stack == "" || !strings.Contains(pe.Error(), "poisoned point") {
			t.Errorf("workers=%d: panic error lacks stack or value: %q", workers, pe.Error())
		}
		if workers > 1 && ran.Load() != 40 {
			// Pooled mode drains: the other 39 points still run.
			t.Errorf("workers=%d: ran %d of 40 points after panic", workers, ran.Load())
		}
	}
}

func TestForEachPanickingPointReportsLowestIndex(t *testing.T) {
	err := ForEach(8, 100, func(i int) error {
		switch i {
		case 11:
			panic(11)
		case 42:
			return errors.New("plain failure")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 11 {
		t.Fatalf("err = %v, want panic at index 11", err)
	}
}

func TestForEachOptRetriesTransientFailures(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var failures [30]atomic.Int32
		err := ForEachOpt(workers, 30, Options{Retries: 2}, func(i int) error {
			// Every point fails twice (one panic, one error) then succeeds.
			switch failures[i].Add(1) {
			case 1:
				panic("transient panic")
			case 2:
				return errors.New("transient error")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

func TestForEachOptRetriesExhaust(t *testing.T) {
	var attempts atomic.Int32
	err := ForEachOpt(1, 1, Options{Retries: 3}, func(int) error {
		attempts.Add(1)
		return errors.New("deterministic failure")
	})
	if err == nil || err.Error() != "deterministic failure" {
		t.Fatalf("err = %v", err)
	}
	if got := attempts.Load(); got != 4 {
		t.Fatalf("attempts = %d, want 1 + 3 retries", got)
	}
}

// TestForEachPanicHammer is the race-condition hammer: many workers,
// many points, a third of them panicking, run under -race in CI. The
// pool must drain cleanly, report the lowest poisoned index, and never
// double-run or skip a point.
func TestForEachPanicHammer(t *testing.T) {
	for round := 0; round < 20; round++ {
		const n = 300
		hits := make([]atomic.Int32, n)
		err := ForEach(16, n, func(i int) error {
			hits[i].Add(1)
			if i%3 == 0 {
				panic(i)
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 0 {
			t.Fatalf("round %d: err = %v, want panic at index 0", round, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("round %d: index %d ran %d times", round, i, c)
			}
		}
	}
}

// TestForEachCtxStopsDispatchOnCancel proves the ForEachCtx contract:
// cancellation stops new points from being claimed, points already in
// flight run to completion (their slots are fully written), and the
// pool reports ctx.Err() when no point itself failed.
func TestForEachCtxStopsDispatchOnCancel(t *testing.T) {
	const n, workers = 64, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu      sync.Mutex
		ran     = make([]bool, n)
		started = make(chan int, n)
		release = make(chan struct{})
	)
	// Once every worker holds a point, cancel the context, then let the
	// in-flight points finish.
	go func() {
		for j := 0; j < workers; j++ {
			<-started
		}
		cancel()
		close(release)
	}()
	err := ForEachCtx(ctx, workers, n, Options{}, func(i int) error {
		started <- i
		<-release
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("cancelled pool returned %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	var count int
	for _, r := range ran {
		if r {
			count++
		}
	}
	// Exactly the in-flight points at cancellation time completed; none
	// was abandoned half-done and none was dispatched afterwards.
	if count != workers {
		t.Fatalf("%d points ran, want exactly the %d in flight at cancellation", count, workers)
	}
}

// ForEachCtx with a pre-cancelled context runs nothing.
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int64
	for _, workers := range []int{1, 8} {
		if err := ForEachCtx(ctx, workers, 16, Options{}, func(i int) error {
			runs.Add(1)
			return nil
		}); err != context.Canceled {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
	if runs.Load() != 0 {
		t.Fatalf("%d points ran under a pre-cancelled context", runs.Load())
	}
}

// A point error from the completed prefix still beats ctx.Err().
func TestForEachCtxPointErrorWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEachCtx(ctx, 2, 8, Options{}, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want the point error", err)
	}
}

// TestForEachOrderedEmitsInIndexOrder: at any worker count every point
// is emitted exactly once, in index order, with its own error — a
// failing or panicking point does not end the sweep — and emission
// streams before the slowest point finishes.
func TestForEachOrderedEmitsInIndexOrder(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 3, 8} {
		release := make(chan struct{})
		var emitted []int
		err := ForEachOrdered(context.Background(), workers, n, func(i int) error {
			switch i {
			case n - 1:
				<-release // held until index 0 has been emitted
			case 5:
				return errors.New("point 5 failed")
			case 9:
				panic("point 9 panicked")
			}
			return nil
		}, func(i int, err error) error {
			if i == 0 {
				close(release)
			}
			var pe *PanicError
			switch {
			case i == 5 && (err == nil || err.Error() != "point 5 failed"):
				t.Errorf("workers=%d: point 5 emitted with %v", workers, err)
			case i == 9 && !errors.As(err, &pe):
				t.Errorf("workers=%d: point 9 emitted with %v, want *PanicError", workers, err)
			case i != 5 && i != 9 && err != nil:
				t.Errorf("workers=%d: point %d emitted with %v", workers, i, err)
			}
			emitted = append(emitted, i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, got := range emitted {
			if got != i {
				t.Fatalf("workers=%d: emission order %v", workers, emitted)
			}
		}
		if len(emitted) != n {
			t.Fatalf("workers=%d: emitted %d of %d points", workers, len(emitted), n)
		}
	}
}

// TestForEachOrderedStopsOnEmitError: an emit error stops emission and
// is returned after in-flight points finish.
func TestForEachOrderedStopsOnEmitError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var inflight atomic.Int64
		var emitted []int
		stop := errors.New("stop")
		err := ForEachOrdered(context.Background(), workers, 1000, func(i int) error {
			inflight.Add(1)
			defer inflight.Add(-1)
			return nil
		}, func(i int, err error) error {
			emitted = append(emitted, i)
			if i == 3 {
				return stop
			}
			return nil
		})
		if err != stop {
			t.Fatalf("workers=%d: got %v, want the emit error", workers, err)
		}
		if len(emitted) != 4 {
			t.Errorf("workers=%d: emitted %v after the stop", workers, emitted)
		}
		if inflight.Load() != 0 {
			t.Errorf("workers=%d: returned with %d points still running", workers, inflight.Load())
		}
	}
}

// TestForEachOrderedCancel: a cancelled context ends emission at the
// first unfinished index and returns ctx.Err() once in-flight points
// finish.
func TestForEachOrderedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var inflight atomic.Int64
	var emitted []int
	err := ForEachOrdered(ctx, 2, 100, func(i int) error {
		inflight.Add(1)
		defer inflight.Add(-1)
		if i == 2 {
			cancel()
		}
		if i >= 2 {
			<-ctx.Done()
		}
		return nil
	}, func(i int, err error) error {
		emitted = append(emitted, i)
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if inflight.Load() != 0 {
		t.Errorf("returned with %d points still running", inflight.Load())
	}
	// Only the points in flight at cancellation can have finished.
	for i, got := range emitted {
		if got != i || got > 4 {
			t.Fatalf("emission after cancel: %v", emitted)
		}
	}
}
