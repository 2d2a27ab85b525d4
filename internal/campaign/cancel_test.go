package campaign

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// Cancellation must never yield a partial artifact: the pool drains
// in-flight scenarios and the runner returns ctx.Err(), nothing else.
func TestRunScenariosCtxCancelled(t *testing.T) {
	scenarios := testMatrix().Scenarios()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := RunScenariosCtx(ctx, scenarios, RunnerOpts{Workers: 2, BaseSeed: 42})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if c != nil {
		t.Fatalf("cancelled run returned a partial artifact with %d results", len(c.Results))
	}
}

// TestRunScenariosCtxMidRunCancel cancels on the first result, both on
// the collapsed path (every cell of the matrix collapses) and with
// NoFork.
func TestRunScenariosCtxMidRunCancel(t *testing.T) {
	scenarios := testMatrix().Scenarios()
	for _, noFork := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		var done atomic.Int64
		opts := RunnerOpts{Workers: 2, BaseSeed: 42, NoFork: noFork}
		opts.OnResult = func(Result) {
			// Cancel as soon as the first scenario lands; the pool must
			// drain cleanly (the race detector would flag an abandoned
			// worker touching shared state after return).
			if done.Add(1) == 1 {
				cancel()
			}
		}
		c, err := RunScenariosCtx(ctx, scenarios, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("NoFork=%v: want context.Canceled, got %v", noFork, err)
		}
		if c != nil {
			t.Fatalf("NoFork=%v: mid-run cancel returned a partial artifact", noFork)
		}
		if got := done.Load(); got == 0 || got >= int64(len(scenarios)) {
			t.Fatalf("NoFork=%v: cancel after first result should stop the feed early; %d of %d scenarios ran",
				noFork, got, len(scenarios))
		}
	}
}

// TestRunScenariosRejectsRepeatedKeys: a repeated scenario key is an
// error before anything is simulated.
func TestRunScenariosRejectsRepeatedKeys(t *testing.T) {
	scenarios := testMatrix().Scenarios()
	var ran atomic.Int64
	opts := RunnerOpts{Workers: 2, OnResult: func(Result) { ran.Add(1) }}
	_, err := RunScenarios(append(scenarios, scenarios[3]), opts)
	if err == nil || !strings.Contains(err.Error(), "duplicate scenario key") {
		t.Fatalf("want a duplicate scenario key error, got %v", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d scenarios ran before the repeated key was rejected", n)
	}
}

func TestForEachCtxSequentialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	out, err := ForEachCtx(ctx, 10, 1, func(i int) int {
		ran++
		if i == 2 {
			cancel()
		}
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran != 3 {
		t.Fatalf("sequential path should stop after the cancelling job; ran %d", ran)
	}
	// The partial slice comes back with the error; callers that need
	// all-or-nothing (the campaign runner) discard it on err != nil.
	if out[2] != 2 {
		t.Fatalf("completed jobs should be recorded; out[2] = %d", out[2])
	}
}
