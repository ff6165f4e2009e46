package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpcache/internal/fault"
)

func TestRunExecutesEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		counts := make([]atomic.Int32, n)
		if _, failed := Map(workers, n, Policy{}, func(i int) (struct{}, error) {
			counts[i].Add(1)
			return struct{}{}, nil
		}); failed != nil {
			t.Fatal(failed)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	out, failed := Map(4, 0, Policy{}, func(int) (int, error) { t.Fatal("job ran"); return 0, nil })
	if out != nil || failed != nil {
		t.Fatalf("out=%v failed=%v", out, failed)
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, failed := Map(workers, 50, Policy{}, func(i int) (int, error) {
			if i == 7 || i == 31 {
				return 0, fmt.Errorf("job says %w", boom)
			}
			return i, nil
		})
		if len(failed) != 2 || failed[0].Index != 7 || failed[1].Index != 31 {
			t.Fatalf("workers=%d: failed = %v", workers, failed)
		}
		if err := error(failed[0]); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// Deterministic selection: always the lowest failing index.
		want := "sweep: job 7: job says boom"
		if failed[0].Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, failed[0].Error(), want)
		}
	}
}

func TestMapGathersInDeclarationOrder(t *testing.T) {
	const n = 200
	got, failed := Map(16, n, Policy{}, func(i int) (int, error) { return i * i, nil })
	if failed != nil {
		t.Fatal(failed)
	}
	if len(got) != n {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapSerialParallelIdentical(t *testing.T) {
	job := func(i int) (string, error) { return fmt.Sprintf("row-%03d", i), nil }
	serial, failed := Map(1, 64, Policy{}, job)
	if failed != nil {
		t.Fatal(failed)
	}
	parallel, failed := Map(8, 64, Policy{}, job)
	if failed != nil {
		t.Fatal(failed)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs: %q vs %q", i, serial[i], parallel[i])
		}
	}
}

// TestMapErrorReturnsNil: a failed point's slot holds the zero value,
// whatever the job returned alongside its error, and the failure is
// reported rather than swallowed.
func TestMapErrorReturnsNil(t *testing.T) {
	got, failed := Map(4, 10, Policy{}, func(i int) (int, error) {
		if i == 3 {
			return 99, errors.New("nope")
		}
		return i, nil
	})
	if len(failed) != 1 || failed[0].Index != 3 {
		t.Fatalf("failed = %v", failed)
	}
	if got[3] != 0 {
		t.Fatalf("failed point leaked a result: %d", got[3])
	}
}

func TestWorkersNormalization(t *testing.T) {
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(-3); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", w)
	}
	if w := Workers(5); w != 5 {
		t.Fatalf("Workers(5) = %d", w)
	}
}

// TestTolerantPanicIsolation: a panicking point must not take the
// sweep down; every other point completes and the failure carries the
// class and a captured stack.
func TestTolerantPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, failed := Map(workers, 8, Policy{}, func(i int) (int, error) {
			if i == 3 {
				panic("design bug")
			}
			return i * 10, nil
		})
		for i, v := range out {
			want := i * 10
			if i == 3 {
				want = 0
			}
			if v != want {
				t.Fatalf("workers=%d out[%d] = %d, want %d", workers, i, v, want)
			}
		}
		if len(failed) != 1 {
			t.Fatalf("workers=%d: %d failures, want 1", workers, len(failed))
		}
		r := failed[0]
		if r.Index != 3 || fault.ClassOf(r) != fault.ClassPanic {
			t.Fatalf("workers=%d: failure %+v", workers, r)
		}
		var pe *PanicError
		if !errors.As(r, &pe) || !errors.Is(r, fault.ErrPointPanic) {
			t.Fatalf("panic error does not wrap a *PanicError/ErrPointPanic: %v", r)
		}
		if !strings.Contains(pe.Stack, "sweep_test.go") {
			t.Fatalf("stack not captured:\n%s", pe.Stack)
		}
	}
}

// TestPanicIsolatedWithZeroPolicy: with no option set, a runtime
// panic (the shape a design bug takes, unlike the string panic above)
// comes back as an error that wraps fault.ErrPointPanic and names its
// index, and every other point's result is committed.
func TestPanicIsolatedWithZeroPolicy(t *testing.T) {
	const n, bad = 12, 5
	for _, workers := range []int{1, 4} {
		out, failed := Map(workers, n, Policy{}, func(i int) (string, error) {
			if i == bad {
				var m map[string]int
				m["nil map write"]++
			}
			return fmt.Sprintf("row-%d", i), nil
		})
		if len(failed) != 1 {
			t.Fatalf("workers=%d: failed = %v", workers, failed)
		}
		err := error(failed[0])
		if !errors.Is(err, fault.ErrPointPanic) {
			t.Fatalf("workers=%d: %v does not wrap ErrPointPanic", workers, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != bad || failed[0].Index != bad {
			t.Fatalf("workers=%d: failure does not carry index %d: %v", workers, bad, err)
		}
		if _, ok := pe.Value.(runtime.Error); !ok {
			t.Fatalf("workers=%d: recovered value %T, want a runtime.Error", workers, pe.Value)
		}
		for i, v := range out {
			want := fmt.Sprintf("row-%d", i)
			if i == bad {
				want = ""
			}
			if v != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, v, want)
			}
		}
	}
}

// failOnHelper panics on a helper goroutine, recovers there, and
// hands the panic back as a *ForwardedPanic.
func failOnHelper() (fp *ForwardedPanic) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			fp = &ForwardedPanic{Value: recover(), Stack: string(debug.Stack())}
		}()
		panic("helper failed")
	}()
	<-done
	return fp
}

// TestForwardedPanicKeepsFirstStack: a panic raised again from another
// goroutine fails the point with the first goroutine's value, and its
// stack names the helper that panicked as well as the job.
func TestForwardedPanicKeepsFirstStack(t *testing.T) {
	_, failed := Map(1, 1, Policy{}, func(int) (int, error) {
		panic(failOnHelper())
	})
	var pe *PanicError
	if len(failed) != 1 || !errors.As(failed[0].Err, &pe) {
		t.Fatalf("failures %v, want one *PanicError", failed)
	}
	if pe.Value != "helper failed" {
		t.Errorf("recovered %v, want the helper's own value", pe.Value)
	}
	if !strings.Contains(pe.Stack, "failOnHelper.func") || !strings.Contains(pe.Stack, "TestForwardedPanicKeepsFirstStack") {
		t.Errorf("stack misses the helper or the job:\n%s", pe.Stack)
	}
}

// TestTolerantTimeout: a stuck point is bounded by the deadline,
// classified as a timeout, and its straggling result is never
// committed.
func TestTolerantTimeout(t *testing.T) {
	release := make(chan struct{})
	pol := Policy{Timeout: 20 * time.Millisecond}
	out, failed := Map(2, 3, pol, func(i int) (int, error) {
		if i == 1 {
			<-release
			return 999, nil
		}
		return i, nil
	})
	close(release) // let the straggler finish after the sweep returned
	if len(failed) != 1 || failed[0].Index != 1 || fault.ClassOf(failed[0]) != fault.ClassTimeout {
		t.Fatalf("failed = %+v", failed)
	}
	if !errors.Is(failed[0], fault.ErrTimeout) {
		t.Fatalf("timeout error does not wrap ErrTimeout: %v", failed[0])
	}
	if out[1] != 0 {
		t.Fatalf("timed-out point committed a result: %d", out[1])
	}
	if out[0] != 0+0 || out[2] != 2 {
		t.Fatalf("out = %v", out)
	}
}

// TestTolerantDeterministicAcrossWorkers: results and failures are
// identical at every worker count, with a panicking and an erroring
// point in the sweep.
func TestTolerantDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]int, []PointError) {
		return Map(workers, 16, Policy{}, func(i int) (int, error) {
			switch i {
			case 5:
				panic("boom")
			case 9:
				return 0, fmt.Errorf("bad chunk: %w", fault.ErrCorruptTrace)
			}
			return i * i, nil
		})
	}
	out1, fail1 := run(1)
	out8, fail8 := run(8)
	if !reflect.DeepEqual(out1, out8) {
		t.Fatalf("results differ across worker counts:\n1: %v\n8: %v", out1, out8)
	}
	if len(fail1) != 2 || len(fail8) != 2 {
		t.Fatalf("failure counts: %d vs %d, want 2", len(fail1), len(fail8))
	}
	for i := range fail1 {
		a, b := fail1[i], fail8[i]
		if a.Index != b.Index || fault.ClassOf(a) != fault.ClassOf(b) || a.Error() != b.Error() {
			t.Fatalf("failure %d differs: %+v vs %+v", i, a, b)
		}
	}
}
