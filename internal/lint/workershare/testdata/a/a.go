// Fixture for the workershare analyzer: worker goroutines must commit
// through job-index slots, atomics, or mutexes.
package a

import (
	"sync"
	"sync/atomic"

	"fpcache/internal/sweep"
)

var pkgCounter int

var pkgGuarded struct {
	mu sync.Mutex
	n  int
}

// CommitByIndex is the blessed pattern: per-iteration loop variable
// indexes a captured slice. No findings.
func CommitByIndex(jobs []int) []int {
	out := make([]int, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = jobs[i] * 2
		}()
	}
	wg.Wait()
	return out
}

// SweepJobCommit uses the executor's job-index parameter. No findings.
func SweepJobCommit(n int) ([]int, []sweep.PointError) {
	return sweep.Map(4, n, sweep.Policy{}, func(i int) (int, error) {
		return i * i, nil
	})
}

// AppendArrivalOrder is the classic ordering bug: results land in
// completion order, so output differs run to run.
func AppendArrivalOrder(jobs []int) []int {
	var out []int
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out = append(out, jobs[i]) // want `worker writes captured variable out`
		}()
	}
	wg.Wait()
	return out
}

// SharedCursor serializes commits by arrival order through a shared
// index — same bug, different spelling.
func SharedCursor(jobs []int) []int {
	out := make([]int, len(jobs))
	cursor := 0
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[cursor] = jobs[i] // want `worker writes out\[\.\.\.\] through a shared index`
			cursor++              // want `worker writes captured variable cursor`
		}()
	}
	wg.Wait()
	return out
}

// SharedMap writes a captured map from workers.
func SharedMap(jobs []int) map[int]int {
	out := map[int]int{}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = jobs[i] // want `worker writes shared map out`
		}()
	}
	wg.Wait()
	return out
}

// MutexGuarded is legal: the write happens inside a critical section.
func MutexGuarded(jobs []int) int {
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			total += jobs[i]
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// UnlockEndsTheSection: a write after Unlock is back to being shared.
func UnlockEndsTheSection(jobs []int) int {
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			total += jobs[i]
			mu.Unlock()
			total++ // want `worker writes captured variable total`
		}()
	}
	wg.Wait()
	return total
}

// DeferredUnlockGuards: a deferred Unlock releases at exit, so the
// whole body stays guarded.
func DeferredUnlockGuards(jobs []int) int {
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			total += jobs[i]
		}()
	}
	wg.Wait()
	return total
}

// AtomicCounter is legal: atomics never appear as plain assignments.
func AtomicCounter(jobs []int) int64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total.Add(int64(jobs[i]))
		}()
	}
	wg.Wait()
	return total.Load()
}

// PackageWrite mutates package-level state directly from a worker.
func PackageWrite(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkgCounter++ // want `worker writes package-level variable pkgCounter`
		}()
	}
	wg.Wait()
}

// bumpCounter is the transitive carrier for TransitivePackageWrite.
func bumpCounter() { pkgCounter++ }

// bumpGuarded writes package state under its own lock; legal.
func bumpGuarded() {
	pkgGuarded.mu.Lock()
	pkgGuarded.n++
	pkgGuarded.mu.Unlock()
}

// TransitivePackageWrite reaches the package-level write through a
// call.
func TransitivePackageWrite(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bumpCounter() // want `worker calls bumpCounter, which writes package-level variable pkgCounter`
			bumpGuarded()
		}()
	}
	wg.Wait()
}

// SharedStructField mutates a field of captured shared state.
func SharedStructField(jobs []int) {
	type acc struct{ sum int }
	a := &acc{}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.sum += jobs[i] // want `worker writes field a.sum of shared state`
		}()
	}
	wg.Wait()
}

// NamedJobVariable resolves the `job := func(...)` binding the sweep
// executors are actually called with throughout the repo.
func NamedJobVariable(n int) ([]int, []sweep.PointError) {
	var out []int
	job := func(i int) (int, error) {
		out = append(out, i) // want `worker writes captured variable out`
		return i, nil
	}
	return sweep.Map(4, n, sweep.Policy{}, job)
}

// ChannelFanIn is legal: channel communication synchronizes
// explicitly; merge order is the receiver's business.
func ChannelFanIn(jobs []int) []int {
	ch := make(chan int, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch <- jobs[i]
		}()
	}
	wg.Wait()
	close(ch)
	var out []int
	for v := range ch {
		out = append(out, v)
	}
	return out
}
