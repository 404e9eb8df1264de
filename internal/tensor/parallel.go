package tensor

import (
	"runtime"
	"sync"
)

// ParallelFor runs fn(start, end) over [0, n) split into roughly equal
// chunks across GOMAXPROCS goroutines. Each index is covered exactly once;
// chunk boundaries are deterministic so floating-point reductions performed
// per-chunk stay reproducible. A call that forks allocates the WaitGroup and
// one closure per goroutine, beside the caller's fn.
func ParallelFor(n int, fn func(start, end int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n <= 1 || workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for s := 0; s < n; s += chunk {
		e := min(s+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s, e)
		}()
	}
	wg.Wait()
}
