package tensor

import (
	"runtime"
	"sync"
)

// parallelThreshold is the approximate multiply count above which matmuls
// fan out across goroutines.
const parallelThreshold = 1 << 18

// parallelizable reports whether a kernel of the given multiply count should
// take the fan-out path. With a single worker the answer is always no — the
// serial kernel does the same work without spawning goroutines or building
// the dispatch closure, keeping single-threaded callers allocation-free.
func parallelizable(work int) bool {
	return work >= parallelThreshold && runtime.GOMAXPROCS(0) > 1
}

// ParallelFor runs fn(start, end) over [0, n) split into roughly equal
// chunks across GOMAXPROCS goroutines. Each index is covered exactly once;
// chunk boundaries are deterministic so floating-point reductions performed
// per-chunk stay reproducible.
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
		e := s + chunk
		if e > n {
			e = n
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(s, e)
	}
	wg.Wait()
}
