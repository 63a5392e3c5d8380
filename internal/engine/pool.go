package engine

import "sync"

// ForEachIndex calls fn(i) for every i in [0, n) on up to workers
// goroutines (at least one) and returns when all calls have. When each
// call writes only its own index's result, the outcome is the same for
// any worker count — the property the experiment runner's and the soak's
// byte-identity across -parallel settings rests on.
func ForEachIndex(n, workers int, fn func(i int)) {
	workers = min(max(workers, 1), n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
