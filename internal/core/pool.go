package core

import (
	"context"
	"runtime"
	"sync"
)

// RunPool runs n indexed tasks over a bounded worker pool: the first
// failure cancels the context handed to the remaining tasks and is
// returned after every started task finishes; tasks not yet started are
// skipped. workers ≤ 0 means GOMAXPROCS; one worker runs the tasks in index
// order. When the caller's own context is cancelled, its error is returned
// (unless a task failed first). This is the one pool shared by AnalyzeAll
// batches, Audit sweeps and the discovery searches inside one analysis, so
// cancel-on-first-error and error-precedence semantics cannot drift
// between them.
func RunPool(ctx context.Context, n, workers int, run func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if pctx.Err() != nil {
					continue // a task failed or the caller gave up
				}
				if err := run(pctx, i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-pctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return firstErr
}
