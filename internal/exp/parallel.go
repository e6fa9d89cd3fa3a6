package exp

import (
	"runtime"
	"sync"
)

// AutoParallel returns a reasonable worker count for this machine.
func AutoParallel() int {
	n := runtime.NumCPU()
	if n < 1 {
		return 1
	}
	return n
}

// forEach runs n independent tasks over the experiment's worker pool.
func forEach(o Options, n int, task func(i int) error) error {
	return ForEach(o.Parallel, n, task)
}

// ForEach runs n independent simulation tasks over up to `workers`
// goroutines (<= 1 means serial, with short-circuit on first error).
// Each core.System is single-threaded by design, so the fan-out is across
// systems: every task must build and own its private System(s) and write
// its result into a dedicated slot, which keeps the assembled output
// byte-identical to a serial run regardless of scheduling. The first
// error (by task index, deterministically) is returned. Exported for the
// cmds that fan device simulations out the same way.
func ForEach(workers, n int, task func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = task(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
