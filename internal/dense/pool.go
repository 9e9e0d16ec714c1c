package dense

import (
	"runtime"
	"sync/atomic"
)

// The package-level worker pool: Workers()-1 task-DAG offload slots. The
// kernels themselves always run on the caller's goroutine; the pool's one
// client is the engine's task-DAG scheduler, which offers ready compute
// tasks to TrySubmit. The degree is shared by every caller in the process,
// so the engine's P simulated ranks offloading concurrently cannot
// oversubscribe the machine: at most Workers()-1 extra goroutines run
// tasks at any instant, and a rank that finds no free slot computes the
// task itself.
type workerPool struct {
	n   int
	sem chan struct{} // n-1 tokens, one per extra worker
}

var kernelPool atomic.Pointer[workerPool]

func init() { SetWorkers(0) }

// SetWorkers sets the worker-pool degree and returns the value in effect;
// n <= 0 resets it to runtime.GOMAXPROCS(0). Safe to call concurrently with
// running tasks (in-flight tasks release the slot of the pool they took it
// from).
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	kernelPool.Store(&workerPool{n: n, sem: make(chan struct{}, n-1)})
	return n
}

// Workers returns the current worker-pool degree.
func Workers() int { return kernelPool.Load().n }

// TrySubmit runs fn on a pool worker goroutine if a slot is free right
// now, returning true; otherwise it returns false without running fn, and
// the caller decides what to do (typically: run it inline, or keep it
// queued). The slot is held until fn returns, so at most Workers()-1
// submitted tasks run concurrently process-wide.
//
// fn must not panic: the pool goroutine has no recovery frame, so an
// escaping panic kills the process. Callers that run arbitrary compute
// wrap fn with their own recover and re-raise on their own goroutine.
func TrySubmit(fn func()) bool {
	p := kernelPool.Load()
	select {
	case p.sem <- struct{}{}:
		go func() {
			defer func() { <-p.sem }()
			fn()
		}()
		return true
	default:
		return false
	}
}
