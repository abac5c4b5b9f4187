package ctrl

import (
	"runtime"
	"sync"
)

// Pool is a set of long-lived worker goroutines that take work only
// when idle: TryRun hands a function to a worker that is waiting for
// one, or reports that none is. The control unit runs batches on the
// calling goroutine and offers a subarray group to the pool only when
// another group of the same round can keep the caller busy (see
// Unit.Run), so a dependency chain never leaves the caller while
// bank-parallel groups still spread over free cores.
type Pool struct {
	jobs chan func()
}

// NewPool starts a pool with the given number of workers; size <= 0
// means one worker per GOMAXPROCS. The workers live for the rest of
// the process.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan func())}
	for i := 0; i < size; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for f := range p.jobs {
		f()
	}
}

// TryRun hands f to an idle worker and reports whether one took it; it
// never blocks. When it returns false the caller still owns f and
// typically runs it itself. The caller tracks completion (typically a
// channel or sync.WaitGroup that f signals).
func (p *Pool) TryRun(f func()) bool {
	select {
	case p.jobs <- f:
		return true
	default:
		return false
	}
}

// sharedPool is the process-wide pool every control unit offers work
// to, started on first use so programs that never execute a batch
// (analytic PerfModel runs, encoding tests) start no goroutines.
var sharedPool = sync.OnceValue(func() *Pool { return NewPool(0) })
