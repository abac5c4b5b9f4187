package ctrl

import (
	"runtime"
	"sync"
)

// Pool is a persistent worker pool: Size long-lived goroutines consume
// submitted functions from a shared queue. The control unit routes all
// functional execution through one Pool, so steady-state instruction
// streams reuse the same workers instead of paying a goroutine spawn per
// Run call.
type Pool struct {
	jobs chan func()
	size int
	once sync.Once
}

// NewPool starts a pool with the given number of workers; size <= 0
// means one worker per CPU.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.NumCPU()
	}
	p := &Pool{jobs: make(chan func()), size: size}
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

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Run submits f for execution, blocking until a worker accepts it. The
// caller is responsible for its own completion tracking (typically a
// sync.WaitGroup captured by f). Run must not be called after Close, and
// f must not call Run on the same pool (a worker waiting on a worker can
// deadlock when all workers are busy).
func (p *Pool) Run(f func()) { p.jobs <- f }

// Close stops the workers once queued work drains. Close is idempotent.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.jobs) })
}
