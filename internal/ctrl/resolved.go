package ctrl

import (
	"sync"

	"simdram/internal/uprog"
)

// streamKey identifies a (μProgram, binding) pair for resolved-stream
// caching. Programs come from the synthesis cache and are immutable, so
// pointer identity is a sound program key; the binding flattens to at
// most three source bases because the ISA encodes at most three source
// objects — bindings with more sources bypass the cache.
type streamKey struct {
	prog        *uprog.Program
	nSrc        int
	src         [3]int
	dstBase     int
	scratchBase int
}

// maxStreams bounds the Unit's resolved-stream cache. A served system
// cycles through far fewer (program, placement) pairs than this; if a
// pathological workload exceeds it, the whole map is dropped and warms
// back up, which only costs re-resolution.
const maxStreams = 4096

// streamCache memoizes resolved command streams on a Unit. The fast
// path is a read-locked map hit with a stack-allocated key — zero heap
// allocations — so steady-state served jobs skip binding validation and
// symbolic resolution entirely.
type streamCache struct {
	mu      sync.RWMutex
	streams map[streamKey]*uprog.ResolvedStream
}

// resolvedStream returns the cached resolved stream for (p, b),
// resolving and caching on first use. Bindings with more than three
// source operands (impossible through the ISA) resolve uncached.
func (u *Unit) resolvedStream(p *uprog.Program, b uprog.Binding) (*uprog.ResolvedStream, error) {
	if len(b.SrcBase) > 3 {
		return uprog.Resolve(p, b, u.mod.Config())
	}
	key := streamKey{prog: p, nSrc: len(b.SrcBase), dstBase: b.DstBase, scratchBase: b.ScratchBase}
	copy(key.src[:], b.SrcBase)
	u.sc.mu.RLock()
	st := u.sc.streams[key]
	u.sc.mu.RUnlock()
	if st != nil {
		return st, nil
	}
	st, err := uprog.Resolve(p, b, u.mod.Config())
	if err != nil {
		return nil, err
	}
	u.sc.mu.Lock()
	if u.sc.streams == nil || len(u.sc.streams) >= maxStreams {
		u.sc.streams = make(map[streamKey]*uprog.ResolvedStream)
	}
	// Last writer wins on a racing double-resolve: both streams are
	// identical, so either pointer is fine for every waiter.
	u.sc.streams[key] = st
	u.sc.mu.Unlock()
	return st, nil
}

// StreamCacheSize reports the number of cached resolved streams.
func (u *Unit) StreamCacheSize() int {
	u.sc.mu.RLock()
	defer u.sc.mu.RUnlock()
	return len(u.sc.streams)
}
