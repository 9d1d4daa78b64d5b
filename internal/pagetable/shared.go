package pagetable

import (
	"slices"
	"sync"
)

// sharedCap bounds the process-level address-space memo. Experiments sweep
// (benchmark, kind, budget) points in order, so consecutive runs mostly
// agree on the pool size: a handful of most-recently-used spaces catches
// the reuse while holding the memo's memory to a few tables.
const sharedCap = 4

// spaceKey is everything BuildAddressSpace's output depends on.
type spaceKey struct {
	dataPages, osPages uint64
	cfg                OSConfig
}

// spaceCall is one build: done closes once as is set (as stays nil when
// the build panicked).
type spaceCall struct {
	done chan struct{}
	as   *AddressSpace
}

// spaceMemo is a bounded LRU memo of built address spaces. Concurrent
// first requests for one key wait on a single build.
type spaceMemo struct {
	build func(dataPages, osPages uint64, cfg OSConfig) *AddressSpace
	mu    sync.Mutex
	calls map[spaceKey]*spaceCall
	order []spaceKey // least recently used first; len(order) <= sharedCap
}

func newSpaceMemo(build func(dataPages, osPages uint64, cfg OSConfig) *AddressSpace) *spaceMemo {
	return &spaceMemo{build: build, calls: make(map[spaceKey]*spaceCall)}
}

var shared = newSpaceMemo(BuildAddressSpace)

// SharedAddressSpace is BuildAddressSpace memoized per process: runs that
// agree on (dataPages, osPages, cfg) share one immutable address space.
// Callers must treat the result as read-only; per-run state derived from
// the table (PTB hardware state, placement) lives with the caller.
func SharedAddressSpace(dataPages, osPages uint64, cfg OSConfig) *AddressSpace {
	return shared.get(spaceKey{dataPages, osPages, cfg})
}

func (m *spaceMemo) get(key spaceKey) *AddressSpace {
	m.mu.Lock()
	c, ok := m.calls[key]
	if ok {
		m.touch(key)
	} else {
		c = &spaceCall{done: make(chan struct{})}
		m.calls[key] = c
		m.order = append(m.order, key)
		if len(m.order) > sharedCap {
			delete(m.calls, m.order[0])
			m.order = slices.Delete(m.order, 0, 1)
		}
	}
	m.mu.Unlock()
	if !ok {
		defer func() {
			if c.as == nil {
				m.forget(key, c) // the build panicked: let a later request retry
			}
			close(c.done)
		}()
		c.as = m.build(key.dataPages, key.osPages, key.cfg)
		return c.as
	}
	<-c.done
	if c.as == nil {
		return m.build(key.dataPages, key.osPages, key.cfg)
	}
	return c.as
}

// touch moves key to the most-recently-used end. Caller holds mu.
func (m *spaceMemo) touch(key spaceKey) {
	i := slices.Index(m.order, key)
	m.order = append(slices.Delete(m.order, i, i+1), key)
}

// forget drops key if it still maps to c.
func (m *spaceMemo) forget(key spaceKey, c *spaceCall) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.calls[key] != c {
		return
	}
	delete(m.calls, key)
	i := slices.Index(m.order, key)
	m.order = slices.Delete(m.order, i, i+1)
}
