package pagetable

import (
	"sync"
	"sync/atomic"
	"testing"
)

// size reports the memo's entry count.
func (m *spaceMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}

func tinySpace(dataPages, osPages uint64, cfg OSConfig) *AddressSpace {
	return &AddressSpace{DataPages: dataPages, OSPages: osPages}
}

// TestSharedAddressSpaceIsTheBuild checks the process memo returns one
// instance per key, identical in content to a fresh build.
func TestSharedAddressSpaceIsTheBuild(t *testing.T) {
	cfg := DefaultOSConfig(17)
	a := SharedAddressSpace(5000, 20000, cfg)
	if b := SharedAddressSpace(5000, 20000, cfg); b != a {
		t.Fatal("second request for one key built a new address space")
	}
	fresh := BuildAddressSpace(5000, 20000, cfg)
	if len(fresh.VPNToPPN) != len(a.VPNToPPN) {
		t.Fatal("shared and fresh dense tables differ in size")
	}
	for i := range fresh.VPNToPPN {
		if fresh.VPNToPPN[i] != a.VPNToPPN[i] {
			t.Fatalf("entry %d: shared %#x, fresh %#x", i, a.VPNToPPN[i], fresh.VPNToPPN[i])
		}
	}
	if a2 := SharedAddressSpace(5000, 20001, cfg); a2 == a {
		t.Fatal("a different pool size hit the same entry")
	}
}

// TestSpaceMemoCoalescesConcurrentFirstRequests: N goroutines asking for
// one unseen key at once run exactly one build and all get its result.
func TestSpaceMemoCoalescesConcurrentFirstRequests(t *testing.T) {
	var builds atomic.Int32
	release := make(chan struct{})
	m := newSpaceMemo(func(d, o uint64, cfg OSConfig) *AddressSpace {
		builds.Add(1)
		<-release // hold the build open until every caller has asked
		return tinySpace(d, o, cfg)
	})
	const n = 16
	key := spaceKey{100, 400, DefaultOSConfig(1)}
	got := make([]*AddressSpace, n)
	var asked, wg sync.WaitGroup
	asked.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			asked.Done()
			got[i] = m.get(key)
		}(i)
	}
	asked.Wait()
	close(release)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d concurrent first requests ran %d builds, want 1", n, b)
	}
	for i, as := range got {
		if as == nil || as != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, as, got[0])
		}
	}
}

// TestSpaceMemoBoundedLRU: the memo never holds more than sharedCap
// entries and evicts the least recently used one.
func TestSpaceMemoBoundedLRU(t *testing.T) {
	var builds int
	m := newSpaceMemo(func(d, o uint64, cfg OSConfig) *AddressSpace {
		builds++
		return tinySpace(d, o, cfg)
	})
	key := func(i int) spaceKey { return spaceKey{uint64(i), 4 * uint64(i), DefaultOSConfig(1)} }
	for i := 0; i < 3*sharedCap; i++ {
		m.get(key(i))
		m.get(key(0)) // keep key 0 the most recently used
		if n := m.size(); n > sharedCap {
			t.Fatalf("memo holds %d entries after %d keys, cap %d", n, i+1, sharedCap)
		}
	}
	before := builds
	m.get(key(0))
	if builds != before {
		t.Error("the most recently used key was evicted")
	}
	m.get(key(1))
	if builds != before+1 {
		t.Error("an old key outlived the cap")
	}
}

// TestSpaceMemoRetriesAfterPanic: a panicking build propagates to its
// caller and leaves no entry behind, so a later request builds again.
func TestSpaceMemoRetriesAfterPanic(t *testing.T) {
	fail := true
	m := newSpaceMemo(func(d, o uint64, cfg OSConfig) *AddressSpace {
		if fail {
			panic("pagetable: injected build failure")
		}
		return tinySpace(d, o, cfg)
	})
	key := spaceKey{1, 4, DefaultOSConfig(1)}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("build panic did not reach the caller")
			}
		}()
		m.get(key)
	}()
	if m.size() != 0 {
		t.Fatal("a failed build stayed memoized")
	}
	fail = false
	if m.get(key) == nil {
		t.Fatal("retry after a failed build returned nil")
	}
}
