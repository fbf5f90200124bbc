package memsim

import (
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/stats"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	return NewCache(1024, 4, 32, sim.NewRNG(1)) // 8 sets of 4
}

func TestCacheInsertLookup(t *testing.T) {
	c := testCache(t)
	if st := c.Lookup(5); st != Invalid {
		t.Fatalf("empty cache lookup = %d", st)
	}
	if v := c.Insert(5, Shared); v.State != Invalid {
		t.Fatalf("insert into empty set evicted %+v", v)
	}
	if st := c.Lookup(5); st != Shared {
		t.Fatalf("lookup after insert = %d", st)
	}
	c.SetState(5, Modified)
	if st := c.Lookup(5); st != Modified {
		t.Fatalf("lookup after SetState = %d", st)
	}
	if st := c.Invalidate(5); st != Modified {
		t.Fatalf("invalidate returned %d", st)
	}
	if st := c.Lookup(5); st != Invalid {
		t.Fatalf("lookup after invalidate = %d", st)
	}
}

func TestCacheSetConflicts(t *testing.T) {
	c := testCache(t) // 8 sets: blocks k and k+8 share a set
	for i := 0; i < 4; i++ {
		if v := c.Insert(uint64(i*8), Modified); v.State != Invalid {
			t.Fatalf("eviction while filling set: %+v", v)
		}
	}
	v := c.Insert(4*8, Modified) // fifth block in a 4-way set
	if v.State == Invalid {
		t.Fatal("expected an eviction from a full set")
	}
	if v.Tag%8 != 0 || v.Tag >= 32 {
		t.Fatalf("victim %d not from the conflicting set", v.Tag)
	}
	// Other sets are untouched.
	if c.Resident() != 4 {
		t.Fatalf("resident = %d, want 4", c.Resident())
	}
}

func TestCacheInsertResidentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := testCache(t)
	c.Insert(7, Shared)
	c.Insert(7, Modified)
}

func TestCacheInvariantResidencyBound(t *testing.T) {
	// Property: after any access sequence, each set holds at most assoc
	// lines and every resident tag maps to its set.
	f := func(blocks []uint16) bool {
		c := NewCache(512, 2, 32, sim.NewRNG(3)) // 8 sets of 2
		for _, b := range blocks {
			blk := uint64(b % 64)
			if c.Lookup(blk) == Invalid {
				c.Insert(blk, Shared)
			}
		}
		counts := make(map[uint64]int)
		for _, pl := range c.lines {
			if !pl.valid() {
				continue
			}
			counts[pl.block()&7]++
		}
		for _, n := range counts {
			if n > 2 {
				return false
			}
		}
		return c.Resident() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTLBFIFO(t *testing.T) {
	tlb := NewTLB(4, 4096)
	page := func(i int) uint64 { return uint64(i) * 4096 }
	for i := 0; i < 4; i++ {
		if tlb.Access(page(i)) {
			t.Fatalf("first access to page %d hit", i)
		}
	}
	for i := 0; i < 4; i++ {
		if !tlb.Access(page(i)) {
			t.Fatalf("second access to page %d missed", i)
		}
	}
	// Install a fifth page: evicts page 0 (FIFO), not the most recent.
	tlb.Access(page(4))
	if tlb.Access(page(0)) {
		t.Fatal("page 0 should have been evicted FIFO")
	}
	// Re-installing page 0 evicted page 1 (the next FIFO slot).
	if tlb.Access(page(1)) {
		t.Fatal("page 1 should have been evicted next")
	}
	// Re-installing page 1 evicted page 2; page 3 is still resident.
	if !tlb.Access(page(3)) {
		t.Fatal("page 3 should still be resident")
	}
	if tlb.Entries() != 4 {
		t.Fatalf("entries = %d, want 4", tlb.Entries())
	}
}

func TestAddrSpaceSegments(t *testing.T) {
	s := NewAddrSpace(4, 32)
	pa := s.AllocPrivate(2, 100)
	if IsShared(pa) {
		t.Error("private allocation classified shared")
	}
	if Owner(pa) != 2 {
		t.Errorf("owner = %d, want 2", Owner(pa))
	}
	sa := s.AllocShared(100)
	if !IsShared(sa) {
		t.Error("striped allocation not shared")
	}
	la := s.AllocSharedOn(3, 64)
	if !IsShared(la) {
		t.Error("local-shared allocation not shared")
	}
	if h := HomeOf(la, 4, 12); h != 3 {
		t.Errorf("home = %d, want 3", h)
	}
}

func TestStripedHomesRotateByPage(t *testing.T) {
	const procs = 4
	s := NewAddrSpace(procs, 32)
	base := s.AllocShared(procs * 4096)
	seen := make(map[int]bool)
	for i := 0; i < procs; i++ {
		h := HomeOf(base+uint64(i)*4096, procs, 12)
		seen[h] = true
	}
	if len(seen) != procs {
		t.Errorf("striping visited %d homes, want %d", len(seen), procs)
	}
}

func TestAddrSpaceNonOverlap(t *testing.T) {
	f := func(sizes []uint8) bool {
		s := NewAddrSpace(3, 32)
		type rng struct{ lo, hi uint64 }
		var rs []rng
		for i, sz := range sizes {
			n := int(sz) + 1
			var a uint64
			switch i % 3 {
			case 0:
				a = s.AllocPrivate(i%3, n)
			case 1:
				a = s.AllocShared(n)
			case 2:
				a = s.AllocSharedOn(i%3, n)
			}
			rs = append(rs, rng{a, a + uint64(n)})
		}
		for i := range rs {
			if rs[i].lo%32 != 0 {
				return false // alignment violated
			}
			for j := i + 1; j < len(rs); j++ {
				if rs[i].lo < rs[j].hi && rs[j].lo < rs[i].hi {
					return false // overlap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// memEnv builds a single-proc engine+mem for accounting tests.
func memEnv(t *testing.T, body func(p *sim.Proc, m *Mem)) *stats.Acct {
	t.Helper()
	cfg := cost.Default(1)
	eng := sim.NewEngine(cfg.NetLatency)
	var acct *stats.Acct
	p := eng.AddProc(func(p *sim.Proc) {
		m := NewMem(p, &cfg, 1)
		body(p, m)
	})
	acct = p.Acct
	eng.Run()
	return acct
}

func TestPrivateMissCost(t *testing.T) {
	acct := memEnv(t, func(p *sim.Proc, m *Mem) {
		space := NewAddrSpace(1, 32)
		a := space.AllocPrivate(0, 4096)
		m.Read(a)     // miss: 11 + 10
		m.Read(a + 8) // hit within the block
		m.Write(a)    // hit (private lines are writable)
	})
	want := int64(11 + 10)
	if c := acct.Cycles(stats.PhaseDefault, stats.LocalMiss); c != want {
		t.Errorf("local miss cycles = %d, want %d", c, want)
	}
	if n := acct.Counts(stats.PhaseDefault, stats.CntLocalMisses); n != 1 {
		t.Errorf("local misses = %d, want 1", n)
	}
}

func TestTLBMissChargedOnce(t *testing.T) {
	acct := memEnv(t, func(p *sim.Proc, m *Mem) {
		space := NewAddrSpace(1, 32)
		a := space.AllocPrivate(0, 8192)
		m.Read(a)
		m.Read(a + 64) // same page: TLB hit, cache miss
		m.Read(a + 4096)
	})
	if n := acct.Counts(stats.PhaseDefault, stats.CntTLBMisses); n != 2 {
		t.Errorf("TLB misses = %d, want 2", n)
	}
	if c := acct.Cycles(stats.PhaseDefault, stats.TLBMiss); c != 60 {
		t.Errorf("TLB cycles = %d, want 60", c)
	}
}

func TestReadRangeWalksBlocks(t *testing.T) {
	acct := memEnv(t, func(p *sim.Proc, m *Mem) {
		space := NewAddrSpace(1, 32)
		a := space.AllocPrivate(0, 1<<16)
		m.ReadRange(a, 1000) // 1000 bytes = 32 blocks (31.25 rounded by cover)
	})
	if n := acct.Counts(stats.PhaseDefault, stats.CntLocalMisses); n != 32 {
		t.Errorf("misses = %d, want 32", n)
	}
}

func TestEvictionChargesReplacement(t *testing.T) {
	// Touch assoc+1 blocks mapping to one set; one must evict with the
	// 1-cycle write-buffer replacement.
	cfg := cost.Default(1)
	sets := cfg.Sets()
	acct := memEnv(t, func(p *sim.Proc, m *Mem) {
		space := NewAddrSpace(1, 32)
		a := space.AllocPrivate(0, 1<<24)
		for i := 0; i <= cfg.CacheAssoc; i++ {
			m.Read(a + uint64(i*sets*cfg.BlockBytes))
		}
	})
	miss := cfg.PrivateMissTotal()
	want := int64(cfg.CacheAssoc+1)*miss + cfg.MPReplacement
	if c := acct.Cycles(stats.PhaseDefault, stats.LocalMiss); c != want {
		t.Errorf("cycles = %d, want %d", c, want)
	}
}

func TestVecRoundTrip(t *testing.T) {
	memEnv(t, func(p *sim.Proc, m *Mem) {
		space := NewAddrSpace(1, 32)
		v := NewFVec(space.AllocPrivate(0, 80), 10)
		v.Set(m, 3, 2.5)
		if got := v.Get(m, 3); got != 2.5 {
			t.Errorf("FVec round trip = %v", got)
		}
		iv := NewIVec(space.AllocPrivate(0, 80), 10)
		iv.Set(m, 9, -7)
		if got := iv.Get(m, 9); got != -7 {
			t.Errorf("IVec round trip = %v", got)
		}
		if v.Addr(1)-v.Addr(0) != 8 {
			t.Error("element stride wrong")
		}
	})
}

func TestFlushBlockForgetsLine(t *testing.T) {
	acct := memEnv(t, func(p *sim.Proc, m *Mem) {
		space := NewAddrSpace(1, 32)
		a := space.AllocPrivate(0, 4096)
		m.Read(a)
		if !m.StepFlushBlock(a) {
			t.Fatal("flush inside the quantum did not complete")
		}
		m.Read(a) // must miss again
	})
	if n := acct.Counts(stats.PhaseDefault, stats.CntLocalMisses); n != 2 {
		t.Errorf("misses = %d, want 2", n)
	}
}

func TestStaleVecDeliversCachedValues(t *testing.T) {
	// StaleVec semantics: a reader sees the snapshot from its last miss,
	// not the globally freshest backing value, until its copy is dropped
	// and refetched.
	cfg := cost.Default(1)
	eng := sim.NewEngine(cfg.NetLatency)
	p := eng.AddProc(func(p *sim.Proc) {
		m := NewMem(p, &cfg, 1)
		space := NewAddrSpace(1, 32)
		// Place the vector in private space: no coherence, so the only
		// refresh trigger is a cache miss, which we force with a flush.
		g := NewFVec(space.AllocPrivate(0, 64), 8)
		sv := NewStaleVec(eng, &g, 1)

		sv.Set(m, 0, 1.0)
		if got := sv.Get(m, 0); got != 1.0 {
			t.Errorf("own write not visible: %v", got)
		}
		// Simulate another party updating the backing without this
		// processor's cache noticing.
		g.V[0] = 2.0
		if got := sv.Get(m, 0); got != 1.0 {
			t.Errorf("cached read = %v, want the stale 1.0", got)
		}
		// Refetches copy from the quantum-boundary image, so burn enough
		// cycles for a boundary to publish the new backing value first.
		p.Compute(2 * int64(eng.Quantum))
		// Drop the line: the next read misses and refreshes the snapshot.
		// Interact first, so the flush starts inside a quantum.
		p.Interact()
		if !m.StepFlushBlock(g.Addr(0)) {
			t.Fatal("flush inside the quantum did not complete")
		}
		if got := sv.Get(m, 0); got != 2.0 {
			t.Errorf("post-miss read = %v, want the fresh 2.0", got)
		}
	})
	_ = p
	eng.Run()
}

func TestWriteRetiresOnlyWithOwnership(t *testing.T) {
	// Private writes always succeed; the retry loop must not spin for
	// non-shared addresses.
	acct := memEnv(t, func(p *sim.Proc, m *Mem) {
		space := NewAddrSpace(1, 32)
		a := space.AllocPrivate(0, 64)
		m.Write(a)
		m.Write(a) // hit
	})
	if n := acct.Counts(stats.PhaseDefault, stats.CntLocalMisses); n != 1 {
		t.Errorf("misses = %d, want 1", n)
	}
}
