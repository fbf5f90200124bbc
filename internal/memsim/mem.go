package memsim

import (
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SharedHandler is implemented by the shared-memory machine's coherence
// layer. Mem routes every access to a shared-segment address that cannot be
// satisfied by the local cache through this interface. Handlers manipulate
// the cache themselves (insertion, state changes, victim handling) and
// charge/stall the processor per the protocol.
type SharedHandler interface {
	// ReadMiss obtains a readable copy of block for m's processor.
	ReadMiss(m *Mem, block uint64)
	// WriteAccess obtains a writable copy. resident is the block's current
	// local state: Shared means an upgrade (a write fault in the paper's
	// terms), Invalid a full write miss.
	WriteAccess(m *Mem, block uint64, resident uint8)
	// Evict performs replacement bookkeeping when a shared block is chosen
	// as a victim (writeback of dirty data, replacement cost). The
	// replacement cycles are charged to cat, the category of the miss that
	// forced the eviction.
	Evict(m *Mem, victim Line, cat stats.Category)
	// Flush performs an explicit software flush of a shared line: unlike a
	// silent capacity eviction, it sends the directory a replacement hint
	// so the line leaves the copyset (the paper's §5.3.4 optimization —
	// one message instead of a later invalidation round trip).
	Flush(m *Mem, victim Line, cat stats.Category)
}

// StepSharedHandler is the step-processor face of a coherence layer: each
// method begins or resumes a miss transaction without suspending a
// goroutine. A false return means the requesting processor blocked (the
// step must return sim.StepYield); the re-invocation that finds a wake
// pending consumes it and finishes the transaction. Implemented by
// coherence.Protocol.
type StepSharedHandler interface {
	SharedHandler
	// StepReadMiss begins/resumes fetching a readable copy of block.
	StepReadMiss(m *Mem, block uint64) bool
	// StepWriteAccess begins/resumes obtaining a writable copy.
	StepWriteAccess(m *Mem, block uint64, resident uint8) bool
}

// Mem is one processor's memory-system front end: TLB + cache + (on the
// shared-memory machine) the coherence handler. Cache hits are free —
// instruction time lives in the applications' calibrated computation
// constants — so only misses, write faults, and TLB refills charge cycles,
// mirroring the paper's accounting.
type Mem struct {
	P      *sim.Proc
	Cfg    *cost.Config
	Cache  *Cache
	TLB    *TLB
	Shared SharedHandler // nil on the message-passing machine

	// Refs counts simulated references (reads+writes), for tests.
	Refs int64

	// stepSh caches the Shared handler's step interface (step form only).
	stepSh StepSharedHandler
	// stepRange is the resumable cursor of an in-progress Step*Range walk:
	// the next block address to access. Step processors are serial, so one
	// cursor per Mem suffices.
	stepRange   uint64
	stepRangeOn bool
}

// NewMem builds the memory system for proc p. rngSeed feeds the cache's
// random-replacement generator.
func NewMem(p *sim.Proc, cfg *cost.Config, rngSeed uint64) *Mem {
	return &Mem{
		P:     p,
		Cfg:   cfg,
		Cache: NewCache(cfg.CacheBytes, cfg.CacheAssoc, cfg.BlockBytes, sim.NewRNG(rngSeed)),
		TLB:   NewTLB(cfg.TLBEntries, cfg.PageBytes),
	}
}

func (m *Mem) translate(addr uint64) {
	if !m.TLB.Access(addr) {
		m.P.ChargeStall(stats.TLBMiss, m.Cfg.TLBMissCycles)
		m.P.Acct.Add(stats.CntTLBMisses, 1)
	}
}

// Read simulates a load from addr.
func (m *Mem) Read(addr uint64) { m.ReadTrack(addr) }

// ReadTrack simulates a load and reports whether it missed in the cache —
// staleness-aware data structures use this to refresh their block snapshot
// exactly when real hardware would observe new values.
func (m *Mem) ReadTrack(addr uint64) bool {
	m.P.Interact()
	m.Refs++
	m.translate(addr)
	block := m.Cache.BlockOf(addr)
	if m.Cache.Lookup(block) != Invalid {
		return false // hit
	}
	if m.Shared != nil && IsShared(addr) {
		m.Shared.ReadMiss(m, block)
		return true
	}
	m.privateMiss(block)
	return true
}

// Write simulates a store to addr. A store to shared data retires only
// while the line is held Modified: if ownership is stolen (a downgrade or
// invalidation racing in) between the grant and the processor resuming, the
// store re-acquires ownership — the retry sequentially consistent hardware
// performs.
func (m *Mem) Write(addr uint64) {
	m.P.Interact()
	m.Refs++
	m.translate(addr)
	block := m.Cache.BlockOf(addr)
	for {
		st := m.Cache.Lookup(block)
		if st == Modified {
			return // write permission held; the store retires
		}
		if m.Shared != nil && IsShared(addr) {
			m.Shared.WriteAccess(m, block, st)
			continue // verify ownership survived until retirement
		}
		m.privateMiss(block)
		return
	}
}

// privateMiss services a miss to private/local data: Table 1's 11 cycles +
// DRAM + replacement cost if a block is replaced. Private lines are
// inserted Modified (writable; dirtiness does not change private
// replacement cost on either machine).
func (m *Mem) privateMiss(block uint64) {
	cat, cnt := m.P.MissCategory()
	cost := m.Cfg.PrivateMissCycles + m.Cfg.DRAMCycles
	victim := m.Cache.Insert(block, Modified)
	if victim.State != Invalid {
		if m.Shared != nil && IsShared(victim.Tag<<m.Cache.BlockShift()) {
			m.Shared.Evict(m, victim, cat)
		} else {
			cost += m.privReplCost()
		}
	}
	m.P.ChargeStall(cat, cost)
	m.P.Acct.Add(cnt, 1)
}

func (m *Mem) privReplCost() int64 {
	if m.Shared != nil {
		return m.Cfg.ReplPrivate
	}
	return m.Cfg.MPReplacement
}

// ReadRange simulates streaming loads over [addr, addr+bytes). One access
// per cache block is simulated — exact for timing, since within-block hits
// are free.
func (m *Mem) ReadRange(addr uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	bs := uint64(m.Cfg.BlockBytes)
	end := addr + uint64(bytes)
	for a := addr &^ (bs - 1); a < end; a += bs {
		m.Read(a)
	}
}

// WriteRange simulates streaming stores over [addr, addr+bytes).
func (m *Mem) WriteRange(addr uint64, bytes int) {
	if bytes <= 0 {
		return
	}
	bs := uint64(m.Cfg.BlockBytes)
	end := addr + uint64(bytes)
	for a := addr &^ (bs - 1); a < end; a += bs {
		m.Write(a)
	}
}

// Step-processor access forms. Each mirrors its coroutine twin exactly:
// the StepInteract check sits where the coroutine's Interact sits, every
// charge lands at the same clock, and a blocking shared miss suspends at
// the same point — so the two forms produce bit-identical statistics at
// every quantum boundary. A false return means "not done, nothing further
// mutated": the step returns sim.StepYield and re-invokes the same call
// with the same arguments when redispatched.

// stepShared returns the coherence layer's step interface, caching the
// assertion. Panics if the attached handler has no step form.
func (m *Mem) stepShared() StepSharedHandler {
	if m.stepSh == nil {
		m.stepSh = m.Shared.(StepSharedHandler)
	}
	return m.stepSh
}

// StepRead is Read for step processors.
func (m *Mem) StepRead(addr uint64) bool {
	done, _ := m.StepReadTrack(addr)
	return done
}

// StepReadTrack is ReadTrack for step processors: done reports whether the
// access completed, and missed (valid only when done) whether it missed.
// A resumed access always reports missed — only a shared miss blocks.
func (m *Mem) StepReadTrack(addr uint64) (done, missed bool) {
	p := m.P
	if p.WakePending() {
		// Resuming the shared-miss transaction this access issued.
		if !m.stepShared().StepReadMiss(m, m.Cache.BlockOf(addr)) {
			return false, true
		}
		return true, true
	}
	if !p.StepInteract() {
		return false, false
	}
	m.Refs++
	m.translate(addr)
	block := m.Cache.BlockOf(addr)
	if m.Cache.Lookup(block) != Invalid {
		return true, false // hit
	}
	if m.Shared != nil && IsShared(addr) {
		m.stepShared().StepReadMiss(m, block) // issues and blocks
		return false, true
	}
	m.privateMiss(block)
	return true, true
}

// StepWrite is Write for step processors, preserving the ownership-retry
// loop: after a grant the line is re-checked, and a stolen line re-acquires
// ownership exactly as the coroutine form does.
func (m *Mem) StepWrite(addr uint64) bool {
	p := m.P
	block := m.Cache.BlockOf(addr)
	if p.WakePending() {
		if !m.stepShared().StepWriteAccess(m, block, Invalid) {
			return false
		}
		// Grant installed; verify ownership survived until retirement.
	} else {
		if !p.StepInteract() {
			return false
		}
		m.Refs++
		m.translate(addr)
	}
	for {
		st := m.Cache.Lookup(block)
		if st == Modified {
			return true
		}
		if m.Shared != nil && IsShared(addr) {
			m.stepShared().StepWriteAccess(m, block, st) // issues and blocks
			return false
		}
		m.privateMiss(block)
		return true
	}
}

// StepReadRange is ReadRange for step processors: the block cursor is held
// in the Mem, so a blocked access resumes mid-range.
func (m *Mem) StepReadRange(addr uint64, bytes int) bool {
	return m.stepRangeWalk(addr, bytes, false)
}

// StepWriteRange is WriteRange for step processors.
func (m *Mem) StepWriteRange(addr uint64, bytes int) bool {
	return m.stepRangeWalk(addr, bytes, true)
}

func (m *Mem) stepRangeWalk(addr uint64, bytes int, write bool) bool {
	if bytes <= 0 {
		return true
	}
	bs := uint64(m.Cfg.BlockBytes)
	end := addr + uint64(bytes)
	if !m.stepRangeOn {
		m.stepRangeOn = true
		m.stepRange = addr &^ (bs - 1)
	}
	for m.stepRange < end {
		if write {
			if !m.StepWrite(m.stepRange) {
				return false
			}
		} else {
			if !m.StepRead(m.stepRange) {
				return false
			}
		}
		m.stepRange += bs
	}
	m.stepRangeOn = false
	return true
}

// StepFlushBlock removes a block containing addr from the cache (the
// software flush optimization discussed in the paper's EM3D section).
// Dirty shared victims write back through the coherence handler. Flushes
// never block (dirty writebacks travel as staged events), so the only
// suspension point is the entry Interact.
func (m *Mem) StepFlushBlock(addr uint64) bool {
	if !m.P.StepInteract() {
		return false
	}
	block := m.Cache.BlockOf(addr)
	st := m.Cache.Lookup(block)
	if st == Invalid {
		return true
	}
	line := Line{Tag: block, State: st}
	m.Cache.Invalidate(block)
	if m.Shared != nil && IsShared(addr) {
		cat, _ := m.P.MissCategory()
		m.Shared.Flush(m, line, cat)
	}
	return true
}
