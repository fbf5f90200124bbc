package runner

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/snapshot"
)

// This file defines the canonical identity of a run: two Specs that provably
// build the identical machine and program must map to the same cache key, so
// a content-addressed result cache (internal/serve) is sound by construction
// — the simulator is deterministic, so equal keys imply bit-identical stats.

// Normalized returns the spec in canonical form: default knob spellings are
// collapsed to their zero values, and knobs the named machine/app ignores
// are cleared. Two specs describe the same run iff their normalized forms
// are equal; Normalized never changes what a spec runs (Config and runApp
// treat the normalized and original forms identically).
func (s Spec) Normalized() Spec {
	n := s
	// Default spellings: shape() maps "" and "lopsided" to the same tree,
	// policy() maps "" and "rr" to round-robin, and Config leaves the
	// paper-default cache size alone whether it is 0 or spelled out.
	if n.Shape == "lopsided" {
		n.Shape = ""
	}
	if n.Policy == "rr" {
		n.Policy = ""
	}
	if n.CacheBytes == cost.Default(n.Procs).CacheBytes {
		n.CacheBytes = 0
	}
	// Knobs no code path reads for this configuration: the network shape
	// only reaches MP machines, and the allocation policy only reaches
	// EM3D-SM (see runApp).
	if n.Machine == "sm" {
		n.Shape = ""
	}
	if !(n.Machine == "sm" && n.App == "em3d") {
		n.Policy = ""
	}
	// The deprecated processor-form field: nothing reads it.
	n.StepProcs = false
	return n
}

// cacheKeyVersion tags the key encoding; bump it whenever the Spec fields
// or their encoding change so stale cache entries miss instead of aliasing.
const cacheKeyVersion = "wwt-spec-key-v2"

// CacheKey returns the content address of the run this spec describes: the
// FNV-1a hash of a canonical fixed-order encoding of the normalized spec.
// It deliberately does not hash the spec's JSON (field order, omitted
// defaults, and unknown fields would all perturb it).
func (s Spec) CacheKey() uint64 {
	n := s.Normalized()
	var e snapshot.Enc
	e.Str(cacheKeyVersion)
	e.Str(n.App)
	e.Str(n.Machine)
	e.I64(int64(n.Procs))
	e.I64(int64(n.CacheBytes))
	e.Str(n.Shape)
	e.Str(n.Policy)
	e.I64(int64(n.Size))
	e.I64(int64(n.Iters))
	e.Bool(n.Faults != nil)
	if f := n.Faults; f != nil {
		e.U64(f.Seed)
		e.F64(f.DropRate)
		e.F64(f.DupRate)
		e.F64(f.CorruptRate)
		e.F64(f.DelayRate)
		e.I64(f.MaxDelay)
		e.I64(f.RTO)
		e.I64(f.RTOMax)
		e.I64(int64(f.MaxRetries))
		e.I64(int64(f.Window))
	}
	e.Bool(n.SMCheck)
	e.Bool(n.SMFaults != nil)
	if f := n.SMFaults; f != nil {
		e.U64(f.Seed)
		e.F64(f.NACKRate)
		e.F64(f.ReorderRate)
		e.F64(f.DelayRate)
		e.I64(f.MaxDelay)
		e.I64(f.Backoff)
		e.I64(f.BackoffMax)
		e.I64(int64(f.RetryBudget))
	}
	e.I64(n.SMWatchdog)
	e.Bool(n.HWCombining)
	return snapshot.Hash(e.Bytes())
}

// KeyString is CacheKey rendered as the fixed-width hex form used in file
// names, job records, and the HTTP API.
func (s Spec) KeyString() string { return fmt.Sprintf("%016x", s.CacheKey()) }
