package gauss

import (
	"math"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// smShared is the shared problem state established by node 0.
type smShared struct {
	A     memsim.FVec // the whole augmented matrix, rows blockwise
	x     memsim.FVec // the solution vector
	pvVal memsim.FVec // published pivot value
	pvIdx memsim.IVec // published pivot global row
	red   *parmacs.Reduction
}

// RunSM runs Gauss-SM: the shared-memory version the authors wrote from
// the message-passing code. Pivot selection uses an MCS-style software
// reduction; broadcasts happen "by letting all processors read it" — the
// writer publishes into shared memory, everyone waits at a barrier, then
// reads (incurring the directory contention the paper measures).
//
// Each node runs as a step (continuation) state machine with one
// program-counter state per simulated interaction: every access, barrier
// and reduction suspends where a sequential program would.
func RunSM(cfg cost.Config, par Params) *Output {
	out := &Output{}
	rpp := rowsPerProc(par.N, cfg.Procs)
	var sh smShared
	out.Res = machine.NewSMStep(cfg, parmacs.RoundRobin, func(nd *machine.SMNode) func(*sim.Proc) sim.StepStatus {
		return newSMStep(nd, par, rpp, out, &sh).step
	}).Run()
	return out
}

// Program-counter states of the Gauss-SM step machine, in program order.
const (
	gsCreate = iota
	gsBarrier0
	gsFillRow // load row r into the backing store (host side)
	gsFillWrite
	gsFillMask
	gsBarrier1
	gsScanMask // forward elimination, column k: pivot candidates
	gsScanElem
	gsReduce
	gsPubVal
	gsPubIdx
	gsBarrier2
	gsReadIdx
	gsReadVal
	gsRetire
	gsElimMask
	gsElimFactor
	gsElimPivRow
	gsElimMyRow
	gsElimWrite
	gsBackOwner // backward substitution, unknown k
	gsBackOwnerRHS
	gsBackOwnerDiag
	gsBackSetX
	gsBarrier3
	gsBackReadX
	gsBackMask
	gsBackRHS
	gsBackCoef
	gsBackSet
	gsBarrier4
	gsGather
)

type smStep struct {
	nd    *machine.SMNode
	par   Params
	rpp   int
	lo    int
	width int
	out   *Output
	sh    *smShared

	mask        memsim.IVec // private retirement mask, as in the paper
	pivotOfStep []int

	pc      int
	k       int
	r       int
	best    float64
	bestRow int64
	rv      float64
	ri      int64
	gr      int     // pivot row of column k
	piv     float64 // pivot element
	f       float64 // elimination factor of row r
	rhs     float64
	xk      float64

	rds parmacs.RedStep
}

// newSMStep does the host-side setup at the node's first dispatch. Node 0
// also establishes the shared structures here; other nodes touch sh only
// after their StepWaitCreate completes, which node 0's Create must precede.
func newSMStep(nd *machine.SMNode, par Params, rpp int, out *Output, sh *smShared) *smStep {
	n := par.N
	s := &smStep{nd: nd, par: par, rpp: rpp, lo: nd.ID * rpp, width: n + 1,
		out: out, sh: sh, pivotOfStep: make([]int, n)}
	if nd.ID == 0 {
		sh.A = nd.RT.GMallocFSized(0, n*s.width, elemBytes)
		sh.x = nd.RT.GMallocFSized(0, n, elemBytes)
		sh.pvVal = nd.RT.GMallocF(0, 1)
		sh.pvIdx = nd.RT.GMallocI(0, 1)
		sh.red = parmacs.NewReduction(nd.RT)
	}
	s.mask = nd.AllocI(rpp)
	return s
}

func (s *smStep) step(p *sim.Proc) sim.StepStatus {
	nd, sh := s.nd, s.sh
	m := nd.Mem
	me := nd.ID
	n, rpp, lo, width := s.par.N, s.rpp, s.lo, s.width
	A := &sh.A
	for {
		switch s.pc {
		case gsCreate:
			if me == 0 {
				nd.RT.Create(p)
			} else if !nd.RT.StepWaitCreate(p) {
				return sim.StepYield
			}
			s.pc = gsBarrier0
		case gsBarrier0:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			// The same simulated point as the sequential program's
			// registration, so snapshots encode identical state.
			nd.OnState(func(enc *snapshot.Enc) {
				if me == 0 { // shared vectors, encoded once
					enc.F64s(sh.A.V)
					enc.F64s(sh.x.V)
					enc.F64s(sh.pvVal.V)
					enc.I64s(sh.pvIdx.V)
				}
				enc.I64s(s.mask.V)
			})
			s.r = 0
			s.pc = gsFillRow

		// Each processor fills its own rows of the shared matrix.
		case gsFillRow:
			if s.r >= rpp {
				s.pc = gsBarrier1
				continue
			}
			base := (lo + s.r) * width
			copy(A.V[base:base+width], genRow(s.par.Seed, lo+s.r, n))
			s.pc = gsFillWrite
		case gsFillWrite:
			base := (lo + s.r) * width
			if !A.StepWriteRange(m, base, base+width) {
				return sim.StepYield
			}
			nd.Compute(int64(cFill * width))
			s.pc = gsFillMask
		case gsFillMask:
			if !s.mask.StepSet(m, s.r, -1) {
				return sim.StepYield
			}
			s.r++
			s.pc = gsFillRow
		case gsBarrier1:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.k = 0
			s.startColumn()

		// Forward elimination: pivot selection over my unretired rows.
		case gsScanMask:
			if s.r >= rpp {
				s.pc = gsReduce
				continue
			}
			v, ok := s.mask.StepGet(m, s.r)
			if !ok {
				return sim.StepYield
			}
			if v >= 0 {
				s.r++
				continue
			}
			s.pc = gsScanElem
		case gsScanElem:
			v, ok := A.StepGet(m, (lo+s.r)*width+s.k)
			if !ok {
				return sim.StepYield
			}
			if math.Abs(v) > math.Abs(s.best) || s.bestRow < 0 {
				s.best, s.bestRow = v, int64(lo+s.r)
			}
			nd.Compute(cScan)
			s.r++
			s.pc = gsScanMask
		case gsReduce:
			rv, ri, ok := sh.red.StepReduce(&s.rds, m, s.best, s.bestRow, parmacs.OpMaxAbs, parmacs.GaussCats)
			if !ok {
				return sim.StepYield
			}
			s.rv, s.ri = rv, ri
			s.pc = gsBarrier2
			if me == 0 {
				s.pc = gsPubVal
			}
		case gsPubVal:
			if !sh.pvVal.StepSet(m, 0, s.rv) {
				return sim.StepYield
			}
			s.pc = gsPubIdx
		case gsPubIdx:
			if !sh.pvIdx.StepSet(m, 0, s.ri) {
				return sim.StepYield
			}
			s.pc = gsBarrier2
		case gsBarrier2:
			// Everyone waits until the write completes, then reads the
			// published pivot (hardware-speed broadcast via invalidation,
			// with read requests contending at the directory).
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.pc = gsReadIdx
		case gsReadIdx:
			pidx, ok := sh.pvIdx.StepGet(m, 0)
			if !ok {
				return sim.StepYield
			}
			s.gr = int(pidx)
			s.pc = gsReadVal
		case gsReadVal:
			if _, ok := sh.pvVal.StepGet(m, 0); !ok {
				return sim.StepYield
			}
			s.pivotOfStep[s.k] = s.gr
			nd.Compute(cPivot)
			if me == s.gr/rpp {
				s.pc = gsRetire
				continue
			}
			s.startElim()
		case gsRetire:
			if !s.mask.StepSet(m, s.gr-lo, int64(s.k)) {
				return sim.StepYield
			}
			s.startElim()

		// Eliminate, reading the pivot row directly from shared memory.
		case gsElimMask:
			if s.r >= rpp {
				// No trailing barrier: the next column's reduction cannot
				// complete until every processor has contributed, i.e.
				// finished this column's elimination — the reduction
				// itself is the synchronization.
				s.k++
				if s.k < n {
					s.startColumn()
				} else {
					s.k = n - 1
					s.pc = gsBackOwner
				}
				continue
			}
			v, ok := s.mask.StepGet(m, s.r)
			if !ok {
				return sim.StepYield
			}
			if v >= 0 {
				s.r++
				continue
			}
			s.pc = gsElimFactor
		case gsElimFactor:
			a, ok := A.StepGet(m, (lo+s.r)*width+s.k)
			if !ok {
				return sim.StepYield
			}
			s.f = a / s.piv
			nd.Compute(cDiv + cRow)
			s.pc = gsElimPivRow
		case gsElimPivRow:
			pbase := s.gr * width
			if !A.StepReadRange(m, pbase+s.k, pbase+width) {
				return sim.StepYield
			}
			s.pc = gsElimMyRow
		case gsElimMyRow:
			base := (lo + s.r) * width
			if !A.StepReadRange(m, base+s.k, base+width) {
				return sim.StepYield
			}
			pbase := s.gr * width
			for j := s.k; j < width; j++ {
				A.V[base+j] -= s.f * A.V[pbase+j]
			}
			s.pc = gsElimWrite
		case gsElimWrite:
			base := (lo + s.r) * width
			if !A.StepWriteRange(m, base+s.k, base+width) {
				return sim.StepYield
			}
			nd.Compute(int64(cElim * (width - s.k)))
			s.r++
			s.pc = gsElimMask

		// Backward substitution: owners publish unknowns into the shared x
		// vector; a barrier orders each write before the reads.
		case gsBackOwner:
			if s.k < 0 {
				s.pc = gsBarrier4
				continue
			}
			s.pc = gsBarrier3
			if me == s.pivotOfStep[s.k]/rpp {
				s.pc = gsBackOwnerRHS
			}
		case gsBackOwnerRHS:
			v, ok := A.StepGet(m, s.pivotOfStep[s.k]*width+n)
			if !ok {
				return sim.StepYield
			}
			s.rhs = v
			s.pc = gsBackOwnerDiag
		case gsBackOwnerDiag:
			d, ok := A.StepGet(m, s.pivotOfStep[s.k]*width+s.k)
			if !ok {
				return sim.StepYield
			}
			s.xk = s.rhs / d
			nd.Compute(cDiv)
			s.pc = gsBackSetX
		case gsBackSetX:
			if !sh.x.StepSet(m, s.k, s.xk) {
				return sim.StepYield
			}
			s.pc = gsBarrier3
		case gsBarrier3:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			s.pc = gsBackReadX
		case gsBackReadX:
			xk, ok := sh.x.StepGet(m, s.k)
			if !ok {
				return sim.StepYield
			}
			s.xk = xk
			s.r = 0
			s.pc = gsBackMask
		case gsBackMask:
			if s.r >= rpp {
				s.k--
				s.pc = gsBackOwner
				continue
			}
			v, ok := s.mask.StepGet(m, s.r)
			if !ok {
				return sim.StepYield
			}
			if int(v) >= s.k {
				s.r++
				continue
			}
			s.pc = gsBackRHS
		case gsBackRHS:
			v, ok := A.StepGet(m, (lo+s.r)*width+n)
			if !ok {
				return sim.StepYield
			}
			s.rhs = v
			s.pc = gsBackCoef
		case gsBackCoef:
			c, ok := A.StepGet(m, (lo+s.r)*width+s.k)
			if !ok {
				return sim.StepYield
			}
			s.rhs -= c * s.xk
			s.pc = gsBackSet
		case gsBackSet:
			if !A.StepSet(m, (lo+s.r)*width+n, s.rhs) {
				return sim.StepYield
			}
			nd.Compute(cBack)
			s.r++
			s.pc = gsBackMask
		case gsBarrier4:
			if !nd.RT.StepBarrier(p) {
				return sim.StepYield
			}
			if me != 0 {
				return sim.StepDone
			}
			s.pc = gsGather
		case gsGather:
			if !sh.x.StepReadRange(m, 0, n) {
				return sim.StepYield
			}
			s.out.validate(append([]float64(nil), sh.x.V...))
			return sim.StepDone
		}
	}
}

// startColumn begins forward-elimination column k's pivot scan.
func (s *smStep) startColumn() {
	s.best, s.bestRow = 0, -1
	s.r = 0
	s.pc = gsScanMask
}

// startElim begins column k's row updates against pivot row gr.
func (s *smStep) startElim() {
	s.piv = s.sh.A.V[s.gr*s.width+s.k]
	s.r = 0
	s.pc = gsElimMask
}
