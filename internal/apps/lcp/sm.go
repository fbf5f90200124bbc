package lcp

import (
	"math"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/parmacs"
	"repro/internal/snapshot"
)

// RunASM runs the asynchronous variant (ALCP-SM): new values are written
// directly into the global solution vector as they are computed, so other
// processors see them as soon as the coherence protocol delivers them;
// processors synchronize only every Sweeps sweeps for the convergence test.
func RunASM(cfg cost.Config, par Params) *Output {
	out := &Output{}
	pr := genProblem(par)
	procs := cfg.Procs
	rpp := rowsPerProc(par.N, procs)

	var (
		zg    memsim.FVec // the global solution vector
		stale *memsim.StaleVec
		red   *parmacs.Reduction
		done  memsim.IVec // convergence decision published by node 0
	)

	out.Res = machine.RunSM(cfg, parmacs.RoundRobin, func(nd *machine.SMNode) {
		me := nd.ID
		lo := me * rpp
		m := nd.Mem

		if me == 0 {
			zg = nd.RT.GMallocF(0, par.N)
			stale = memsim.NewStaleVec(nd.P.Engine(), &zg, procs)
			done = nd.RT.GMallocI(0, 1)
			red = parmacs.NewReduction(nd.RT)
			nd.RT.Create(nd.P)
		} else {
			nd.RT.WaitCreate(nd.P)
		}
		nd.Barrier()

		// Private matrix rows and workspaces. zloc is never used here: it is
		// the synchronous variant's local copy, kept so ALCP-SM's private
		// address layout and snapshot state match that variant's (and every
		// checkpoint and fingerprint recorded with it).
		mvals := nd.AllocF(rpp * par.NNZ)
		mcols := nd.AllocI(rpp * par.NNZ)
		zloc := nd.AllocF(par.N)
		zprev := nd.AllocF(rpp)
		nd.OnState(func(enc *snapshot.Enc) {
			if me == 0 { // shared vectors, encoded once
				enc.F64s(zg.V)
				enc.I64s(done.V)
			}
			enc.F64s(zloc.V)
			enc.F64s(zprev.V)
		})
		for r := 0; r < rpp; r++ {
			gi := lo + r
			copy(mvals.V[r*par.NNZ:], pr.vals[gi])
			for k, c := range pr.cols[gi] {
				mcols.V[r*par.NNZ+k] = int64(c)
			}
			nd.Compute(int64(cSetup * par.NNZ))
		}
		mvals.WriteRange(m, 0, mvals.Len())
		mcols.WriteRange(m, 0, mcols.Len())
		// Initialize my portion of the global vector.
		zg.WriteRange(m, lo, lo+rpp)
		nd.Barrier()

		steps := 0
		for step := 1; step <= par.MaxSteps; step++ {
			steps = step
			for r := 0; r < rpp; r++ {
				zprev.V[r] = zg.V[lo+r]
			}
			zprev.WriteRange(m, 0, rpp)

			// Sweep directly against the global vector: every remote
			// reference is a real shared access, invalidated afresh by each
			// producer — the producer-consumer pattern the invalidation
			// protocol handles so poorly.
			for sweep := 0; sweep < par.Sweeps; sweep++ {
				for r := 0; r < rpp; r++ {
					gi := lo + r
					mvals.ReadRange(m, r*par.NNZ, (r+1)*par.NNZ)
					mcols.ReadRange(m, r*par.NNZ, (r+1)*par.NNZ)
					// Values from other processors arrive with cache
					// staleness: each read sees what the cache holds,
					// refreshed only when an invalidation forced a miss.
					zi := stale.Get(m, gi)
					acc := pr.q[gi] + pr.diag[gi]*zi
					for k, c := range pr.cols[gi] {
						acc += pr.vals[gi][k] * stale.Get(m, int(c))
					}
					nz := zi - par.Omega*acc/pr.diag[gi]
					if nz < 0 {
						nz = 0
					}
					stale.Set(m, gi, nz)
					nd.Compute(cRow + int64(par.NNZ)*cElem)
				}
			}
			nd.Compute(cStep)

			// Convergence test (paper: synchronize every five iterations in
			// the asynchronous version — i.e. once per step).
			norm := 0.0
			for r := 0; r < rpp; r++ {
				norm += math.Abs(zg.V[lo+r] - zprev.V[r])
			}
			zprev.ReadRange(m, 0, rpp)
			nd.Compute(int64(rpp) * cNorm)
			total, _ := red.Reduce(m, norm, 0, parmacs.OpSum, parmacs.SyncCats)
			if me == 0 {
				d := int64(0)
				if total < par.Tol {
					d = 1
				}
				done.Set(m, 0, d)
			}
			nd.Barrier()
			if done.Get(m, 0) != 0 {
				break
			}
		}
		nd.Barrier()
		if me == 0 {
			out.Steps = steps
		}
	})

	if out.Res.Err == nil {
		zfinal := append([]float64(nil), zg.V...)
		out.Z = zfinal
		out.Residual = pr.validate(zfinal)
	}
	return out
}
