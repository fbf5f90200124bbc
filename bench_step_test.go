// BenchmarkStepApp measures whole-app host cost in both processor forms at
// the scaling-study machine sizes: one benchmark op is one complete
// serial-dispatch run of EM3D-MP (the step-port flagship) at P=256 or
// P=1024, as a coroutine machine (em3d.RunMP, the body that runs under
// network faults) and as a step machine (em3d.RunMPStep, the body every
// lossless spec runs). The two forms simulate bit-identical runs
// (TestStepFormEquivalence pins it), so the ns/op ratio reads directly as
// the host-side win of continuation dispatch over goroutine dispatch.
// Budgets in scripts/bench_budgets.json gate the allocs/op of all four
// rows.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/cmmd"
	"repro/internal/cost"
)

func BenchmarkStepApp(b *testing.B) {
	forms := []struct {
		name string
		run  func(cost.Config, cmmd.Shape, em3d.Params) *em3d.Output
	}{
		{"coroutine", em3d.RunMP},
		{"step", em3d.RunMPStep},
	}
	for _, procs := range []int{256, 1024} {
		for _, form := range forms {
			// The scaling study's em3d spec (scalingSpec): 8 nodes per
			// processor, 2 iterations.
			par := em3d.DefaultParams()
			par.NodesPer, par.Iters = 8, 2
			b.Run(fmt.Sprintf("%s-%04d", form.name, procs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg := cost.Default(procs)
					cfg.Workers = 1
					if out := form.run(cfg, cmmd.LopSided, par); out.Res.Err != nil {
						b.Fatal(out.Res.Err)
					}
				}
			})
		}
	}
}
