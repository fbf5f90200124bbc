package runner

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/apps/lcp"
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// appRun runs one app body on a prepared config and returns the result and
// the app's answer line.
type appRun func(cost.Config) (*machine.Result, string)

func em3dMP(run func(cost.Config, cmmd.Shape, em3d.Params) *em3d.Output) appRun {
	return func(cfg cost.Config) (*machine.Result, string) {
		par := em3d.DefaultParams()
		par.NodesPer, par.Iters = 8, 2
		out := run(cfg, cmmd.LopSided, par)
		return out.Res, fmt.Sprintf("maxErr=%.3g", out.MaxErr)
	}
}

func lcpMP(run func(cost.Config, cmmd.Shape, lcp.Params) *lcp.Output) appRun {
	return func(cfg cost.Config) (*machine.Result, string) {
		par := lcp.DefaultParams()
		par.N, par.MaxSteps = 1024, 3
		out := run(cfg, cmmd.LopSided, par)
		return out.Res, fmt.Sprintf("steps=%d residual=%.3g", out.Steps, out.Residual)
	}
}

// mpFormPairs are the MP app bodies that exist in both processor forms: the
// step form runs every lossless spec, the coroutine form runs under network
// faults. Sizes are kept small: the matrix below multiplies them by three
// processor counts and two worker counts, under the race detector. The
// -hw rows run the hardware combiner on both forms.
var mpFormPairs = []struct {
	name            string
	hw              bool
	coroutine, step appRun
}{
	{"em3d-mp", false, em3dMP(em3d.RunMP), em3dMP(em3d.RunMPStep)},
	{"lcp-mp", false, lcpMP(lcp.RunMP), lcpMP(lcp.RunMPStep)},
	{"em3d-mp-hw", true, em3dMP(em3d.RunMP), em3dMP(em3d.RunMPStep)},
	{"lcp-mp-hw", true, lcpMP(lcp.RunMP), lcpMP(lcp.RunMPStep)},
}

// runMPForm runs one form and returns its result, answer line and
// canonical stats bytes.
func runMPForm(run appRun, cfg cost.Config) (*machine.Result, string, []byte) {
	var mm *machine.MPMachine
	cfg.OnBuild = func(m any) { mm = m.(*machine.MPMachine) }
	res, line := run(cfg)
	var enc snapshot.Enc
	mm.EncodeStats(&enc)
	return res, line, enc.Bytes()
}

var (
	em3dSM = Spec{App: "em3d", Machine: "sm", Size: 8, Iters: 2}
	lcpSM  = Spec{App: "lcp", Machine: "sm", Size: 1024, Iters: 3}
)

func withHW(s Spec) Spec { s.HWCombining = true; return s }

func withSMFaults(s Spec) Spec {
	s.SMCheck, s.SMFaults = true, &cost.SMFaultsConfig{Seed: 7, NACKRate: 0.02, ReorderRate: 0.02}
	return s
}

// smFormGoldens are the SM rows: EM3D-SM and sync LCP-SM now exist only in
// step form, so each row's coroutine fingerprint, recorded while both forms
// existed and agreed (serial and Workers=4), stands in for the retired body.
// The -hw rows run the hardware combiner, the -faults rows coherence
// control faults with the checker armed.
var smFormGoldens = []struct {
	name string
	spec Spec
	want [3]uint64 // at P=16, 64, 256
}{
	{"em3d-sm", em3dSM, [3]uint64{0x94fa003b73e26c29, 0xabf52eb991af261b, 0x51aa595ed14e7d6f}},
	{"lcp-sm", lcpSM, [3]uint64{0x31c58edb12e4657, 0x3a959eb98d633a82, 0xa04e0030c7bedc9d}},
	{"em3d-sm-hw", withHW(em3dSM), [3]uint64{0x94fa003b73e26c29, 0xabf52eb991af261b, 0x51aa595ed14e7d6f}},
	{"lcp-sm-hw", withHW(lcpSM), [3]uint64{0x5f86e56200c3c97e, 0x676ff639912f5533, 0x5065241be913724e}},
	{"em3d-sm-faults", withSMFaults(em3dSM), [3]uint64{0xe5a7453a325c2756, 0xe86f71d349d2e520, 0xd20366e286c204b4}},
	{"lcp-sm-faults", withSMFaults(lcpSM), [3]uint64{0xd1a1a21797920e7d, 0xed88c784c965f59d, 0x4060f19a3b0aafd4}},
}

// TestStepFormEquivalence pins the cross-form determinism contract at
// several processor counts, serial and parallel. For every MP app body in
// both forms, the step form must produce bit-identical accounting (stats
// bytes, hence fingerprint, and the app's answer line) to the coroutine
// form. For the SM rows, the step form must reproduce the coroutine form's
// pinned fingerprint.
func TestStepFormEquivalence(t *testing.T) {
	procCounts := []int{16, 64, 256}
	for _, pair := range mpFormPairs {
		for _, procs := range procCounts {
			for _, workers := range []int{1, 4} {
				pair, procs, workers := pair, procs, workers
				t.Run(fmt.Sprintf("%s/p%d/w%d", pair.name, procs, workers), func(t *testing.T) {
					t.Parallel()
					cfg := cost.Default(procs)
					cfg.Workers = workers
					cfg.HWCombining = pair.hw

					co, coLine, coStats := runMPForm(pair.coroutine, cfg)
					if co.Err != nil {
						t.Fatalf("coroutine run aborted: %v", co.Err)
					}
					st, stLine, stStats := runMPForm(pair.step, cfg)
					if st.Err != nil {
						t.Fatalf("step run aborted: %v", st.Err)
					}

					if !bytes.Equal(stStats, coStats) {
						t.Errorf("fingerprint: step %#x, coroutine %#x",
							snapshot.Hash(stStats), snapshot.Hash(coStats))
					}
					if stLine != coLine {
						t.Errorf("app answer: step %q, coroutine %q", stLine, coLine)
					}
					if st.Elapsed != co.Elapsed {
						t.Errorf("elapsed: step %d, coroutine %d", st.Elapsed, co.Elapsed)
					}
				})
			}
		}
	}
	for _, row := range smFormGoldens {
		for i, procs := range procCounts {
			for _, workers := range []int{1, 4} {
				row, want, workers := row, row.want[i], workers
				spec := row.spec
				spec.Procs = procs
				t.Run(fmt.Sprintf("%s/p%d/w%d", row.name, procs, workers), func(t *testing.T) {
					t.Parallel()
					out, err := Run(spec, Options{Workers: workers})
					if err != nil || out.Res.Err != nil {
						t.Fatalf("run: %v / %v", err, out.Res.Err)
					}
					if out.Fingerprint != want {
						t.Errorf("fingerprint %#x, want the coroutine form's %#x", out.Fingerprint, want)
					}
					if spec.SMFaults != nil && out.Res.Summary.CountsAll(stats.CntNACKs) == 0 {
						t.Errorf("no NACKs recorded: the control faults never fired")
					}
				})
			}
		}
	}
}

// TestLegacyStepProcsAcceptedAsNoOp: "step_procs": true, which once chose
// the processor form, validates on every app, including those that never
// had a step body and a faulty network, and changes neither the cache key
// nor the fingerprint.
func TestLegacyStepProcsAcceptedAsNoOp(t *testing.T) {
	for _, s := range []Spec{
		{App: "mse", Machine: "sm", Procs: 4, Size: 16, Iters: 1},
		{App: "gauss", Machine: "mp", Procs: 4, Size: 32},
		{App: "alcp", Machine: "mp", Procs: 4, Size: 64, Iters: 2},
		{App: "alcp", Machine: "sm", Procs: 4, Size: 64, Iters: 2},
		{App: "em3d", Machine: "mp", Procs: 4, Size: 8, Iters: 2,
			Faults: &cost.FaultsConfig{Seed: 1, DropRate: 0.02}},
	} {
		legacy := s
		legacy.StepProcs = true
		name := s.App + "-" + s.Machine
		if err := legacy.Validate(); err != nil {
			t.Errorf("%s: step_procs rejected: %v", name, err)
			continue
		}
		if legacy.CacheKey() != s.CacheKey() {
			t.Errorf("%s: step_procs changed the cache key: %s vs %s", name, legacy.KeyString(), s.KeyString())
		}
		a, err := Run(s, Options{})
		if err != nil || a.Res.Err != nil {
			t.Fatalf("%s: run: %v / %v", name, err, a.Res.Err)
		}
		b, err := Run(legacy, Options{})
		if err != nil || b.Res.Err != nil {
			t.Fatalf("%s: run with step_procs: %v / %v", name, err, b.Res.Err)
		}
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: step_procs changed the fingerprint: %#x vs %#x", name, b.Fingerprint, a.Fingerprint)
		}
	}
}
