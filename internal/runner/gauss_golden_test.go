package runner

import (
	"fmt"
	"testing"

	"repro/internal/snapshot"
)

// gaussSMGoldens are the fingerprints of the Gauss-SM rows of
// EquivalenceMatrix. Gauss-SM runs only in step form; these values were
// recorded from the coroutine form while both forms existed and agreed
// (serial and Workers=4), so they are the oracle the step port answers to.
var gaussSMGoldens = map[string]uint64{
	"gauss-sm":        0x557a4952ec7c83a9,
	"gauss-sm-faults": 0xff4a62207a2d2c92,
	"gauss-sm-p64":    0x71eaafacc7a2f818,
}

func TestGaussSMGoldens(t *testing.T) {
	seen := 0
	for _, ns := range EquivalenceMatrix() {
		want, ok := gaussSMGoldens[ns.Name]
		if !ok {
			continue
		}
		seen++
		for _, workers := range []int{1, 4} {
			ns, workers := ns, workers
			t.Run(fmt.Sprintf("%s/w%d", ns.Name, workers), func(t *testing.T) {
				t.Parallel()
				out, err := Run(ns.Spec, Options{Workers: workers})
				if err != nil || out.Res.Err != nil {
					t.Fatalf("run: %v / %v", err, out.Res.Err)
				}
				if out.Fingerprint != want {
					t.Errorf("fingerprint %#x, want %#x", out.Fingerprint, want)
				}
			})
		}
	}
	if seen != len(gaussSMGoldens) {
		t.Fatalf("matched %d of %d golden rows in EquivalenceMatrix", seen, len(gaussSMGoldens))
	}
}

// TestGaussSMResumesCoroutineSnapshot resumes checkpoints written by the
// coroutine form of Gauss-SM (their specs carry no step_procs): one taken
// while a row write of the fill phase is in flight, which pins when the
// host-side matrix mutates relative to the simulated accesses, and one
// mid-elimination. Each must replay-verify under the step form and finish
// with the coroutine run's fingerprint. Written with `wwtsim -app gauss
// -machine sm -procs 2 -size 16 -cache 4096 -checkpoint-every 1000`.
func TestGaussSMResumesCoroutineSnapshot(t *testing.T) {
	const want = 0x121f542edce94c6d
	for _, file := range []string{"gauss-sm-coroutine-2000.wws", "gauss-sm-coroutine-60000.wws"} {
		snap, err := snapshot.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		sp, err := SpecFromSnapshot(snap)
		if err != nil {
			t.Fatalf("%s: spec from snapshot: %v", file, err)
		}
		if sp.StepProcs {
			t.Fatalf("%s: spec carries step_procs", file)
		}
		for _, workers := range []int{1, 4} {
			out, err := Run(*sp, Options{Resume: snap, Workers: workers})
			if err != nil {
				t.Fatalf("%s w%d: resume: %v", file, workers, err)
			}
			if !out.Verified {
				t.Fatalf("%s w%d: resume never verified", file, workers)
			}
			if out.Fingerprint != want {
				t.Errorf("%s w%d: fingerprint %#x, want %#x", file, workers, out.Fingerprint, want)
			}
		}
	}
}
