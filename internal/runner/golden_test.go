package runner

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/snapshot"
)

// The goldens below are the oracle for every app body that now exists in
// one processor form only. Each value was recorded from the coroutine form
// while both forms existed and agreed (serial and Workers=4), so a step
// port answers to the retired body, not to itself.

// goldenRow is one pinned run: a spec and the fingerprint it must produce.
type goldenRow struct {
	name string
	spec Spec
	want uint64
}

// runGoldens runs every row serial and at Workers=4 and checks each
// fingerprint against its pinned value.
func runGoldens(t *testing.T, rows []goldenRow) {
	for _, r := range rows {
		for _, workers := range []int{1, 4} {
			r, workers := r, workers
			t.Run(fmt.Sprintf("%s/w%d", r.name, workers), func(t *testing.T) {
				t.Parallel()
				out, err := Run(r.spec, Options{Workers: workers})
				if err != nil || out.Res.Err != nil {
					t.Fatalf("run: %v / %v", err, out.Res.Err)
				}
				if out.Fingerprint != r.want {
					t.Errorf("fingerprint %#x, want %#x", out.Fingerprint, r.want)
				}
			})
		}
	}
}

// matrixGoldens looks the named rows up in EquivalenceMatrix.
func matrixGoldens(t *testing.T, want map[string]uint64) []goldenRow {
	var rows []goldenRow
	for _, ns := range EquivalenceMatrix() {
		if fp, ok := want[ns.Name]; ok {
			rows = append(rows, goldenRow{ns.Name, ns.Spec, fp})
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("matched %d of %d golden rows in EquivalenceMatrix", len(rows), len(want))
	}
	return rows
}

func TestGaussSMGoldens(t *testing.T) {
	runGoldens(t, matrixGoldens(t, map[string]uint64{
		"gauss-sm":        0x557a4952ec7c83a9,
		"gauss-sm-faults": 0xff4a62207a2d2c92,
		"gauss-sm-p64":    0x71eaafacc7a2f818,
	}))
}

// TestEM3DLCPSMGoldens pins the EquivalenceMatrix rows of EM3D-SM and sync
// LCP-SM, which run only in step form. TestStepFormEquivalence pins their
// plain, hardware-combining and coherence-fault runs at P=16, 64 and 256.
func TestEM3DLCPSMGoldens(t *testing.T) {
	runGoldens(t, matrixGoldens(t, map[string]uint64{
		"em3d-sm":     0x2dc7eaf7bc1480a1,
		"lcp-sm":      0x66032e4504f5b1eb,
		"em3d-sm-p64": 0xabf52eb991af261b,
		"lcp-sm-p64":  0x73e30aa5b95e7c,
	}))
}

// TestALCPGoldens pins the asynchronous LCP variant on both machines at the
// LCP-SM rows' sizes: ALCP-SM shares runSM's setup with the retired sync
// body, so its private address layout must not move.
func TestALCPGoldens(t *testing.T) {
	want := map[string][3]uint64{
		"mp": {0x62ab8dd40bf1d118, 0xb637da21e115b2f, 0x919c99af959b3d36},
		"sm": {0x7e4c2c30eeb418, 0xe8102198d2569cc0, 0xa7e2f2957c3e4f80},
	}
	var rows []goldenRow
	for _, mach := range []string{"mp", "sm"} {
		for i, procs := range []int{16, 64, 256} {
			rows = append(rows, goldenRow{fmt.Sprintf("alcp-%s/p%d", mach, procs),
				Spec{App: "alcp", Machine: mach, Procs: procs, Size: 1024, Iters: 3}, want[mach][i]})
		}
	}
	runGoldens(t, rows)
}

// resumeCheckpoint resumes a committed checkpoint at Workers 1 and 4; each
// must replay-verify and finish on the pinned fingerprint. stepProcs says
// whether the checkpoint's spec carries the legacy "step_procs": true.
func resumeCheckpoint(t *testing.T, file string, stepProcs bool, want uint64) {
	t.Helper()
	snap, err := snapshot.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	if got := bytes.Contains(snap.Spec, []byte(`"step_procs":true`)); got != stepProcs {
		t.Fatalf("%s: spec carries step_procs = %v, want %v", file, got, stepProcs)
	}
	sp, err := SpecFromSnapshot(snap)
	if err != nil {
		t.Fatalf("%s: spec from snapshot: %v", file, err)
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

// TestGaussSMResumesCoroutineSnapshot resumes checkpoints written by the
// coroutine form of Gauss-SM (their specs carry no step_procs): one taken
// while a row write of the fill phase is in flight, which pins when the
// host-side matrix mutates relative to the simulated accesses, and one
// mid-elimination. Written with `wwtsim -app gauss -machine sm -procs 2
// -size 16 -cache 4096 -checkpoint-every 1000`.
func TestGaussSMResumesCoroutineSnapshot(t *testing.T) {
	for _, file := range []string{"gauss-sm-coroutine-2000.wws", "gauss-sm-coroutine-60000.wws"} {
		resumeCheckpoint(t, file, false, 0x121f542edce94c6d)
	}
}

// TestEM3DLCPResumesCoroutineSnapshot resumes checkpoints written by the
// coroutine forms of EM3D and sync LCP on both machines, one mid-setup and
// one mid-main-loop each (the file name carries the cycle). Their specs are
// P=4 with a 4 KB cache: EM3D -size 16 -iters 3, LCP -size 64 -iters 3.
// EM3D-SM and LCP-SM now run in step form, and so do EM3D-MP and LCP-MP
// without network faults, so each resume crosses forms.
func TestEM3DLCPResumesCoroutineSnapshot(t *testing.T) {
	for _, c := range []struct {
		files [2]string
		want  uint64
	}{
		{[2]string{"em3d-mp-coroutine-291400.wws", "em3d-mp-coroutine-339100.wws"}, 0x688baffcac6d3edb},
		{[2]string{"em3d-sm-coroutine-216900.wws", "em3d-sm-coroutine-513700.wws"}, 0xfb54ceea1ae03c4c},
		{[2]string{"lcp-mp-coroutine-30700.wws", "lcp-mp-coroutine-305700.wws"}, 0x5bd1ca487d31353e},
		{[2]string{"lcp-sm-coroutine-30800.wws", "lcp-sm-coroutine-397200.wws"}, 0xbcb6eb571513ea3},
	} {
		for _, file := range c.files {
			resumeCheckpoint(t, file, false, c.want)
		}
	}
}

// TestLegacyStepProcsSnapshotResumes resumes a checkpoint whose spec carries
// "step_procs": true, written when that field chose the processor form. It
// still decodes, and resumes on the form the spec implies.
func TestLegacyStepProcsSnapshotResumes(t *testing.T) {
	resumeCheckpoint(t, "em3d-mp-step-339100.wws", true, 0x688baffcac6d3edb)
}
