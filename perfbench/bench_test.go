package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// Tiny workloads keep the self-test fast. The broken one's numeric check
// can never pass, so every complete run of it must count as failed.
var tiny = []workload{
	{Name: "lcp-tiny", App: "lcp", Machine: "mp", Procs: 4, Size: 64, Iters: 2},
	{Name: "gauss-tiny", App: "gauss", Machine: "sm", Procs: 4, Size: 32, MaxErr: 1e-9, PaperTable: 9},
	{Name: "gauss-broken", App: "gauss", Machine: "sm", Procs: 4, Size: 32, MaxErr: -1},
}

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// reportOf runs report and decodes its last line.
func reportOf(t *testing.T, b *bench) (string, result) {
	t.Helper()
	var out bytes.Buffer
	if err := b.report(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return out.String(), res
}

// checkMetrics asserts the result holds exactly the named metrics, each
// with its unit and printed by name.
func checkMetrics(t *testing.T, text string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		case !strings.Contains(text, m.Name+" "):
			t.Errorf("metric %s not printed by name", m.Name)
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	c := readContract(t)
	for _, w := range tiny[:2] {
		b := newBench(w, 1, 0.01, &bytes.Buffer{})
		if err := b.endToEnd(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		text, res := reportOf(t, b)
		// The warm-up run, three timed runs, the setup-only phase, the
		// cross-check.
		if !res.Correct || res.Failed != 0 || res.Attempted < 6 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", w.Name, res.Correct, res.Failed, res.Attempted, text)
		}
		if !strings.Contains(text, "failed_frac") {
			t.Errorf("%s: failed_frac not printed", w.Name)
		}
		checkMetrics(t, text, res, c.EndToEnd)
	}
}

func TestLayerMetrics(t *testing.T) {
	c := readContract(t)
	for _, w := range tiny[:2] {
		var log bytes.Buffer
		b := newBench(w, 2, 1, &log)
		if err := b.layers(t.TempDir()); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		text, res := reportOf(t, b)
		if !res.Correct {
			t.Errorf("%s: %d of %d failed\n%s%s", w.Name, res.Failed, res.Attempted, log.String(), text)
		}
		checkMetrics(t, text, res, c.PerLayer)
		sum := 0.0
		for name, m := range res.Metrics {
			if strings.HasPrefix(name, "host_share.") {
				sum += m.Value
			}
		}
		if math.Abs(sum-100) > 1 {
			t.Errorf("%s: host shares sum to %.2f%%, want 100 +- 1", w.Name, sum)
		}
	}
}

func TestBrokenCheckRaisesFailedFrac(t *testing.T) {
	// Seed 2 skips the runner cross-check, which compares fingerprints
	// only: every attempt past the setup-only runs is a complete run.
	b := newBench(tiny[2], 2, 0.01, &bytes.Buffer{})
	if err := b.endToEnd(); err != nil {
		t.Fatal(err)
	}
	_, res := reportOf(t, b)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("broken check went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	// The setup-only runs stop before the check; every complete run fails.
	if want := res.Attempted - 1; res.Failed != want {
		t.Errorf("failed %d of %d complete runs", res.Failed, want)
	}
	if f := b.failedFrac(); f <= 0 || f > 1 {
		t.Errorf("failed_frac %v", f)
	}
}

func TestLayerOfMapsFramesToModules(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/coherence.(*Protocol).ReadMiss": "coherence",
		"repro/internal/apps/em3d.(*smStep).step":       "apps",
		"repro/internal/sim.(*Engine).Run.func1":        "sim",
		"repro/internal/snapshot.Hash":                  otherLayer,
		"main.runWorkload.func1.1":                      otherLayer,
		"runtime.mapaccess1_fast64":                     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
