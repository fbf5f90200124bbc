// Command perfbench measures where the simulator's own host time goes,
// end to end and per module, on two workloads that load the modules
// differently:
//
//	lcp-mp-p1024   sync lcp on mp, P=1024, N=2048, MaxSteps=3, step form
//	gauss-sm-p32   gauss on sm, P=32, N=512 (paper Table 9), coroutine form
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload lcp-mp-p1024 --seed 1 --seconds 20 --trace 0
//
// --seed feeds the app's input generator (lcp's matrix, gauss's rows); the
// simulator receives only the generated inputs. Seed 1 is the default and
// the seed runner.Run uses, so at seed 1 every run's stats fingerprint must
// equal runner.Run's on the equivalent spec. Seed 2 is the held-out seed:
// check a claimed gain there too.
//
// Every run is serial (Workers=1), one at a time in one process, with
// default GC settings, and starts from an empty simulated cache with the
// app's init phase. A run passes when the engine did not abort, the app's
// numeric check holds (gauss maxErr <= 1e-9 against the host reference; lcp
// residual finite), and its stats fingerprint equals the first run's. A
// failed run is counted, not fatal.
//
// --trace 0 reports the end-to-end metrics. The first complete run warms
// the process up. wall_s is the median host seconds of the complete runs
// that follow, setup included, over --seconds; peak_rss_mb is the process's
// peak resident set over all those runs. setup_s is the median host seconds
// from the call to the first quantum boundary over repeated setup-only
// runs. failed_frac is printed beside them.
//
// --trace 1 reports the per-layer metrics. Untraced runs (a third of
// --seconds) give the baseline wall, Go allocation counts and simulated
// work counts. Traced runs (another third) record a run span, its setup
// span and one span per quantum through an engine quantum hook, under a CPU
// profile whose samples are charged to the innermost repro/internal/<pkg>
// frame. Layer drivers then time each module's public calls at the
// workload's machine size. Spans and the profile are written once at exit
// under --out. gauss-sm-p32 also prints its simulated total beside paper
// Table 9's (model.err_pct); lcp-mp-p1024 has no paper reference.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/tables"
)

// Setup-only runs repeat for at least setupSeconds and minSetups runs;
// setup_s is their median.
const (
	setupSeconds = 1.5
	minSetups    = 15
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one invocation's runs, checks and metrics.
type bench struct {
	w      workload
	seed   uint64
	secs   float64
	out    io.Writer // human-readable report; the JSON line goes last
	res    result
	refFP  uint64 // fingerprint of the first complete run
	hasRef bool
}

func newBench(w workload, seed uint64, secs float64, out io.Writer) *bench {
	return &bench{w: w, seed: seed, secs: secs, out: out,
		res: result{Metrics: map[string]metric{}}}
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally records one checked outcome.
func (b *bench) tally(what string, err error) {
	b.res.Attempted++
	if err != nil {
		b.res.Failed++
		fmt.Fprintf(b.out, "FAILED %s: %v\n", what, err)
	}
}

// complete runs the workload once and checks it, including fingerprint
// equality with the first complete run.
func (b *bench) complete(o runOpts) *run {
	runtime.GC() // each run starts from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := runWorkload(&b.w, b.seed, o)
	runtime.ReadMemStats(&m1)
	r.Alloc = allocDelta{TotalAlloc: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs: m1.Mallocs - m0.Mallocs, NumGC: m1.NumGC - m0.NumGC}
	if err := b.checkFP("run", r.Fingerprint); r.Err == nil {
		r.Err = err
	}
	b.tally("run", r.Err)
	return r
}

func (b *bench) checkFP(what string, fp uint64) error {
	if !b.hasRef {
		b.refFP, b.hasRef = fp, true
		return nil
	}
	if fp != b.refFP {
		return fmt.Errorf("%s fingerprint %#x differs from first run's %#x", what, fp, b.refFP)
	}
	return nil
}

// repeat runs complete runs for secs, at least minRuns. Past minRuns it
// starts no run that the slowest so far says would end after secs, so an
// invocation's length stays within its budget.
func (b *bench) repeat(secs float64, minRuns int, o runOpts) []*run {
	var runs []*run
	var slowest time.Duration
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	for len(runs) < minRuns || time.Now().Add(slowest).Before(deadline) {
		r := b.complete(o)
		slowest = max(slowest, r.wall())
		runs = append(runs, r)
	}
	return runs
}

// crossCheck proves at seed 1 that the adapter simulates what runner.Run
// (wwtsim, wwtsweep) simulates.
func (b *bench) crossCheck() {
	if b.seed != 1 {
		return
	}
	fp, err := runnerFingerprint(&b.w)
	if err == nil && b.hasRef && fp != b.refFP {
		err = fmt.Errorf("runner.Run fingerprint %#x, benchmark %#x", fp, b.refFP)
	}
	b.tally("runner cross-check", err)
}

// endToEnd measures the --trace 0 metrics. The warm-up run grows the heap,
// so the timed runs start as every run of a sweep but its first does.
// peak_rss_mb is the process's peak resident set over the warm-up and timed
// runs: one run's peak depends on where its GC cycles fall, and the peak
// over a dozen runs reads steadier.
func (b *bench) endToEnd() error {
	b.complete(runOpts{})
	var walls []float64
	for _, r := range b.repeat(b.secs, 3, runOpts{}) {
		walls = append(walls, r.wall().Seconds())
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("peak resident set: %w", err)
	}
	rss := float64(ru.Maxrss) / 1024 // Maxrss is KB on Linux

	var setups []float64
	var setupErr error
	start := time.Now()
	for len(setups) < minSetups || time.Since(start).Seconds() < setupSeconds {
		runtime.GC()
		r := runWorkload(&b.w, b.seed, runOpts{setupOnly: true})
		if r.Err != nil && setupErr == nil {
			setupErr = r.Err
		}
		setups = append(setups, r.setup().Seconds())
	}
	b.tally(fmt.Sprintf("%d setup-only runs", len(setups)), setupErr)
	b.crossCheck()

	b.set("wall_s", median(walls), "s")
	b.set("setup_s", median(setups), "s")
	b.set("peak_rss_mb", rss, "MB")
	fmt.Fprintf(b.out, "%s seed %d: %d timed runs, wall_s %.4f; peak_rss_mb %.1f; %d setup-only runs\n",
		b.w.Name, b.seed, len(walls), walls, rss, len(setups))
	return nil
}

// layers measures the --trace 1 metrics and writes the span file and CPU
// profile under dir.
func (b *bench) layers(dir string) error {
	// Untraced baseline: wall and Go runtime allocation per run.
	untraced := b.repeat(b.secs/3, 2, runOpts{})
	var walls, allocMB, mallocs, gcs []float64
	for _, r := range untraced {
		walls = append(walls, r.wall().Seconds())
		allocMB = append(allocMB, float64(r.Alloc.TotalAlloc)/(1<<20))
		mallocs = append(mallocs, float64(r.Alloc.Mallocs))
		gcs = append(gcs, float64(r.Alloc.NumGC))
	}
	base := untraced[0]

	// Traced runs under the CPU profile.
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced := b.repeat(b.secs/3, 1, runOpts{quanta: true})
	pprof.StopCPUProfile()
	var twalls, qus []float64
	for _, r := range traced {
		tr.addRun(r)
		twalls = append(twalls, r.wall().Seconds())
		for i := 1; i < len(r.Boundaries); i++ {
			qus = append(qus, float64(r.Boundaries[i]-r.Boundaries[i-1])/1e3)
		}
	}

	// Layer drivers at the workload's machine size, outside the profile.
	for _, d := range drivers {
		runtime.GC()
		s, err := d.run(b.w.Procs)
		b.tally("driver "+d.metric, err)
		tr.addDriver(d.metric, s)
		b.set(d.metric, s.nsPerOp(), "ns")
	}

	byLayer, total, err := attribute(prof.Bytes())
	if err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("cpu profile holds no samples")
	}
	for _, l := range layers {
		b.set("host_share."+l, 100*float64(byLayer[l])/float64(total), "%")
	}
	fmt.Fprintf(b.out, "%s seed %d: %d untraced + %d traced runs, %d profile samples\n",
		b.w.Name, b.seed, len(walls), len(traced), total)

	tw := median(twalls)
	layerNS := func(l string) float64 {
		return tw * 1e9 * float64(byLayer[l]) / float64(total)
	}
	// A layer the workload never calls (coherence on mp, ni on sm) has no
	// work to divide by; its ratio reads 0.
	perUnit := func(ns float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n)
	}

	res := base.App.Res
	var messages, bytesSent int64
	if b.w.Machine == "mp" { // on sm the same counters hold coherence traffic
		messages = countAll(res, stats.CntMessages)
		bytesSent = countAll(res, stats.CntBytesData) + countAll(res, stats.CntBytesControl)
	}
	sharedMisses := countAll(res, stats.CntSharedMissLocal) + countAll(res, stats.CntSharedMissRemote)
	b.set("sim.quanta", float64(base.Quanta), "count")
	b.set("sim.quantum_us.p50", quantile(qus, 0.50), "us")
	b.set("sim.quantum_us.p99", quantile(qus, 0.99), "us")
	b.set("memsim.misses", float64(countAll(res, stats.CntLocalMisses)+countAll(res, stats.CntLibMisses)+
		countAll(res, stats.CntPrivateMisses)+sharedMisses), "count")
	b.set("memsim.tlb_misses", float64(countAll(res, stats.CntTLBMisses)), "count")
	b.set("coherence.remote_misses", float64(countAll(res, stats.CntSharedMissRemote)), "count")
	b.set("coherence.write_faults", float64(countAll(res, stats.CntWriteFaults)), "count")
	b.set("coherence.ns_per_miss", perUnit(layerNS("coherence"), sharedMisses), "ns")
	b.set("ni.messages", float64(messages), "count")
	b.set("ni.bytes", float64(bytesSent), "bytes")
	b.set("ni.ns_per_msg", perUnit(layerNS("ni"), messages), "ns")
	b.set("cmmd.channel_writes", float64(countAll(res, stats.CntChannelWrites)), "count")
	b.set("runtime.alloc_mb", median(allocMB), "MB")
	b.set("runtime.mallocs", median(mallocs), "count")
	b.set("runtime.gc_cycles", median(gcs), "count")
	mcyc := res.Summary.TotalCyclesAll() / 1e6
	b.set("model.elapsed_mcyc", mcyc, "Mcyc")
	b.set("trace.overhead_pct", 100*(tw/median(walls)-1), "%")
	b.reportModel(mcyc)

	return tr.write(dir, b.w.Name, prof.Bytes())
}

// reportModel prints the simulated total beside the paper's, where the
// paper has one.
func (b *bench) reportModel(mcyc float64) {
	if b.w.PaperTable == 0 {
		fmt.Fprintf(b.out, "model: %.2f Mcyc; unvalidated at P=%d (the paper stops at 64 processors), no error figure\n",
			mcyc, b.w.Procs)
		return
	}
	paper, err := paperTotal(b.w.PaperTable)
	if err != nil {
		fmt.Fprintf(b.out, "model: %.2f Mcyc; paper reference unavailable: %v\n", mcyc, err)
		return
	}
	fmt.Fprintf(b.out, "model: %.2f Mcyc vs paper Table %d total %.1f Mcyc: model.err_pct %+.2f%%\n",
		mcyc, b.w.PaperTable, paper, 100*(mcyc/paper-1))
}

// paperTotal reads the Paper column of a Gauss table's Total row.
func paperTotal(id int) (float64, error) {
	t := tables.Find(tables.Gauss(tables.Full), id)
	if t == nil {
		return 0, fmt.Errorf("no table %d", id)
	}
	for _, r := range t.Rows {
		if r.Label == "Total" && r.Paper >= 0 {
			return r.Paper, nil
		}
	}
	return 0, fmt.Errorf("table %d has no paper total", id)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed (1 default, 2 held out)")
	secs := flag.Float64("seconds", 20, "measured seconds per invocation")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "span and profile output directory (--trace 1)")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil && *secs <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := newBench(w, *seed, *secs, os.Stdout)
	measure := b.endToEnd
	if *trace == 1 {
		measure = func() error { return b.layers(*out) }
	}
	if err := measure(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := b.report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// failedFrac is failed runs over attempted runs.
func (b *bench) failedFrac() float64 {
	return float64(b.res.Failed) / float64(b.res.Attempted)
}

// report prints every metric by name with its unit, then the JSON result
// as the last line.
func (b *bench) report(w io.Writer) error {
	b.res.Correct = b.res.Failed == 0
	fmt.Fprintf(w, "%-28s %14.4f (%d of %d runs failed)\n", "failed_frac", b.failedFrac(),
		b.res.Failed, b.res.Attempted)
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.res.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
