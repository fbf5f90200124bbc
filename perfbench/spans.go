package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps the traced pass's spans in memory until exit. A traced run
// contributes a "run" span (run id = its index) and its "setup" child; the
// first traced run also has one "quantum" child per quantum boundary
// interval and a final "tail" child (the last quantum plus the app's
// answer check). Layer drivers share one more run id, a "drivers" span
// with one child per driver.
type tracer struct {
	base    time.Time
	runs    []*run
	drivers []namedSpan
}

type namedSpan struct {
	name string
	span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) addRun(r *run)                 { t.runs = append(t.runs, r) }
func (t *tracer) addDriver(name string, s span) { t.drivers = append(t.drivers, namedSpan{name, s}) }

// write stores the spans as gzipped TSV (run, id, parent, name, start_ns,
// end_ns, ops; times relative to the tracer's creation) and the CPU
// profile, both named after the workload.
func (t *tracer) write(dir, name string, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.tsv.gz"))
	if err != nil {
		return err
	}
	defer f.Close()
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level: no error
	bw := bufio.NewWriter(zw)

	id := 0
	emit := func(runID, parent int, name string, start, end time.Time, ops int64) int {
		id++
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", runID, id, parent, name,
			start.Sub(t.base).Nanoseconds(), end.Sub(t.base).Nanoseconds(), ops)
		return id
	}
	fmt.Fprintln(bw, "run\tid\tparent\tname\tstart_ns\tend_ns\tops")
	for i, r := range t.runs {
		runID := i + 1
		root := emit(runID, 0, "run", r.Start, r.End, 1)
		emit(runID, root, "setup", r.Start, r.SetupEnd, 1)
		if i > 0 {
			continue
		}
		b := r.Boundaries
		for q := 1; q < len(b); q++ {
			emit(runID, root, "quantum", r.Start.Add(b[q-1]), r.Start.Add(b[q]), 1)
		}
		if len(b) > 0 {
			emit(runID, root, "tail", r.Start.Add(b[len(b)-1]), r.End, 1)
		}
	}
	if len(t.drivers) > 0 {
		runID := len(t.runs) + 1
		root := emit(runID, 0, "drivers", t.drivers[0].start, t.drivers[len(t.drivers)-1].end, int64(len(t.drivers)))
		for _, d := range t.drivers {
			emit(runID, root, d.name, d.start, d.end, d.ops)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
