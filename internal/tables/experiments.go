package tables

import (
	"repro/internal/apps/em3d"
	"repro/internal/apps/gauss"
	"repro/internal/apps/lcp"
	"repro/internal/apps/mse"
	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/parmacs"
	"repro/internal/stats"
)

// Scale selects full paper-scale workloads or reduced quick ones.
type Scale int

const (
	// Full is the paper's exact workload (32 processors).
	Full Scale = iota
	// Quick is a reduced workload for fast regeneration and CI.
	Quick
)

func (sc Scale) cfg() cost.Config {
	if sc == Quick {
		return cost.Default(8)
	}
	return cost.Default(32)
}

// MSE regenerates Tables 4-7 (Microstructure Electrostatics).
func MSE(sc Scale) []Table {
	cfg := sc.cfg()
	par := mse.DefaultParams()
	if sc == Quick {
		par = mse.Params{Bodies: 64, Elems: 8, Iters: 8, Seed: 1}
	}
	mp := mse.RunMP(cfg, cmmd.LopSided, par)
	sm := mse.RunSM(cfg, par)
	noPaper := sc == Quick

	t4 := Table{ID: 4, Title: "MSE Message Passing (MSE-MP) time breakdown",
		Rows: mpBreakdownRows(mp.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"comp": 1115.9, "lm": 49.6, "comm": 74.5, "lib": 69.9, "libm": 0.5,
			"net": 2.1, "total": 1241.1}))}
	t5 := Table{ID: 5, Title: "MSE Shared Memory (MSE-SM) time breakdown",
		Rows: smBreakdownRows(sm.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"comp": 1043.8, "miss": 62.7, "sync": 161.3, "bar": 80.6,
			"startup": 80.7, "total": 1267.8}))}
	t6 := Table{ID: 6, Title: "MSE-MP per-processor event counts",
		Rows: mpEventRows(mp.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"lm": 2.4e6, "cw": -1, "am": -1, "bytes": 1.1, "data": 0.8,
			"ctl": 0.3, "cpb": 1452}))}
	t6.Rows = append(t6.Rows, Row{"Messages Sent (logical)",
		mp.Res.Summary.CountsAll(stats.CntChannelWrites) +
			mp.Res.Summary.CountsAll(stats.CntActiveMessages),
		paperVal(noPaper, 1271), "count"})
	t7 := Table{ID: 7, Title: "MSE-SM per-processor event counts",
		Rows: smEventRows(sm.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"priv": 2.5e6, "shared": 0.04e6, "shL": 0.01e6, "shR": 0.03e6,
			"wf": 774, "bytes": 2.4, "data": 1.0, "ctl": 1.4, "cpb": 985}))}
	rel := Row{"MP relative to SM (%)", 100 * float64(mp.Res.Elapsed) / float64(sm.Res.Elapsed),
		paperVal(noPaper, 98), "count"}
	t4.Rows = append(t4.Rows, rel)
	return []Table{t4, t5, t6, t7}
}

// Gauss regenerates Tables 8-11 (Gaussian elimination) and the broadcast
// ablation discussed in §5.2 text.
func Gauss(sc Scale) []Table {
	cfg := sc.cfg()
	par := gauss.Params{N: 512, Seed: 1}
	if sc == Quick {
		par.N = 128
	}
	mp := gauss.RunMP(cfg, cmmd.LopSided, par)
	sm := gauss.RunSM(cfg, par)
	noPaper := sc == Quick

	t8 := Table{ID: 8, Title: "Gauss Message Passing (Gauss-MP) time breakdown",
		Rows: mpBreakdownRows(mp.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"comp": 40.8, "lm": 0.1, "comm": 28.4, "lib": 23.6, "libm": 0.03,
			"net": 4.7, "bar": 1.6, "total": 71.0}))}
	t8.Rows = append(t8.Rows, Row{"MP relative to SM (%)",
		100 * float64(mp.Res.Elapsed) / float64(sm.Res.Elapsed), paperVal(noPaper, 98), "count"})
	t9 := Table{ID: 9, Title: "Gauss Shared Memory (Gauss-SM) time breakdown",
		Rows: smBreakdownRows(sm.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"comp": 39.5, "miss": 16.7, "sync": 16.1, "red": 4.4, "bar": 11.6,
			"total": 72.7}))}
	t10 := Table{ID: 10, Title: "Gauss-MP per-processor event counts",
		Rows: mpEventRows(mp.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"lm": 3489, "cw": 511, "am": 1534, "bytes": 0.7, "data": 0.5,
			"ctl": 0.2, "cpb": 78}))}
	t11 := Table{ID: 11, Title: "Gauss-SM per-processor event counts",
		Rows: smEventRows(sm.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"priv": 92, "shared": 23590, "shL": 781, "shR": 22809, "wf": 946,
			"bytes": 1.8, "data": 0.8, "ctl": 1.0, "cpb": 47}))}
	return []Table{t8, t9, t10, t11}
}

// GaussAblation regenerates the §5.2 broadcast/reduction tuning study:
// flat (119.3M), binary tree with CMMD-level messages (40.9M), lop-sided
// trees with active messages and channels (30.1M).
func GaussAblation(sc Scale) Table {
	cfg := sc.cfg()
	par := gauss.Params{N: 512, Seed: 1}
	if sc == Quick {
		par.N = 128
	}
	noPaper := sc == Quick
	t := Table{ID: -52, Title: "Gauss-MP broadcast/reduction ablation (§5.2 text; comm cycles)"}
	paperComm := map[cmmd.Shape]float64{cmmd.Flat: 119.3, cmmd.Binary: 40.9, cmmd.LopSided: 30.1}
	for _, shape := range []cmmd.Shape{cmmd.Flat, cmmd.Binary, cmmd.LopSided} {
		out := gauss.RunMP(cfg, shape, par)
		s := out.Res.Summary
		comm := s.CyclesAll(stats.LibComp) + s.CyclesAll(stats.NetAccess) +
			s.CyclesAll(stats.BarrierWait)
		t.Rows = append(t.Rows, Row{shape.String(), comm / mcyc,
			paperVal(noPaper, paperComm[shape]), "Mcyc"})
	}
	return t
}

// EM3D regenerates Tables 12-17.
func EM3D(sc Scale) []Table {
	cfg := sc.cfg()
	par := em3d.DefaultParams()
	if sc == Quick {
		par = em3d.Params{NodesPer: 250, Degree: 8, RemotePct: 20, Iters: 12, Seed: 1}
	}
	noPaper := sc == Quick
	mp := em3d.RunMPStep(cfg, cmmd.LopSided, par)
	sm := em3d.RunSM(cfg, parmacs.RoundRobin, par)

	t12 := em3dPhaseTable(12, "EM3D Message Passing (EM3D-MP)", mp.Res.Summary, true,
		paperOrNA(noPaper, map[string]float64{
			"init.comp": 18.2, "init.total": 20.0, "main.comp": 32.3,
			"main.lm": 13.7, "main.lib": 16.4, "main.net": 3.8, "main.total": 66.5,
			"total": 86.4}))
	t12.Rows = append(t12.Rows, Row{"MP relative to SM (%)",
		100 * float64(mp.Res.Elapsed) / float64(sm.Res.Elapsed), paperVal(noPaper, 50), "count"})
	t13 := Table{ID: 13, Title: "EM3D-MP main-loop event counts",
		Rows: mpPhaseEventRows(mp.Res.Summary, em3d.PhaseMain, paperOrNA(noPaper,
			map[string]float64{"lm": 643436, "cw": 200, "bytes": 2.0,
				"data": 1.6, "ctl": 0.4, "cpb": 20}))}
	t14 := em3dPhaseTable(14, "EM3D Shared Memory (EM3D-SM)", sm.Res.Summary, false,
		paperOrNA(noPaper, map[string]float64{
			"init.comp": 17.2, "init.total": 42.1, "init.locks": 6.9,
			"main.comp": 26.5, "main.sm": 83.6, "main.wf": 10.4,
			"main.bar": 9.4, "main.total": 130.0, "total": 172.1}))
	t15 := Table{ID: 15, Title: "EM3D-SM main-loop event counts",
		Rows: smPhaseEventRows(sm.Res.Summary, em3d.PhaseMain, paperOrNA(noPaper,
			map[string]float64{"priv": 109, "shared": 330044, "shL": 10818,
				"shR": 319226, "wf": 24975, "bytes": 22.9, "data": 11.9,
				"ctl": 11.0, "cpb": 2}))}

	big := cfg
	big.CacheBytes = 1 << 20
	sm1m := em3d.RunSM(big, parmacs.RoundRobin, par)
	t16 := Table{ID: 16, Title: "EM3D-SM main loop with a 1 MB cache",
		Rows: smPhaseBreakdownRows(sm1m.Res.Summary, em3d.PhaseMain, paperOrNA(noPaper,
			map[string]float64{"comp": 26.5, "sm": 22.1, "wf": 10.9, "bar": 1.5,
				"total": 61.0}))}
	loc := em3d.RunSM(cfg, parmacs.Local, par)
	t17 := Table{ID: 17, Title: "EM3D-SM main loop with local allocation",
		Rows: smPhaseBreakdownRows(loc.Res.Summary, em3d.PhaseMain, paperOrNA(noPaper,
			map[string]float64{"comp": 26.5, "sm": 52.3, "wf": 6.5, "bar": 0.9,
				"total": 86.3}))}
	return []Table{t12, t13, t14, t15, t16, t17}
}

// LCP regenerates Tables 18-23.
func LCP(sc Scale) []Table {
	cfg := sc.cfg()
	par := lcp.DefaultParams()
	if sc == Quick {
		par.N, par.NNZ = 512, 16
	}
	noPaper := sc == Quick
	mp := lcp.RunMPStep(cfg, cmmd.LopSided, par)
	sm := lcp.RunSM(cfg, par)
	amp := lcp.RunAMP(cfg, cmmd.LopSided, par)
	asm := lcp.RunASM(cfg, par)

	t18 := Table{ID: 18, Title: "LCP Message Passing (LCP-MP) time breakdown",
		Rows: mpBreakdownRows(mp.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"comp": 41.1, "lm": 0.06, "comm": 15.3, "lib": 12.6, "libm": 0.02,
			"net": 2.7, "bar": 0.3, "total": 56.8}))}
	t18.Rows = append(t18.Rows,
		Row{"Steps to converge", float64(mp.Steps), paperVal(noPaper, 43), "count"},
		Row{"MP relative to SM (%)", 100 * float64(mp.Res.Elapsed) / float64(sm.Res.Elapsed),
			paperVal(noPaper, 86), "count"})
	t19 := Table{ID: 19, Title: "LCP Shared Memory (LCP-SM) time breakdown",
		Rows: smBreakdownRows(sm.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"comp": 41.3, "miss": 13.4, "sync": 11.3, "sc": 3.2, "sm": 0.1,
			"bar": 8.0, "total": 66.0}))}
	t20 := Table{ID: 20, Title: "Asynchronous LCP Message Passing (ALCP-MP)",
		Rows: mpBreakdownRows(amp.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"comp": 32.9, "lm": 0.09, "comm": 59.5, "lib": 46.5, "libm": 0,
			"net": 12.9, "bar": 0.3, "total": 92.7}))}
	t20.Rows = append(t20.Rows,
		Row{"Steps to converge", float64(amp.Steps), paperVal(noPaper, 35), "count"})
	t21 := Table{ID: 21, Title: "Asynchronous LCP Shared Memory (ALCP-SM)",
		Rows: smBreakdownRows(asm.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"comp": 32.0, "miss": 62.9, "sync": 3.8, "sc": 1.6, "sm": 0.1,
			"bar": 2.2, "total": 98.7}))}
	t21.Rows = append(t21.Rows,
		Row{"Steps to converge", float64(asm.Steps), paperVal(noPaper, 34), "count"})
	t22 := Table{ID: 22, Title: "LCP-MP event counts (synchronous vs asynchronous)"}
	t22.Rows = append(t22.Rows, prefixRows("sync: ",
		mpEventRows(mp.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"lm": 3873, "cw": 220, "am": 90, "bytes": 1.8, "data": 1.4,
			"ctl": 0.4, "cpb": 29}))...)...)
	t22.Rows = append(t22.Rows, prefixRows("async: ",
		mpEventRows(amp.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"lm": 4345, "cw": 5425, "am": 74, "bytes": 6.9, "data": 5.6,
			"ctl": 1.4, "cpb": 6}))...)...)
	t23 := Table{ID: 23, Title: "LCP-SM event counts (synchronous vs asynchronous)"}
	t23.Rows = append(t23.Rows, prefixRows("sync: ",
		smEventRows(sm.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"priv": 56, "shared": 48411, "shL": 1528, "shR": 46883, "wf": 1481,
			"bytes": 3.7, "data": 1.6, "ctl": 2.1, "cpb": 26}))...)...)
	t23.Rows = append(t23.Rows, prefixRows("async: ",
		smEventRows(asm.Res.Summary, paperOrNA(noPaper, map[string]float64{
			"priv": 60, "shared": 206615, "shL": 6140, "shR": 200475, "wf": 15814,
			"bytes": 17.0, "data": 7.4, "ctl": 9.6, "cpb": 4}))...)...)
	return []Table{t18, t19, t20, t21, t22, t23}
}

// All regenerates every results table (4-23) plus the Gauss ablation.
func All(sc Scale) []Table {
	var out []Table
	out = append(out, MSE(sc)...)
	out = append(out, Gauss(sc)...)
	out = append(out, GaussAblation(sc))
	out = append(out, EM3D(sc)...)
	out = append(out, LCP(sc)...)
	return out
}

// --- helpers ---

func paperVal(quick bool, v float64) float64 {
	if quick {
		return -1 // reduced scale: paper values not comparable
	}
	return v
}

func paperOrNA(quick bool, m map[string]float64) map[string]float64 {
	if !quick {
		return m
	}
	out := make(map[string]float64, len(m))
	for k := range m {
		out[k] = -1
	}
	return out
}

func prefixRows(prefix string, rows ...Row) []Row {
	for i := range rows {
		rows[i].Label = prefix + rows[i].Label
	}
	return rows
}

func getOr(m map[string]float64, k string) float64 {
	if v, ok := m[k]; ok {
		return v
	}
	return -1
}

// em3dPhaseTable builds the paper's init/main/total three-way split.
func em3dPhaseTable(id int, title string, s *stats.Summary, mp bool, paper map[string]float64) Table {
	t := Table{ID: id, Title: title + " time breakdown (init / main / total)"}
	phases := []struct {
		name string
		ph   stats.Phase
	}{{"init", em3d.PhaseInit}, {"main", em3d.PhaseMain}}
	for _, p := range phases {
		if mp {
			t.Rows = append(t.Rows,
				Row{p.name + ": Computation", s.Cycles(p.ph, stats.Comp) / mcyc, getOr(paper, p.name+".comp"), "Mcyc"},
				Row{p.name + ": Local Misses", s.Cycles(p.ph, stats.LocalMiss) / mcyc, getOr(paper, p.name+".lm"), "Mcyc"},
				Row{p.name + ": Lib Comp", s.Cycles(p.ph, stats.LibComp) / mcyc, getOr(paper, p.name+".lib"), "Mcyc"},
				Row{p.name + ": Network Access", s.Cycles(p.ph, stats.NetAccess) / mcyc, getOr(paper, p.name+".net"), "Mcyc"},
				Row{p.name + ": Total", s.TotalCycles(p.ph) / mcyc, getOr(paper, p.name+".total"), "Mcyc"},
			)
		} else {
			t.Rows = append(t.Rows,
				Row{p.name + ": Computation", s.Cycles(p.ph, stats.Comp) / mcyc, getOr(paper, p.name+".comp"), "Mcyc"},
				Row{p.name + ": Shared Misses", s.Cycles(p.ph, stats.SharedMiss) / mcyc, getOr(paper, p.name+".sm"), "Mcyc"},
				Row{p.name + ": Write Faults", s.Cycles(p.ph, stats.WriteFault) / mcyc, getOr(paper, p.name+".wf"), "Mcyc"},
				Row{p.name + ": TLB Misses", s.Cycles(p.ph, stats.TLBMiss) / mcyc, getOr(paper, p.name+".tlb"), "Mcyc"},
				Row{p.name + ": Locks", s.Cycles(p.ph, stats.LockWait) / mcyc, getOr(paper, p.name+".locks"), "Mcyc"},
				Row{p.name + ": Barriers", s.Cycles(p.ph, stats.BarrierWait) / mcyc, getOr(paper, p.name+".bar"), "Mcyc"},
				Row{p.name + ": Total", s.TotalCycles(p.ph) / mcyc, getOr(paper, p.name+".total"), "Mcyc"},
			)
		}
	}
	t.Rows = append(t.Rows, Row{"Total", s.TotalCyclesAll() / mcyc, getOr(paper, "total"), "Mcyc"})
	return t
}

// mpPhaseEventRows is mpEventRows restricted to one phase.
func mpPhaseEventRows(s *stats.Summary, ph stats.Phase, paper map[string]float64) []Row {
	data := s.Counts(ph, stats.CntBytesData)
	ctl := s.Counts(ph, stats.CntBytesControl)
	cpb := 0.0
	if data > 0 {
		cpb = s.Cycles(ph, stats.Comp) / data
	}
	return []Row{
		{"Local Misses", s.Counts(ph, stats.CntLocalMisses), getOr(paper, "lm"), "count"},
		{"Channel Writes", s.Counts(ph, stats.CntChannelWrites), getOr(paper, "cw"), "count"},
		{"Bytes Transmitted", (data + ctl) / 1e6, getOr(paper, "bytes"), "MB"},
		{"  Data", data / 1e6, getOr(paper, "data"), "MB"},
		{"  Control", ctl / 1e6, getOr(paper, "ctl"), "MB"},
		{"Comp Cycles / Data Byte", cpb, getOr(paper, "cpb"), "cyc/B"},
	}
}

// smPhaseEventRows is smEventRows restricted to one phase.
func smPhaseEventRows(s *stats.Summary, ph stats.Phase, paper map[string]float64) []Row {
	data := s.Counts(ph, stats.CntBytesData)
	ctl := s.Counts(ph, stats.CntBytesControl)
	cpb := 0.0
	if data > 0 {
		cpb = s.Cycles(ph, stats.Comp) / data
	}
	shL := s.Counts(ph, stats.CntSharedMissLocal)
	shR := s.Counts(ph, stats.CntSharedMissRemote)
	return []Row{
		{"Private Misses", s.Counts(ph, stats.CntPrivateMisses) + s.Counts(ph, stats.CntLocalMisses), getOr(paper, "priv"), "count"},
		{"Shared Misses", shL + shR, getOr(paper, "shared"), "count"},
		{"  Local", shL, getOr(paper, "shL"), "count"},
		{"  Remote", shR, getOr(paper, "shR"), "count"},
		{"Write Faults", s.Counts(ph, stats.CntWriteFaults), getOr(paper, "wf"), "count"},
		{"Bytes Transmitted", (data + ctl) / 1e6, getOr(paper, "bytes"), "MB"},
		{"  Data", data / 1e6, getOr(paper, "data"), "MB"},
		{"  Control", ctl / 1e6, getOr(paper, "ctl"), "MB"},
		{"Comp Cycles / Data Byte", cpb, getOr(paper, "cpb"), "cyc/B"},
	}
}

// smPhaseBreakdownRows is the SM cycle breakdown restricted to one phase
// (Tables 16 and 17 report the main loop only).
func smPhaseBreakdownRows(s *stats.Summary, ph stats.Phase, paper map[string]float64) []Row {
	return []Row{
		{"Computation", s.Cycles(ph, stats.Comp) / mcyc, getOr(paper, "comp"), "Mcyc"},
		{"Shared Misses", s.Cycles(ph, stats.SharedMiss) / mcyc, getOr(paper, "sm"), "Mcyc"},
		{"Write Faults", s.Cycles(ph, stats.WriteFault) / mcyc, getOr(paper, "wf"), "Mcyc"},
		{"TLB Misses", s.Cycles(ph, stats.TLBMiss) / mcyc, getOr(paper, "tlb"), "Mcyc"},
		{"Barriers", s.Cycles(ph, stats.BarrierWait) / mcyc, getOr(paper, "bar"), "Mcyc"},
		{"Total", s.TotalCycles(ph) / mcyc, getOr(paper, "total"), "Mcyc"},
	}
}
