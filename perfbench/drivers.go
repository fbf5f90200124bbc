package main

import (
	"fmt"
	"time"

	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/ni"
	"repro/internal/parmacs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// A layer driver loads one module through its public functions on a
// machine of the workload's size and times the calls from outside: the
// span covers the loop of calls, or the machine run that makes them, and
// the metric is the span's host nanoseconds per operation.
type driver struct {
	metric string
	run    func(procs int) (span, error)
}

// span is one timed interval with the operations it covers.
type span struct {
	start, end time.Time
	ops        int64
}

func (s span) nsPerOp() float64 {
	return float64(s.end.Sub(s.start).Nanoseconds()) / float64(s.ops)
}

var drivers = []driver{
	{"sim.step_switch_ns", driveStepSwitch},
	{"sim.coroutine_switch_ns", driveCoroutineSwitch},
	{"sim.event_ns", driveEvents},
	{"memsim.hit_ns", driveCacheHit},
	{"memsim.tlb_hit_ns", driveTLBHit},
	{"coherence.remote_miss_ns", driveRemoteMiss},
	{"coherence.hot_home_ns", driveHotHome},
	{"ni.send_ns", driveNISend},
	{"am.roundtrip_ns", driveAMRoundTrip},
	{"cmmd.block_transfer_ns", driveBlockTransfer},
	{"parmacs.barrier_ns", driveBarrier},
	{"parmacs.mcs_handoff_ns", driveMCSHandoff},
	{"parmacs.reduce_ns", driveReduce},
}

// perProc spreads a total operation count over procs, at least one each.
func perProc(total, procs int) int { return max(1, total/procs) }

// timeRun times an engine's or a machine's run.
func timeRun(ops int64, run func() error) (span, error) {
	s := span{ops: ops, start: time.Now()}
	err := run()
	s.end = time.Now()
	return s, err
}

// driveStepSwitch: every step processor computes one quantum and yields,
// so each dispatch is one direct continuation call.
func driveStepSwitch(procs int) (span, error) {
	rounds := perProc(1<<20, procs)
	e := sim.NewEngine(100)
	e.Workers = 1
	for i := 0; i < procs; i++ {
		k := 0
		e.AddStepProc(func(p *sim.Proc) sim.StepStatus {
			if k == rounds {
				return sim.StepDone
			}
			k++
			p.Compute(100)
			return sim.StepYield
		})
	}
	return timeRun(int64(procs*rounds), e.Run)
}

// driveCoroutineSwitch: the same load on coroutine processors, so each
// dispatch is one baton handoff between goroutines.
func driveCoroutineSwitch(procs int) (span, error) {
	rounds := perProc(1<<17, procs)
	e := sim.NewEngine(100)
	e.Workers = 1
	for i := 0; i < procs; i++ {
		e.AddProc(func(p *sim.Proc) {
			for k := 0; k < rounds; k++ {
				p.Compute(100)
				p.Interact()
			}
		})
	}
	return timeRun(int64(procs*rounds), e.Run)
}

// eventChain is an event that reschedules itself a few cycles later until
// the shared budget runs out: Schedule plus drain through the calendar.
type eventChain struct {
	e    *sim.Engine
	left *int
}

func (c *eventChain) RunEvent(at sim.Time) {
	if *c.left > 0 {
		*c.left--
		c.e.ScheduleAction(at+7, c)
	}
}

// driveEvents runs one event chain per processor slot; a single step
// processor keeps the engine stepping quanta until the budget is spent.
func driveEvents(procs int) (span, error) {
	const events = 1 << 20
	left := events
	e := sim.NewEngine(100)
	e.Workers = 1
	for i := 0; i < procs; i++ {
		e.ScheduleAction(sim.Time(i%100), &eventChain{e: e, left: &left})
	}
	e.AddStepProc(func(p *sim.Proc) sim.StepStatus {
		if left == 0 {
			return sim.StepDone
		}
		p.Compute(100)
		return sim.StepYield
	})
	return timeRun(events, e.Run)
}

// driveCacheHit: loads that hit in both the TLB and the cache.
func driveCacheHit(int) (span, error) {
	const loads = 1 << 22
	cfg := cost.Default(1)
	e := sim.NewEngine(cfg.NetLatency)
	e.Workers = 1
	var s span
	e.AddProc(func(p *sim.Proc) {
		m := memsim.NewMem(p, &cfg, 1)
		a := memsim.NewAddrSpace(1, cfg.BlockBytes).AllocPrivate(0, 4096)
		for i := uint64(0); i < 8; i++ {
			m.Read(a + 32*i) // fault the blocks in
		}
		s = span{ops: loads, start: time.Now()}
		for i := uint64(0); i < loads; i++ {
			m.Read(a + 32*(i&7))
		}
		s.end = time.Now()
	})
	return s, e.Run()
}

var sinkTLB bool

// driveTLBHit: the TLB alone, rotating over eight resident pages so the
// MRU filter misses half the time and the probe path runs.
func driveTLBHit(int) (span, error) {
	const accesses = 1 << 23
	t := memsim.NewTLB(64, 4096)
	for p := 0; p < 64; p++ {
		t.Access(uint64(p) << 12)
	}
	s := span{ops: accesses, start: time.Now()}
	for i := 0; i < accesses; i++ {
		sinkTLB = t.Access(uint64(i&7) << 12)
	}
	s.end = time.Now()
	return s, nil
}

// driveRemoteMiss: one processor reads distinct blocks homed on another
// node, one idle remote miss at a time, while the rest wait at a barrier.
func driveRemoteMiss(procs int) (span, error) {
	const blocks = 2000 // fits the 8192-block cache: no replacements
	var s span
	m := machine.NewSM(cost.Default(procs), parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == procs-1 {
			v := n.RT.GMallocFOn(0, blocks*4)
			s = span{ops: blocks, start: time.Now()}
			for i := 0; i < blocks; i++ {
				v.Get(n.Mem, 4*i)
			}
			s.end = time.Now()
		}
		n.Barrier()
	})
	res := m.Run()
	if res.Err != nil {
		return s, res.Err
	}
	if got := countAll(res, stats.CntSharedMissRemote) + countAll(res, stats.CntSharedMissLocal); got < blocks {
		return s, fmt.Errorf("remote-miss driver saw %d shared misses, want %d", got, blocks)
	}
	return s, nil
}

// driveHotHome: every processor misses on its own blocks, all homed on
// node 0, so the one directory serves the whole machine.
func driveHotHome(procs int) (span, error) {
	k := perProc(4096, procs)
	var v memsim.FVec
	m := machine.NewSM(cost.Default(procs), parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			v = n.RT.GMallocFOn(0, procs*k*4)
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		for i := 0; i < k; i++ {
			v.Get(n.Mem, 4*(n.ID*k+i))
		}
		n.Barrier()
	})
	return timeRun(int64(procs*k), func() error { return m.Run().Err })
}

// pairs is the number of (even sender, odd receiver) node pairs.
func pairs(procs int) int { return max(1, procs/2) }

// driveNISend: each even node injects raw packets to its odd neighbour,
// which waits for and receives each one.
func driveNISend(procs int) (span, error) {
	k := perProc(1<<16, pairs(procs))
	got := make([]int, procs)
	m := machine.NewMP(cost.Default(procs), cmmd.Binary, func(n *machine.MPNode) {
		switch {
		case n.ID%2 == 0 && n.ID+1 < procs:
			for i := 0; i < k; i++ {
				pkt := ni.Packet{Dst: n.ID + 1, DataBytes: 8}
				n.NI.Send(&pkt)
			}
		case n.ID%2 == 1:
			for i := 0; i < k; i++ {
				n.NI.WaitPacket(stats.NetAccess)
				n.NI.Recv()
				got[n.ID]++
			}
		}
		n.Barrier()
	})
	s, err := timeRun(int64(pairs(procs)*k), func() error { return m.Run().Err })
	if err == nil && procs > 1 && got[1] != k {
		err = fmt.Errorf("ni driver: node 1 received %d of %d packets", got[1], k)
	}
	return s, err
}

// driveAMRoundTrip: each even node sends active-message requests to its
// odd neighbour, whose handler replies; the sender waits for each reply.
func driveAMRoundTrip(procs int) (span, error) {
	k := perProc(1<<14, pairs(procs))
	replies := make([]int, procs)
	m := machine.NewMP(cost.Default(procs), cmmd.Binary, func(n *machine.MPNode) {
		stop := false
		var hRep int
		hReq := n.AM.Register(func(pkt *ni.Packet) { n.AM.Request(pkt.Src, hRep, pkt.Args, 8, nil) })
		hRep = n.AM.Register(func(*ni.Packet) { replies[n.ID]++ })
		hStop := n.AM.Register(func(*ni.Packet) { stop = true })
		switch {
		case n.ID%2 == 0 && n.ID+1 < procs:
			for i := 0; i < k; i++ {
				n.AM.Request(n.ID+1, hReq, [4]uint64{uint64(i)}, 8, nil)
				want := i + 1
				n.AM.PollUntil(func() bool { return replies[n.ID] >= want })
			}
			n.AM.Request(n.ID+1, hStop, [4]uint64{}, 0, nil)
		case n.ID%2 == 1:
			n.AM.PollUntil(func() bool { return stop })
		}
		n.Barrier()
	})
	s, err := timeRun(int64(pairs(procs)*k), func() error { return m.Run().Err })
	if err == nil && procs > 1 && replies[0] != k {
		err = fmt.Errorf("am driver: node 0 saw %d of %d replies", replies[0], k)
	}
	return s, err
}

// driveBlockTransfer: each even node sends 1 KB blocks (RTS/CTS handshake
// plus streamed packets) to its odd neighbour.
func driveBlockTransfer(procs int) (span, error) {
	const words = 128
	k := perProc(1<<11, pairs(procs))
	sum := make([]float64, procs)
	m := machine.NewMP(cost.Default(procs), cmmd.Binary, func(n *machine.MPNode) {
		buf := n.AllocF(words)
		switch {
		case n.ID%2 == 0 && n.ID+1 < procs:
			for i := 0; i < k; i++ {
				buf.V[0] = float64(i)
				n.EP.SendBlock(n.ID+1, 0, &buf, 0, words)
			}
		case n.ID%2 == 1:
			for i := 0; i < k; i++ {
				n.EP.RecvBlock(0, &buf, 0, words)
				sum[n.ID] += buf.V[0]
			}
		}
		n.Barrier()
	})
	s, err := timeRun(int64(pairs(procs)*k), func() error { return m.Run().Err })
	if want := float64(k*(k-1)) / 2; err == nil && procs > 1 && sum[1] != want {
		err = fmt.Errorf("cmmd driver: node 1 payload sum %g, want %g", sum[1], want)
	}
	return s, err
}

// driveBarrier: whole-machine barrier episodes; ns per episode.
func driveBarrier(procs int) (span, error) {
	episodes := perProc(1<<17, procs)
	m := machine.NewSM(cost.Default(procs), parmacs.RoundRobin, func(n *machine.SMNode) {
		for i := 0; i < episodes; i++ {
			n.RT.Barrier(n.P)
		}
	})
	return timeRun(int64(episodes), func() error { return m.Run().Err })
}

// driveMCSHandoff: every processor takes one MCS lock in turn, repeatedly;
// ns per acquire/release handoff.
func driveMCSHandoff(procs int) (span, error) {
	k := perProc(1024, procs)
	var lock *parmacs.Lock
	var counter memsim.IVec
	m := machine.NewSM(cost.Default(procs), parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			lock = parmacs.NewLock(n.RT)
			counter = n.RT.GMallocI(0, 1)
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		for i := 0; i < k; i++ {
			lock.Acquire(n.Mem)
			counter.Set(n.Mem, 0, counter.Get(n.Mem, 0)+1)
			lock.Release(n.Mem)
		}
		n.Barrier()
	})
	s, err := timeRun(int64(procs*k), func() error { return m.Run().Err })
	if err == nil && counter.V[0] != int64(procs*k) {
		err = fmt.Errorf("mcs driver: counter %d, want %d", counter.V[0], procs*k)
	}
	return s, err
}

// driveReduce: whole-machine sum reductions up the 4-ary tree; ns per
// reduction.
func driveReduce(procs int) (span, error) {
	reductions := perProc(1<<15, procs)
	var red *parmacs.Reduction
	var sum float64
	m := machine.NewSM(cost.Default(procs), parmacs.RoundRobin, func(n *machine.SMNode) {
		if n.ID == 0 {
			red = parmacs.NewReduction(n.RT)
			n.RT.Create(n.P)
		} else {
			n.RT.WaitCreate(n.P)
		}
		for i := 0; i < reductions; i++ {
			v, _ := red.Reduce(n.Mem, float64(n.ID), 0, parmacs.OpSum, parmacs.SyncCats)
			if n.ID == 0 {
				sum = v
			}
		}
		n.Barrier()
	})
	s, err := timeRun(int64(reductions), func() error { return m.Run().Err })
	if want := float64(procs*(procs-1)) / 2; err == nil && sum != want {
		err = fmt.Errorf("reduce driver: sum %g, want %g", sum, want)
	}
	return s, err
}

// countAll totals a counter over every processor and phase.
func countAll(res *machine.Result, c stats.Count) int64 {
	var n int64
	for _, a := range res.Accts {
		for ph := 0; ph < a.NumPhases(); ph++ {
			n += a.Counts(stats.Phase(ph), c)
		}
	}
	return n
}
