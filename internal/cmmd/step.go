package cmmd

import (
	"fmt"
	"math"

	"repro/internal/memsim"
	"repro/internal/ni"
	"repro/internal/stats"
)

// Step-processor forms of the CMMD library calls. Each is a phase machine
// over its coroutine twin's suspension points — the entry Interact, the
// per-packet memory loads/stores, the NI injections, and the poll loop's
// status/receive/wait cycle — so a step-form run charges every cycle to
// the same category at the same clock as the coroutine form, and the two
// produce bit-identical fingerprints. A false return means the call is not
// finished: the step returns sim.StepYield and re-invokes the same call
// with the same arguments when redispatched.
//
// The step forms assume the lossless machine (no reliable transport): the
// runner rejects step_procs under a fault plan, and StepBarrier panics if
// a transport is attached anyway.

// PollStep is the resumable state of one poll-until wait: the step twin of
// AM.PollUntil plus handler dispatch. The frame holds which micro-phase of
// the poll yielded, the packet being dispatched, and a pending CTS grant.
type PollStep struct {
	phase uint8
	pkt   ni.Packet // received packet whose dispatch is in progress
	gpkt  ni.Packet // CTS grant being injected from an RTS dispatch
}

const (
	ppEntry     uint8 = iota // PollUntil's entry Interact
	ppCond                   // evaluate the caller's condition (host state)
	ppStatus                 // NI status-register read
	ppWait                   // no packet: park on the NI
	ppRecv                   // FIFO load + dispatch-entry accounting
	ppData                   // hData handler: payload store through the cache
	ppGrant                  // hRTS matched: the CTS Request's send overhead
	ppGrantSend              // CTS injection
)

// stepPoll runs the poll machine until cond() holds. cond must read host
// state only (channel completion counts, grant queues, collective fold
// state) — exactly what the coroutine pollUntil conditions read.
func (ep *Endpoint) stepPoll(ps *PollStep, cond func() bool) bool {
	p := ep.P
	for {
		switch ps.phase {
		case ppEntry:
			if !p.StepInteract() {
				return false
			}
			ps.phase = ppCond
		case ppCond:
			if cond() {
				ps.phase = ppEntry
				return true
			}
			ps.phase = ppStatus
		case ppStatus:
			avail, done := ep.AM.NI.StepStatus()
			if !done {
				return false
			}
			if avail {
				ps.phase = ppRecv
			} else {
				ps.phase = ppWait
			}
		case ppWait:
			done, _ := ep.AM.NI.StepWaitPacket(stats.LibComp)
			if !done {
				return false
			}
			ps.phase = ppCond
		case ppRecv:
			if !ep.AM.NI.StepRecv(&ps.pkt) {
				return false
			}
			// dispatchInner's entry accounting; the handler body follows in
			// the tag's own phases.
			p.ChargeStall(stats.LibComp, ep.Cfg.AMDispatchCycles)
			p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
			pkt := &ps.pkt
			switch pkt.Tag {
			case ep.hData:
				ps.phase = ppData
			case ep.hRTS:
				tag := int(pkt.Args[0])
				words := int(pkt.Args[1])
				if chs := ep.postedRecvs[tag]; len(chs) > 0 {
					ch := chs[0]
					ep.postedRecvs[tag] = chs[1:]
					if words != ch.expectWords {
						panic(fmt.Sprintf("cmmd: node %d: send of %d words to recv of %d",
							ep.Self, words, ch.expectWords))
					}
					ps.gpkt = ni.Packet{Dst: pkt.Src, Tag: ep.hCTS,
						Args: [4]uint64{uint64(ch.ID)}}
					ps.phase = ppGrant
				} else {
					ep.pendingRTS[tag] = append(ep.pendingRTS[tag],
						rts{src: pkt.Src, words: words})
					p.PopMode()
					ps.phase = ppCond
				}
			case ep.hCTS:
				ep.onCTS(pkt)
				p.PopMode()
				ps.phase = ppCond
			default:
				// Handlers that touch host state only (the collectives'
				// onUp/onDown/onVec): a direct call is the whole dispatch.
				ep.AM.HandlerFor(pkt.Tag)(pkt)
				p.PopMode()
				ps.phase = ppCond
			}
		case ppData:
			ch := ep.recvCh[int(ps.pkt.Args[0])]
			off := int(ps.pkt.Args[1])
			if !ep.Mem.StepWriteRange(ch.baseAddr+uint64(off*ch.elemBytes),
				ps.pkt.NWords*ch.elemBytes) {
				return false
			}
			for i, w := range ps.pkt.Payload() {
				ch.store(off+i, w)
			}
			ch.gotWords += ps.pkt.NWords
			if ch.gotWords > ch.expectWords {
				panic(fmt.Sprintf("cmmd: node %d channel %d overrun", ep.Self, ch.ID))
			}
			if ch.gotWords == ch.expectWords {
				ch.gotWords = 0
				ch.completions++
			}
			p.PopMode()
			ps.phase = ppCond
		case ppGrant:
			// grantCTS's AM.Request: entry Interact + send overhead.
			if !p.StepInteract() {
				return false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.AMSendCycles)
			p.Acct.Add(stats.CntActiveMessages, 1)
			ps.phase = ppGrantSend
		case ppGrantSend:
			if !ep.AM.NI.StepSend(&ps.gpkt) {
				return false
			}
			p.PopMode()
			ps.phase = ppCond
		}
	}
}

// StepBarrier is Barrier for step processors.
func (ep *Endpoint) StepBarrier() bool {
	if ep.AM.Rel() != nil {
		panic("cmmd: step barrier with reliable transport attached")
	}
	return ep.Bar.StepWait(ep.P, stats.BarrierWait)
}

// StepWaitChannel is WaitChannel for step processors.
func (ep *Endpoint) StepWaitChannel(ps *PollStep, ch *RecvChannel, n int64) bool {
	return ep.stepPoll(ps, func() bool { return ch.completions >= n })
}

// ChanWriteStep is the resumable state of one StepChannelWriteF: the word
// cursor and the packet staged between its memory load and its injection.
type ChanWriteStep struct {
	phase uint8
	off   int
	pkt   ni.Packet
}

// StepChannelWriteF is ChannelWriteF for step processors. The payload words
// are read from the vector as each packet is staged; the vector is the
// sender's private data and the sender is parked in this call, so the
// values match the coroutine form's up-front staging copy.
func (ep *Endpoint) StepChannelWriteF(cs *ChanWriteStep, dst, chID int, vec *memsim.FVec, lo, hi int) bool {
	p := ep.P
	per := elemsPerPacket(ep.Cfg, vec.ElemBytes)
	for {
		switch cs.phase {
		case 0:
			if !p.StepInteract() {
				return false
			}
			p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
			p.Acct.Add(stats.CntChannelWrites, 1)
			p.ChargeStall(stats.LibComp, ep.Cfg.CMMDCallCycles)
			cs.off = 0
			cs.phase = 1
		case 1:
			if cs.off >= hi-lo {
				p.PopMode()
				*cs = ChanWriteStep{}
				return true
			}
			end := cs.off + per
			if end > hi-lo {
				end = hi - lo
			}
			// The library loads the payload from memory, then injects it.
			if !ep.Mem.StepReadRange(vec.Addr(lo+cs.off), (end-cs.off)*vec.ElemBytes) {
				return false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.CMMDPerPacket)
			pkt := ni.Packet{
				Dst: dst, Tag: ep.hData,
				Args:      [4]uint64{uint64(chID), uint64(cs.off)},
				DataBytes: (end - cs.off) * vec.ElemBytes,
			}
			words := ep.payloadBuf(end - cs.off)
			for i := cs.off; i < end; i++ {
				words[i-cs.off] = math.Float64bits(vec.V[lo+i])
			}
			pkt.SetPayload(words)
			cs.pkt = pkt
			cs.phase = 2
		case 2:
			if !ep.AM.NI.StepSend(&cs.pkt) {
				return false
			}
			cs.off += per
			cs.phase = 1
		}
	}
}

// RecvStep is the resumable state of one StepRecvPost.
type RecvStep struct {
	phase uint8
	ch    *RecvChannel
	gpkt  ni.Packet
}

// StepRecvPost is RecvPost for step processors; the channel is valid only
// when done.
func (ep *Endpoint) StepRecvPost(rs *RecvStep, tag int, vec *memsim.FVec, lo, hi int) (*RecvChannel, bool) {
	p := ep.P
	for {
		switch rs.phase {
		case 0:
			if !p.StepInteract() {
				return nil, false
			}
			p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
			p.ChargeStall(stats.LibComp, ep.Cfg.CMMDCallCycles)
			ch := ep.OpenRecvChannelF(vec, lo, hi)
			rs.ch = ch
			if pend := ep.pendingRTS[tag]; len(pend) > 0 {
				r := pend[0]
				ep.pendingRTS[tag] = pend[1:]
				if r.words != ch.expectWords {
					panic(fmt.Sprintf("cmmd: node %d: send of %d words to recv of %d",
						ep.Self, r.words, ch.expectWords))
				}
				rs.gpkt = ni.Packet{Dst: r.src, Tag: ep.hCTS,
					Args: [4]uint64{uint64(ch.ID)}}
				rs.phase = 1
				continue
			}
			ep.postedRecvs[tag] = append(ep.postedRecvs[tag], ch)
			p.PopMode()
			*rs = RecvStep{}
			return ch, true
		case 1:
			// grantCTS's AM.Request: entry Interact + send overhead.
			if !p.StepInteract() {
				return nil, false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.AMSendCycles)
			p.Acct.Add(stats.CntActiveMessages, 1)
			rs.phase = 2
		case 2:
			if !ep.AM.NI.StepSend(&rs.gpkt) {
				return nil, false
			}
			p.PopMode()
			ch := rs.ch
			*rs = RecvStep{}
			return ch, true
		}
	}
}

// SendStep is the resumable state of one StepSendBlock: the RTS handshake,
// the poll for the CTS grant, and the channel write.
type SendStep struct {
	phase uint8
	chID  int
	rpkt  ni.Packet
	poll  PollStep
	cw    ChanWriteStep
}

// StepSendBlock is SendBlock for step processors.
func (ep *Endpoint) StepSendBlock(ss *SendStep, dst, tag int, vec *memsim.FVec, lo, hi int) bool {
	p := ep.P
	for {
		switch ss.phase {
		case 0:
			if !p.StepInteract() {
				return false
			}
			p.PushMode(stats.LibComp, stats.LibMiss, stats.CntLibMisses)
			p.ChargeStall(stats.LibComp, ep.Cfg.CMMDCallCycles)
			ss.rpkt = ni.Packet{Dst: dst, Tag: ep.hRTS,
				Args: [4]uint64{uint64(tag), uint64(hi - lo)}}
			ss.phase = 1
		case 1:
			// The RTS Request: entry Interact + send overhead.
			if !p.StepInteract() {
				return false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.AMSendCycles)
			p.Acct.Add(stats.CntActiveMessages, 1)
			ss.phase = 2
		case 2:
			if !ep.AM.NI.StepSend(&ss.rpkt) {
				return false
			}
			p.PopMode()
			ss.phase = 3
		case 3:
			if !ep.stepPoll(&ss.poll, func() bool { return len(ep.ctsGrants[dst]) > 0 }) {
				return false
			}
			grants := ep.ctsGrants[dst]
			ss.chID = grants[0]
			ep.ctsGrants[dst] = grants[1:]
			ss.phase = 4
		case 4:
			if !ep.StepChannelWriteF(&ss.cw, dst, ss.chID, vec, lo, hi) {
				return false
			}
			*ss = SendStep{}
			return true
		}
	}
}

// ReduceStep is the resumable state of one Comm.StepReduce.
type ReduceStep struct {
	phase  uint8
	seq    int64
	val    float64
	idx    int64
	parent int
	root   int
	nch    int
	st     *redState
	pkt    ni.Packet
	poll   PollStep
}

// StepReduce is Comm.Reduce for step processors. The contributed (val, idx)
// are latched on the first call; the result is valid only when done.
func (c *Comm) StepReduce(rs *ReduceStep, root int, val float64, idx int64, op ReduceOp) (float64, int64, bool) {
	ep := c.ep
	p := ep.P
	for {
		switch rs.phase {
		case 0:
			if !p.StepInteract() {
				return 0, 0, false
			}
			if c.HW != nil { // hardware combining; see Reduce
				p.ChargeStall(stats.NetAccess, ep.Cfg.NIWriteTagDest+ep.Cfg.NISendCycles)
				rs.val, rs.idx = val, idx
				rs.phase = 4
				continue
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.CollectiveEntry)
			rs.seq = c.redSeq
			c.redSeq++
			vr := c.vrank(ep.Self, root)
			parent, children := c.topology(vr, ep.Nodes)
			rs.parent, rs.nch, rs.root = parent, len(children), root
			st := c.redState(rs.seq)
			if st.has {
				st.val, st.idx = combine(op, st.val, st.idx, val, idx)
			} else {
				st.val, st.idx, st.has = val, idx, true
			}
			rs.st = st
			rs.phase = 1
		case 1:
			if !ep.stepPoll(&rs.poll, func() bool { return rs.st.n >= rs.nch }) {
				return 0, 0, false
			}
			v, i := rs.st.val, rs.st.idx
			delete(c.red, rs.seq)
			if rs.parent < 0 {
				*rs = ReduceStep{}
				return v, i, true
			}
			// scalarSend's CMMD-call charge carries no Interact of its own.
			if c.Shape != LopSided {
				p.ChargeStall(stats.LibComp, ep.Cfg.CMMDCallCycles)
			}
			rs.pkt = ni.Packet{Dst: c.actual(rs.parent, rs.root), Tag: c.hUp,
				Args: [4]uint64{uint64(rs.seq), math.Float64bits(v), uint64(i),
					uint64(op)},
				DataBytes: memsim.WordBytes}
			rs.phase = 2
		case 2:
			// The up-message Request: entry Interact + send overhead.
			if !p.StepInteract() {
				return 0, 0, false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.AMSendCycles)
			p.Acct.Add(stats.CntActiveMessages, 1)
			rs.phase = 3
		case 3:
			if !ep.AM.NI.StepSend(&rs.pkt) {
				return 0, 0, false
			}
			*rs = ReduceStep{}
			return 0, 0, true
		case 4:
			v, i, done := c.HW.StepWait(p, stats.LibComp, uint8(op), rs.val, rs.idx)
			if !done {
				return 0, 0, false
			}
			*rs = ReduceStep{}
			if ep.Self == root {
				return v, i, true
			}
			return 0, 0, true
		}
	}
}

// BcastStep is the resumable state of one Comm.StepBcast.
type BcastStep struct {
	phase    uint8
	seq      int64
	root     int
	ci       int
	db       int
	val      float64
	idx      int64
	children []int
	pkt      ni.Packet
	poll     PollStep
}

// StepBcast is Comm.Bcast for step processors; the value is valid only
// when done.
func (c *Comm) StepBcast(bs *BcastStep, root int, val float64) (float64, bool) {
	v, _, done := c.stepBcastPair(bs, root, val, 0, memsim.WordBytes)
	return v, done
}

// StepBcastPair is Comm.BcastPair for step processors.
func (c *Comm) StepBcastPair(bs *BcastStep, root int, val float64, idx int64) (float64, int64, bool) {
	return c.stepBcastPair(bs, root, val, idx, 2*memsim.WordBytes)
}

func (c *Comm) stepBcastPair(bs *BcastStep, root int, val float64, idx int64, dataBytes int) (float64, int64, bool) {
	ep := c.ep
	p := ep.P
	for {
		switch bs.phase {
		case 0:
			if !p.StepInteract() {
				return 0, 0, false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.CollectiveEntry)
			bs.seq = c.bcSeq
			c.bcSeq++
			vr := c.vrank(ep.Self, root)
			parent, children := c.topology(vr, ep.Nodes)
			bs.root, bs.children, bs.ci = root, children, 0
			bs.val, bs.idx, bs.db = val, idx, dataBytes
			if parent >= 0 {
				bs.phase = 1
			} else {
				delete(c.bc, bs.seq)
				bs.phase = 2
			}
		case 1:
			if !ep.stepPoll(&bs.poll, func() bool {
				st := c.bc[bs.seq]
				return st != nil && st.has
			}) {
				return 0, 0, false
			}
			bs.val, bs.idx = c.bc[bs.seq].val, c.bc[bs.seq].idx
			delete(c.bc, bs.seq)
			bs.phase = 2
		case 2:
			if bs.ci >= len(bs.children) {
				v, i := bs.val, bs.idx
				*bs = BcastStep{}
				return v, i, true
			}
			// scalarSend's CMMD-call charge carries no Interact of its own.
			if c.Shape != LopSided {
				p.ChargeStall(stats.LibComp, ep.Cfg.CMMDCallCycles)
			}
			bs.pkt = ni.Packet{Dst: c.actual(bs.children[bs.ci], bs.root),
				Tag:       c.hDown,
				Args:      [4]uint64{uint64(bs.seq), math.Float64bits(bs.val), uint64(bs.idx)},
				DataBytes: bs.db}
			bs.phase = 3
		case 3:
			// The down-message Request: entry Interact + send overhead.
			if !p.StepInteract() {
				return 0, 0, false
			}
			p.ChargeStall(stats.LibComp, ep.Cfg.AMSendCycles)
			p.Acct.Add(stats.CntActiveMessages, 1)
			bs.phase = 4
		case 4:
			if !ep.AM.NI.StepSend(&bs.pkt) {
				return 0, 0, false
			}
			bs.ci++
			bs.phase = 2
		}
	}
}
