package main

import (
	"sync"
	"time"

	"halfback/internal/cc"
	"halfback/internal/netem"
	"halfback/internal/sim"
	"halfback/internal/transport"
)

// spanKind names a traced layer boundary. Spans are recorded only from
// the benchmark's own files: around its calls into the workload and
// experiment packages, the scheduler run, and each cc callback (through
// the controller decorator below), with the cc controller's calls back
// into the transport as child spans.
type spanKind int

const (
	spanGen spanKind = iota
	spanBuild
	spanRun
	spanOnEstablished
	spanOnAck
	spanOnLoss
	spanOnTimer
	spanOnSend
	spanOnDone
	spanEnv
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"workload.gen", "experiment.build", "sim.run",
	"cc.on_established", "cc.on_ack", "cc.on_loss", "cc.on_timer", "cc.on_send", "cc.on_done",
	"transport.env",
}

// spanAgg aggregates the spans of one kind: how many, their inclusive
// time, and their self time (inclusive minus direct children).
type spanAgg struct {
	N       int64 `json:"n"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (a *spanAgg) add(b spanAgg) {
	a.N += b.N
	a.TotalNs += b.TotalNs
	a.SelfNs += b.SelfNs
}

// maxSpanDepth bounds span nesting; callbacks re-enter through the
// environment (an empty pace completes synchronously) only a few
// levels deep.
const maxSpanDepth = 64

// tracer records one universe's spans on the goroutine that runs it.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	base  time.Time
	child [maxSpanDepth]int64 // time covered by children of each open span
	kids  [maxSpanDepth]int64 // number of children of each open span
	depth int
	agg   [numSpanKinds]spanAgg
	// kidCost is what recording one child span adds to its parent's
	// interval beyond the child's own measured duration; it is taken
	// out of the parent's self time.
	kidCost int64

	// acks counts ACKs delivered to a data sender, observed through the
	// network's trace hook.
	acks int64
}

func newTracer() *tracer { return &tracer{base: time.Now(), kidCost: spanCost()} }

var spanCost = sync.OnceValue(func() int64 {
	const n = 200_000
	t := &tracer{base: time.Now()}
	s0 := t.begin()
	for i := 0; i < n; i++ {
		s := t.begin()
		t.end(spanEnv, s)
	}
	t.end(spanRun, s0)
	return max(0, (t.agg[spanRun].TotalNs-t.agg[spanEnv].TotalNs)/n)
})

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its start time.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	t.depth++
	if t.depth >= maxSpanDepth {
		panic("perfbench: span nesting too deep")
	}
	t.child[t.depth] = 0
	t.kids[t.depth] = 0
	return t.now()
}

// end closes the innermost span, charging its duration to the parent's
// children.
func (t *tracer) end(k spanKind, start int64) {
	if t == nil {
		return
	}
	d := t.now() - start
	a := &t.agg[k]
	a.N++
	a.TotalNs += d
	a.SelfNs += d - t.child[t.depth] - t.kids[t.depth]*t.kidCost
	t.depth--
	t.child[t.depth] += d
	t.kids[t.depth]++
}

// decorate wraps a controller so its callbacks become spans of t (a
// nil t records nothing) and each runs hook first, when non-nil. The
// decorator implements cc.Pumper and cc.DoneHook exactly when the inner
// controller does, so transport.Driver behaves exactly as without it.
func decorate(inner cc.Controller, t *tracer, hook func()) cc.Controller {
	c := &tracedCtrl{inner: inner, tr: t, hook: hook}
	c.env.tr = t
	c.env.sack.tr = t
	pump, isPump := inner.(cc.Pumper)
	done, isDone := inner.(cc.DoneHook)
	switch {
	case isPump && isDone:
		return &tracedPumpDone{tracedPump{c, pump}, done}
	case isPump:
		return &tracedPump{c, pump}
	case isDone:
		return &tracedDone{c, done}
	default:
		return c
	}
}

type tracedCtrl struct {
	inner cc.Controller
	tr    *tracer
	hook  func()
	env   tracedEnv
}

// begin opens a callback span and runs the hook inside it.
func (c *tracedCtrl) begin() int64 {
	s := c.tr.begin()
	if c.hook != nil {
		c.hook()
	}
	return s
}

func (c *tracedCtrl) wrap(env cc.Env) cc.Env {
	c.env.Env = env
	return &c.env
}

func (c *tracedCtrl) OnEstablished(env cc.Env, now sim.Time) {
	s := c.begin()
	c.inner.OnEstablished(c.wrap(env), now)
	c.tr.end(spanOnEstablished, s)
}

func (c *tracedCtrl) OnAck(env cc.Env, ev cc.AckEvent, now sim.Time) {
	s := c.begin()
	c.inner.OnAck(c.wrap(env), ev, now)
	c.tr.end(spanOnAck, s)
}

func (c *tracedCtrl) OnLoss(env cc.Env, ev cc.LossEvent, now sim.Time) {
	s := c.begin()
	c.inner.OnLoss(c.wrap(env), ev, now)
	c.tr.end(spanOnLoss, s)
}

func (c *tracedCtrl) OnTimer(env cc.Env, kind cc.TimerKind, now sim.Time) {
	s := c.begin()
	c.inner.OnTimer(c.wrap(env), kind, now)
	c.tr.end(spanOnTimer, s)
}

func (c *tracedCtrl) Decision() cc.Decision { return c.inner.Decision() }
func (c *tracedCtrl) State() any            { return c.inner.State() }

type tracedPump struct {
	*tracedCtrl
	pump cc.Pumper
}

func (c *tracedPump) OnSend(env cc.Env, budget int32, now sim.Time) {
	s := c.begin()
	c.pump.OnSend(c.wrap(env), budget, now)
	c.tr.end(spanOnSend, s)
}

type tracedDone struct {
	*tracedCtrl
	done cc.DoneHook
}

func (c *tracedDone) OnDone(env cc.Env, now sim.Time) {
	s := c.begin()
	c.done.OnDone(c.wrap(env), now)
	c.tr.end(spanOnDone, s)
}

type tracedPumpDone struct {
	tracedPump
	done cc.DoneHook
}

func (c *tracedPumpDone) OnDone(env cc.Env, now sim.Time) {
	s := c.begin()
	c.done.OnDone(c.wrap(env), now)
	c.tr.end(spanOnDone, s)
}

// tracedEnv is the environment a decorated controller sees. Calls that
// do transport work (sending, pacing, timers, scoreboard scans) become
// child spans, so cc self time excludes them; plain getters pass
// through untimed because timing them would cost more than they do.
type tracedEnv struct {
	cc.Env
	tr   *tracer
	sack tracedSack
}

func (e *tracedEnv) Sack() cc.Sack {
	e.sack.Sack = e.Env.Sack()
	return &e.sack
}

func (e *tracedEnv) SendSegment(seq int32, retransmit, proactive bool, now sim.Time) {
	s := e.tr.begin()
	e.Env.SendSegment(seq, retransmit, proactive, now)
	e.tr.end(spanEnv, s)
}

func (e *tracedEnv) SendProbe(seq int32, size int, now sim.Time) {
	s := e.tr.begin()
	e.Env.SendProbe(seq, size, now)
	e.tr.end(spanEnv, s)
}

func (e *tracedEnv) Pace(lo, hi int32, total sim.Duration) {
	s := e.tr.begin()
	e.Env.Pace(lo, hi, total)
	e.tr.end(spanEnv, s)
}

func (e *tracedEnv) ArmTimer(kind cc.TimerKind, d sim.Duration) {
	s := e.tr.begin()
	e.Env.ArmTimer(kind, d)
	e.tr.end(spanEnv, s)
}

func (e *tracedEnv) StopTimer(kind cc.TimerKind) {
	s := e.tr.begin()
	e.Env.StopTimer(kind)
	e.tr.end(spanEnv, s)
}

func (e *tracedEnv) StopRTO() {
	s := e.tr.begin()
	e.Env.StopRTO()
	e.tr.end(spanEnv, s)
}

// tracedSack times the scoreboard queries that scan segments.
type tracedSack struct {
	cc.Sack
	tr *tracer
}

func (q *tracedSack) DeemedLost(seq int32, dupThresh int) bool {
	s := q.tr.begin()
	v := q.Sack.DeemedLost(seq, dupThresh)
	q.tr.end(spanEnv, s)
	return v
}

func (q *tracedSack) NextLost(from int32, dupThresh, maxRetx int) int32 {
	s := q.tr.begin()
	v := q.Sack.NextLost(from, dupThresh, maxRetx)
	q.tr.end(spanEnv, s)
	return v
}

func (q *tracedSack) MarkOutstandingLost() {
	s := q.tr.begin()
	q.Sack.MarkOutstandingLost()
	q.tr.end(spanEnv, s)
}

func (q *tracedSack) Holes() []int32 {
	s := q.tr.begin()
	v := q.Sack.Holes()
	q.tr.end(spanEnv, s)
	return v
}

func (q *tracedSack) Pipe(dupThresh int) int32 {
	s := q.tr.begin()
	v := q.Sack.Pipe(dupThresh)
	q.tr.end(spanEnv, s)
	return v
}

func (q *tracedSack) HighestUnacked() int32 {
	s := q.tr.begin()
	v := q.Sack.HighestUnacked()
	q.tr.end(spanEnv, s)
	return v
}

// capture holds what the traced run records from a universe for the
// per-operation replays: every packet injected, in order, and each
// flow's sender-side stream of DATA sends and ACK receipts.
type capture struct {
	sp      *spec
	packets []netem.TraceEvent
	streams map[netem.FlowID][]netem.Packet
	order   []netem.FlowID
	segs    map[netem.FlowID]int32
	used    bool
}

// noteFlows records each captured flow's length, which the scoreboard
// replay needs.
func (ce *cellEnv) noteFlows(conns []*transport.Conn) {
	cp := ce.cap
	if cp == nil {
		return
	}
	cp.segs = make(map[netem.FlowID]int32, len(conns))
	for _, c := range conns {
		cp.segs[c.ID] = c.NumSegs
	}
}

// maxCapturedPackets bounds the memory one capture takes.
const maxCapturedPackets = 200_000

// observe installs the traced run's network hook: it counts ACKs
// delivered to data senders and feeds the capture, if any.
func (ce *cellEnv) observe(net *netem.Network) {
	if ce.tr == nil {
		return
	}
	tr, cp := ce.tr, ce.cap
	net.Trace = func(ev netem.TraceEvent) {
		switch ev.Kind {
		case netem.TraceRecv:
			if ev.Pkt.Kind == netem.KindAck {
				tr.acks++
				cp.noteStream(ev.Pkt)
			}
		case netem.TraceSend:
			if cp != nil && len(cp.packets) < maxCapturedPackets {
				cp.packets = append(cp.packets, ev)
			}
			if ev.Pkt.Kind == netem.KindData {
				cp.noteStream(ev.Pkt)
			}
		}
	}
}

func (cp *capture) noteStream(p netem.Packet) {
	if cp == nil {
		return
	}
	if cp.streams == nil {
		cp.streams = make(map[netem.FlowID][]netem.Packet)
	}
	s, ok := cp.streams[p.Flow]
	if !ok {
		cp.order = append(cp.order, p.Flow)
	}
	cp.streams[p.Flow] = append(s, p)
}
