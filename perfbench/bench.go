package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"halfback/internal/fleet"
	"halfback/internal/metrics"
	"halfback/internal/scheme"
	"halfback/internal/sim"
)

// A run repeats set-up at least setupMinReps times and for at least
// setupMinTime; setup_s is the median. One set-up takes milliseconds, so
// a single one would be at the mercy of a cold cache or a preemption.
const (
	setupMinReps = 9
	setupMinTime = 500 * time.Millisecond
)

// A timed run lasts --seconds but never fewer than minRounds rounds, so
// every median over rounds has at least three samples.
const minRounds = 3

// bench is one benchmark run of one workload.
type bench struct {
	w       *workloadDef
	seed    uint64
	workers int
	// universes overrides w.universes when non-zero (tests run small
	// rounds).
	universes int
	// hook, when non-nil, runs at the start of every cc callback;
	// tests use it to slow the cc layer down.
	hook func()

	specs []spec
	// ref holds each universe's digest from its first execution in
	// this process; later executions must reproduce it.
	ref []uint64

	attempted, failed int64
	errs              []string
}

func (b *bench) n() int {
	if b.universes > 0 {
		return b.universes
	}
	return b.w.universes
}

// setupResult is what set-up measured.
type setupResult struct {
	seconds float64 // median set-up wall time
	genNs   float64 // median time inside the workload generator
	items   int
}

// setup generates the round's inputs from the seed repeatedly —
// workload populations and size CDFs through the workload package, plus
// one instance of every scheme — and keeps the last.
func (b *bench) setup() setupResult {
	var total, gen []float64
	var items int
	for start := time.Now(); len(total) < setupMinReps || time.Since(start) < setupMinTime; {
		t0 := time.Now()
		specs, n := b.w.gen(sim.NewRand(b.seed).ForkNamed(b.w.name), b.n())
		t1 := time.Now()
		for _, name := range schemesOf(specs) {
			scheme.MustNew(name)
		}
		total = append(total, time.Since(t0).Seconds())
		gen = append(gen, float64(t1.Sub(t0).Nanoseconds()))
		b.specs, items = specs, n
	}
	return setupResult{seconds: metrics.Summarize(total).Median(), genNs: metrics.Summarize(gen).Median(), items: items}
}

func schemesOf(specs []spec) []string {
	var names []string
	for i := range specs {
		if !slices.Contains(names, specs[i].scheme) {
			names = append(names, specs[i].scheme)
		}
	}
	return names
}

// cellResult is one universe execution.
type cellResult struct {
	out    outcome
	wallNs int64
	tr     *tracer
}

// roundResult is one execution of every universe of the round.
type roundResult struct {
	wall    time.Duration
	cells   []cellResult
	retries int64
}

// round runs every universe once through the fleet engine: a closed
// loop of at most b.workers goroutines, each taking the next universe
// as soon as its previous one finishes. env, when non-nil, supplies the
// traced-run environment of universe i.
func (b *bench) round(env func(i int) *cellEnv) roundResult {
	n := len(b.specs)
	var retries atomic.Int64
	t0 := time.Now()
	cells, err := fleet.MapOpts(fleet.Options{
		Workers: b.workers,
		Label:   func(i int) string { return fmt.Sprintf("%s universe %d", b.w.name, i) },
	}, n, func(i, attempt int) (cellResult, error) {
		// Rounds use the fleet's default single attempt, so this counts
		// retries only if that policy changes.
		if attempt > 0 {
			retries.Add(1)
		}
		ce := &cellEnv{hook: b.hook}
		if env != nil {
			ce = env(i)
			ce.hook = b.hook
		}
		s := time.Now()
		out := b.w.run(&b.specs[i], ce)
		return cellResult{out: out, wallNs: time.Since(s).Nanoseconds(), tr: ce.tr}, nil
	})
	res := roundResult{wall: time.Since(t0), cells: cells, retries: retries.Load()}

	failed := make([]bool, n)
	for _, je := range fleet.JobErrors(err) {
		failed[je.Index] = true
		b.noteErr(je.Error())
	}
	for i := range cells {
		o := &cells[i].out
		switch {
		case failed[i]:
		case o.err != nil:
			failed[i] = true
			b.noteErr(fmt.Sprintf("%s universe %d: %v", b.w.name, i, o.err))
		case b.ref != nil && o.digest != b.ref[i]:
			failed[i] = true
			b.noteErr(fmt.Sprintf("%s universe %d: digest %016x, first execution gave %016x", b.w.name, i, o.digest, b.ref[i]))
		}
	}
	b.attempted += int64(n)
	for _, f := range failed {
		if f {
			b.failed++
		}
	}
	if b.ref == nil {
		b.ref = make([]uint64, n)
		for i := range cells {
			b.ref[i] = cells[i].out.digest
		}
	}
	return res
}

// maxErrs bounds how many failure messages a run keeps.
const maxErrs = 20

func (b *bench) noteErr(msg string) {
	if len(b.errs) < maxErrs {
		b.errs = append(b.errs, msg)
	}
}

// roundDigest folds the universes' digests, in index order, into the
// round's digest. It depends on the inputs alone, never on the worker
// count.
func roundDigest(ds []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(buf[:], d)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// checkReference compares the first execution's round digest with the
// committed reference when the run uses the reference seed; other seeds
// are checked by the invariants alone. A differing round digest counts
// as one failed universe: at least one produced a wrong output, and
// comparing the per-universe digests of two runs tells which.
func (b *bench) checkReference() {
	ref, ok := referenceFor(b.w, b.seed, len(b.specs))
	if !ok {
		return
	}
	if got := fmt.Sprintf("%016x", roundDigest(b.ref)); got != ref.Round {
		b.failed++
		b.noteErr(fmt.Sprintf("%s: round digest %s differs from the committed reference %s", b.w.name, got, ref.Round))
	}
}

// roundStat is what a run keeps of a timed round. It is a fixed size, so
// the benchmark's own memory does not grow with the number of rounds.
type roundStat struct {
	wall                  time.Duration
	hops, busyNs, retries int64
	// cellP50 and cellTail are percentiles of the round's per-universe
	// wall times in ms; every universe runs once per round.
	cellP50  float64
	cellTail tailStat
	// residentMB is the Go runtime's resident memory when the round
	// ended.
	residentMB float64
}

func statOf(r *roundResult) roundStat {
	s := roundStat{wall: r.wall, retries: r.retries}
	cellMs := make([]float64, len(r.cells))
	for i := range r.cells {
		s.hops += r.cells[i].out.hops
		s.busyNs += r.cells[i].wallNs
		cellMs[i] = float64(r.cells[i].wallNs) / 1e6
	}
	s.cellP50 = metrics.Summarize(cellMs).Median()
	s.cellTail = tailOf(cellMs)
	return s
}

// timedRounds runs rounds until the next one would end past budget,
// but at least minRounds. each, when non-nil, sees every round before
// it is reduced to its roundStat.
func (b *bench) timedRounds(budget time.Duration, env func(i int) *cellEnv, each func(*roundResult)) []roundStat {
	var rounds []roundStat
	start := time.Now()
	var last time.Duration
	for len(rounds) < minRounds || time.Since(start)+last < budget {
		r := b.round(env)
		last = r.wall
		if each != nil {
			each(&r)
		}
		st := statOf(&r)
		st.residentMB = residentMB()
		rounds = append(rounds, st)
	}
	return rounds
}

// endToEnd is the result of a run with tracing off.
type endToEnd struct {
	setup      setupResult
	runS       float64
	hopsPerS   float64
	cellP50    float64
	tail       tailStat
	allocsHop  float64
	residentMB float64
	rounds     int
	hopsRound  int64
}

// measure is the untraced run: set-up, one warm-up round that fills
// caches and fixes each universe's digest, then timed rounds.
func (b *bench) measure(budget time.Duration) endToEnd {
	var e endToEnd
	e.setup = b.setup()
	b.round(nil)
	b.checkReference()
	runtime.GC()
	a0 := heapAllocs()
	rounds := b.timedRounds(budget, nil, nil)
	allocs := heapAllocs() - a0

	// The cell percentiles are taken within each round, over distinct
	// universes, and their medians over rounds are reported.
	p50s := make([]float64, len(rounds))
	tails := make([]float64, len(rounds))
	rss := make([]float64, len(rounds))
	for i := range rounds {
		p50s[i] = rounds[i].cellP50
		tails[i] = rounds[i].cellTail.value
		rss[i] = rounds[i].residentMB
	}
	e.rounds = len(rounds)
	e.runS = medianWall(rounds)
	e.hopsRound = rounds[0].hops
	e.hopsPerS = float64(e.hopsRound) / e.runS
	e.cellP50 = metrics.Summarize(p50s).Median()
	e.tail = rounds[0].cellTail
	e.tail.value = metrics.Summarize(tails).Median()
	e.allocsHop = float64(allocs) / float64(e.hopsRound*int64(len(rounds)))
	e.residentMB = metrics.Summarize(rss).Median()
	return e
}

// heapAllocs returns the process's cumulative count of heap
// allocations.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// residentMB returns the memory the Go runtime holds from the operating
// system, mapped and not released, in MB: nearly all of this process's
// memory but its binary, since nothing here allocates outside the Go
// runtime.
func residentMB() float64 {
	s := []rtmetrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakRSSMB returns the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tailStat is the highest percentile with at least ten samples beyond
// it.
type tailStat struct {
	pct   float64
	value float64
	n     int
	ok    bool
}

var tailPercentiles = []float64{99.9, 99, 90}

func tailOf(v []float64) tailStat {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10 {
			// Nearest-rank percentile.
			k := int(float64(n)*p/100+0.999999) - 1
			if k < 0 {
				k = 0
			}
			return tailStat{pct: p, value: s[k], n: n, ok: true}
		}
	}
	return tailStat{n: n}
}

// traced is the traced run: set-up, an untraced warm-up and timed
// rounds (the baseline for trace.overhead and the ledger), traced
// rounds that record spans and capture replay inputs, then the
// per-operation replays. It returns the per-layer ledger; work counts
// are per round, which is a fixed amount of work for a given seed.
func (b *bench) traced(budget time.Duration, spansOut string) ([]metricVal, error) {
	set := b.setup()
	b.round(nil)
	b.checkReference()

	// Scheduler work counts come from one untraced round.
	ev0, cn0 := sim.ProcessedTotal(), sim.TimerCancelsTotal()
	sim.TakePeakPending()
	first := b.round(nil)
	events := float64(sim.ProcessedTotal() - ev0)
	cancels := float64(sim.TimerCancelsTotal() - cn0)
	peak := float64(sim.TakePeakPending())

	a0 := heapAllocs()
	untraced := append([]roundStat{statOf(&first)}, b.timedRounds(budget/2, nil, nil)...)
	allocs := float64(heapAllocs() - a0)

	n := len(b.specs)
	caps := make([]*capture, min(n, b.w.captures))
	for i := range caps {
		caps[i] = &capture{sp: &b.specs[i]}
	}
	// Spans, aggregated per universe and kind over the traced rounds.
	// Only the first traced execution of a universe is captured; rounds
	// run one after another, so the used flags need no lock.
	perUniverse := make([][numSpanKinds]spanAgg, n)
	var spans [numSpanKinds]spanAgg
	acks := int64(-1)
	traced := b.timedRounds(budget/2, func(i int) *cellEnv {
		ce := &cellEnv{tr: newTracer()}
		if i < len(caps) && !caps[i].used {
			caps[i].used = true
			ce.cap = caps[i]
		}
		return ce
	}, func(r *roundResult) {
		var roundAcks int64
		for i := range r.cells {
			tr := r.cells[i].tr
			if tr == nil {
				continue
			}
			for k := range tr.agg {
				perUniverse[i][k].add(tr.agg[k])
				spans[k].add(tr.agg[k])
			}
			roundAcks += tr.acks
		}
		if acks < 0 {
			acks = roundAcks
		}
	})
	spans[spanGen] = spanAgg{N: 1, TotalNs: int64(set.genNs), SelfNs: int64(set.genNs)}
	if spansOut != "" {
		if err := writeSpans(spansOut, spans, perUniverse); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	var cb spanAgg
	for k := spanOnEstablished; k <= spanOnDone; k++ {
		cb.add(spans[k])
	}
	rounds := float64(len(traced))

	// Work counts of one round, summed over its universes.
	var o outcome
	for i := range first.cells {
		c := &first.cells[i].out
		o.hops += c.hops
		o.slowHops += c.slowHops
		o.dropsQueue += c.dropsQueue
		o.dropsLoss += c.dropsLoss
		o.maxQueue = max(o.maxQueue, c.maxQueue)
		o.flows += c.flows
		o.segs += c.segs
		o.completedSegs += c.completedSegs
		o.dataPkts += c.dataPkts
		o.retx += c.retx
		o.rtoFires += c.rtoFires
		o.flags += c.flags
	}
	hops := float64(o.hops)

	simNs := replaySim(int(peak), cancels/events)
	netemNs, netemEvents := replayNetem(caps, b.w.build)
	transportNs, err := replayTransport(caps)
	if err != nil {
		return nil, err
	}

	untracedRunS, tracedRunS := medianWall(untraced), medianWall(traced)
	var busy, wall, tracedBusy float64
	var retries int64
	for i := range untraced {
		busy += float64(untraced[i].busyNs)
		wall += float64(untraced[i].wall)
		retries += untraced[i].retries
	}
	busyRatio := busy / (float64(min(fleet.Workers(b.workers), n)) * wall)
	busy /= float64(len(untraced))
	for i := range traced {
		tracedBusy += float64(traced[i].busyNs)
	}
	ccCalls := float64(cb.N) / rounds
	ccSelfNs := safeDiv(float64(cb.SelfNs), float64(cb.N))
	buildNs := safeDiv(float64(spans[spanBuild].TotalNs), float64(spans[spanBuild].N))
	// The netem replay's cost includes the scheduler events its hops
	// cause; only the remaining events (timers) are charged at the bare
	// scheduler's rate.
	timerEvents := max(0, events-netemEvents*hops)
	explained := timerEvents*simNs + hops*netemNs + float64(acks)*transportNs + ccCalls*ccSelfNs + float64(n)*buildNs

	var l []metricVal
	add := func(name string, v float64, unit string) { l = append(l, metricVal{name, v, unit}) }
	add("sim.events", events, "count")
	add("sim.events_per_hop", events/hops, "ratio")
	add("sim.timer_cancels", cancels, "count")
	add("sim.peak_pending", peak, "count")
	add("sim.replay_ns_per_event", simNs, "ns")
	add("netem.hops", hops, "count")
	add("netem.drops_queue", float64(o.dropsQueue), "count")
	add("netem.drops_loss", float64(o.dropsLoss), "count")
	add("netem.bottleneck_max_queue_bytes", float64(o.maxQueue), "bytes")
	add("netem.replay_ns_per_hop", netemNs, "ns")
	add("netem.slowpath_share", float64(o.slowHops)/hops, "ratio")
	add("transport.flows", float64(o.flows), "count")
	add("transport.acks", float64(acks), "count")
	add("transport.retx_per_seg", safeDiv(float64(o.retx), float64(o.segs)), "ratio")
	add("transport.rto_fires", float64(o.rtoFires), "count")
	add("transport.useful_ratio", safeDiv(float64(o.completedSegs), float64(o.dataPkts)), "ratio")
	add("transport.validator_flags", float64(o.flags), "count")
	add("transport.replay_ns_per_ack", transportNs, "ns")
	add("cc.callbacks", ccCalls, "count")
	// OnSend is left out: none of the schemes these workloads run is a
	// cc.Pumper.
	for _, k := range []spanKind{spanOnEstablished, spanOnAck, spanOnLoss, spanOnTimer, spanOnDone} {
		add("cc.callbacks."+spanNames[k][len("cc."):], float64(spans[k].N)/rounds, "count")
	}
	add("cc.self_ns_per_call", ccSelfNs, "ns")
	add("cc.self_share", safeDiv(float64(cb.SelfNs), tracedBusy), "ratio")
	add("experiment.build_ns_per_cell", buildNs, "ns")
	add("experiment.allocs_per_cell", allocs/float64(len(untraced)*n), "count")
	add("workload.gen_ns", set.genNs, "ns")
	add("workload.items", float64(set.items), "count")
	add("fleet.cells", float64(n), "count")
	add("fleet.retries", float64(retries), "count")
	add("fleet.busy_ratio", busyRatio, "ratio")
	add("ledger.residual_share", 1-explained/busy, "ratio")
	add("trace.overhead", tracedRunS/untracedRunS, "ratio")
	return l, nil
}

func medianWall(rounds []roundStat) float64 {
	w := make([]float64, len(rounds))
	for i := range rounds {
		w[i] = rounds[i].wall.Seconds()
	}
	return metrics.Summarize(w).Median()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the traced run's spans as JSON: the totals per kind
// and the aggregate per universe and kind.
func writeSpans(path string, total [numSpanKinds]spanAgg, perUniverse [][numSpanKinds]spanAgg) error {
	byName := func(aggs [numSpanKinds]spanAgg) map[string]spanAgg {
		m := map[string]spanAgg{}
		for k, a := range aggs {
			if a.N > 0 {
				m[spanNames[k]] = a
			}
		}
		return m
	}
	type row struct {
		Universe int                `json:"universe"`
		Spans    map[string]spanAgg `json:"spans"`
	}
	rows := make([]row, len(perUniverse))
	for i, u := range perUniverse {
		rows[i] = row{Universe: i, Spans: byName(u)}
	}
	data, err := json.MarshalIndent(struct {
		Kinds     map[string]spanAgg `json:"kinds"`
		Universes []row              `json:"universes"`
	}{byName(total), rows}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
