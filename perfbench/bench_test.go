package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite reference.json from the current simulator")

// TestDigestsMatchReference runs one round of every workload at the
// reference seed with one and with two workers: both must give the same
// digests, pass every invariant, and match reference.json.
func TestDigestsMatchReference(t *testing.T) {
	got := map[string]reference{}
	for _, w := range workloads {
		var first []uint64
		for _, workers := range []int{1, 2} {
			b := &bench{w: w, seed: referenceSeed, workers: workers}
			b.setup()
			b.round(nil)
			if b.failed != 0 {
				t.Errorf("%s with %d workers: %d universes failed: %v", w.name, workers, b.failed, b.errs)
			}
			if first == nil {
				first = b.ref
			} else if !slices.Equal(first, b.ref) {
				t.Errorf("%s: digests differ between 1 and %d workers", w.name, workers)
			}
		}
		got[w.name] = reference{Round: fmt.Sprintf("%016x", roundDigest(first))}
	}
	if *update {
		// One workload per line keeps the file small and its diffs
		// readable.
		var lines []string
		for _, w := range workloads {
			data, err := json.Marshal(got[w.name])
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%q: %s", w.name, data))
		}
		out := "{\n" + strings.Join(lines, ",\n") + "\n}\n"
		if err := os.WriteFile("reference.json", []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if g, ok := want[w.name]; !ok || g.Round != got[w.name].Round {
			t.Errorf("%s: round digest %s, reference.json has %q", w.name, got[w.name].Round, g.Round)
		}
	}
}

// TestFreshSeedPassesInvariants checks a seed with no committed
// reference by the invariants alone.
func TestFreshSeedPassesInvariants(t *testing.T) {
	for _, w := range workloads {
		b := &bench{w: w, seed: 977, workers: 2, universes: min(w.universes, 60)}
		b.setup()
		b.round(nil)
		b.round(nil)
		if b.failed != 0 {
			t.Errorf("%s: %d of %d universes failed: %v", w.name, b.failed, b.attempted, b.errs)
		}
	}
}

// TestTracedRunMatchesUntraced checks that tracing changes no simulated
// output: every traced execution must reproduce its universe's untraced
// digest, and the ledger must report every per-layer metric.
func TestTracedRunMatchesUntraced(t *testing.T) {
	w, _ := workloadByName("dumbbell-load")
	b := &bench{w: w, seed: 5, workers: 2, universes: 3}
	l, err := b.traced(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("%d universes failed: %v", b.failed, b.errs)
	}
	def := loadBenchDef(t)
	for _, m := range def.PerLayer {
		if !slices.ContainsFunc(l, func(v metricVal) bool { return v.name == m.Name }) {
			t.Errorf("traced run does not report %s", m.Name)
		}
	}
	if len(l) != len(def.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(l), len(def.PerLayer))
	}
}

func loadBenchDef(t *testing.T) benchDef {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// spin busy-waits for d: a fixed cost that stands in for a slower cc
// layer.
func spin(d time.Duration) {
	for s := time.Now(); time.Since(s) < d; {
	}
}

// TestSlowCCIsAttributedToCC slows every cc callback by a fixed delay
// on lossy-recovery. run_s and cc.self_ns_per_call must rise, while the
// replay costs of the scheduler, netem and transport layers, which do
// not run cc code, must not.
func TestSlowCCIsAttributedToCC(t *testing.T) {
	if testing.Short() {
		t.Skip("measures timing")
	}
	const delay = 3 * time.Microsecond
	w, _ := workloadByName("lossy-recovery")
	measure := func(hook func()) (runS float64, l map[string]float64) {
		b := &bench{w: w, seed: 11, workers: 1, universes: 40, hook: hook}
		runS = b.measure(300 * time.Millisecond).runS
		lay, err := b.traced(300*time.Millisecond, "")
		if err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 {
			t.Fatalf("%d universes failed: %v", b.failed, b.errs)
		}
		l = map[string]float64{}
		for _, v := range lay {
			l[v.name] = v.value
		}
		return runS, l
	}
	baseRun, base := measure(nil)
	slowRun, slow := measure(func() { spin(delay) })

	if slowRun < baseRun+float64(delay.Seconds())*base["cc.callbacks"]/2 {
		t.Errorf("run_s rose from %.4f to %.4f s; %v per callback × %.0f callbacks should add more",
			baseRun, slowRun, delay, base["cc.callbacks"])
	}
	if got, want := slow["cc.self_ns_per_call"]-base["cc.self_ns_per_call"], float64(delay.Nanoseconds())/2; got < want {
		t.Errorf("cc.self_ns_per_call rose by %.0f ns, want at least %.0f", got, want)
	}
	for _, name := range []string{"sim.replay_ns_per_event", "netem.replay_ns_per_hop", "transport.replay_ns_per_ack"} {
		if r := slow[name] / base[name]; r > 1.5 {
			t.Errorf("%s rose %.2f× (%.1f → %.1f ns) though only cc was slowed", name, r, base[name], slow[name])
		}
	}
	if slow["cc.callbacks"] != base["cc.callbacks"] || slow["netem.hops"] != base["netem.hops"] {
		t.Errorf("the hook changed the simulated work: callbacks %v → %v, hops %v → %v",
			base["cc.callbacks"], slow["cc.callbacks"], base["netem.hops"], slow["netem.hops"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) ==
	// [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v; want 2.75, 5.5, 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	noisyWorse := []float64{120, 280, 160, 240, 200, 140, 260, 180, 220, 200}
	for _, c := range []struct {
		b           []float64
		lowerBetter bool
		want        string
	}{
		{shift(1.05), true, "agree"},
		{shift(1.2), true, "worse"},
		{shift(0.8), false, "worse"},
		{shift(0.5), true, "agree"},
		{noisy, true, "unresolved"},
		{noisyWorse, true, "worse"},
	} {
		if got, _ := verdict(base, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("verdict(%v, lowerBetter=%v) = %s, want %s", c.b, c.lowerBetter, got, c.want)
		}
	}
}

// TestCompareRejectsIncompleteResults checks that a saved output with no
// result line is an error and that a row missing from one side fails
// the comparison.
func TestCompareRejectsIncompleteResults(t *testing.T) {
	def := loadBenchDef(t)
	result := func(metrics ...string) string {
		var fields []string
		for _, m := range metrics {
			fields = append(fields, fmt.Sprintf("%q: {\"value\": 1, \"unit\": \"s\"}", m))
		}
		return fmt.Sprintf("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {%s}}\n", strings.Join(fields, ", "))
	}
	var all []string
	for _, m := range def.EndToEnd {
		all = append(all, m.Name)
	}
	write := func(dir, name, content string) {
		t.Helper()
		if err := os.WriteFile(dir+"/"+name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	full := func() string {
		dir := t.TempDir()
		for _, wl := range def.Workloads {
			write(dir, wl.Name+".1.out", result(all...))
		}
		return dir
	}
	t.Chdir("..")

	a := full()
	if bad, err := compare(io.Discard, a, full()); err != nil || bad {
		t.Fatalf("identical results: bad=%v err=%v, want agreement", bad, err)
	}
	crashed := full()
	write(crashed, def.Workloads[0].Name+".2.out", "perfbench workload=...\npanic: boom\n")
	if _, err := compare(io.Discard, a, crashed); err == nil {
		t.Error("an output with no result line was accepted")
	}
	missing := full()
	write(missing, def.Workloads[0].Name+".1.out", result(all[1:]...))
	if bad, err := compare(io.Discard, a, missing); err != nil || !bad {
		t.Errorf("a missing %s row: bad=%v err=%v, want a failed comparison", all[0], bad, err)
	}
}
