// Command perfbench is the repository's benchmark. One run takes a
// workload name and a workload seed, generates that workload's inputs
// itself, runs independent simulation universes on a closed loop of
// fleet workers for --seconds, checks every universe's outputs, and
// prints its metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ledger of a
// separate traced run. --compare A B reads two directories of saved
// outputs and judges each workload × end-to-end metric against the
// bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type metricVal struct {
	name  string
	value float64
	unit  string
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (dumbbell-load, path-fetch, lossy-recovery)")
	seed := fs.Uint64("seed", referenceSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the timed part of a run lasts")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	compareMode := fs.Bool("compare", false, "compare two directories of saved outputs: --compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare takes two directories")
			return 2
		}
		bad, err := compare(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		if bad {
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	b := &bench{w: w, seed: *seed}
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("perfbench workload=%s seed=%d trace=%d universes/round=%d\n", w.name, b.seed, *trace, b.n())

	var vals []metricVal
	if *trace == 0 {
		e := b.measure(budget)
		vals = []metricVal{
			{"setup_s", e.setup.seconds, "s"},
			{"run_s", e.runS, "s"},
			{"hops_per_s", e.hopsPerS, "1/s"},
			{"cell_ms_p50", e.cellP50, "ms"},
			{"allocs_per_hop", e.allocsHop, "count"},
		}
		if e.tail.ok {
			vals = append(vals, metricVal{"cell_ms_tail", e.tail.value, "ms"})
		}
		vals = append(vals, metricVal{"resident_mb", e.residentMB, "MB"})
		for _, v := range vals {
			fmt.Printf("%-16s %14.6g %s\n", v.name, v.value, v.unit)
		}
		if e.tail.ok {
			fmt.Printf("  cell_ms_tail is p%g of %d universes", e.tail.pct, e.tail.n)
		} else {
			fmt.Printf("  cell_ms_tail omitted: %d universes cannot support a tail", e.tail.n)
		}
		fmt.Printf(", median over %d timed rounds; %d packet-hops per round\n",
			e.rounds, e.hopsRound)
	} else {
		spans := ""
		if dir := os.Getenv("PERFBENCH_OUT"); dir != "" {
			spans = filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", w.name, b.seed))
		}
		vals, err = b.traced(budget, spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for _, v := range vals {
			fmt.Printf("%-34s %14.6g %s\n", v.name, v.value, v.unit)
		}
		if spans != "" {
			fmt.Printf("  spans written to %s\n", spans)
		}
	}
	// Printed, not gated: see README.md.
	fmt.Printf("%-16s %14.6g MB\n", "peak_rss_mb", peakRSSMB())
	fmt.Printf("%-16s %14.6g ratio (%d of %d universes)\n", "failed_ratio",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", e)
	}

	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]metricJSON, len(vals))
	for _, v := range vals {
		m[v.name] = metricJSON{v.value, v.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{b.failed == 0 && len(b.errs) == 0, b.attempted, b.failed, m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
