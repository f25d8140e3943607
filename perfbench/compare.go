package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchDef is the part of BENCHMARK.json the compare mode reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// runResult is the JSON object a run prints as its last line.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// loadResults reads every regular file under dir whose base name starts
// with a workload name, and returns the metric values of each run by
// workload and metric. A run's result is the last line of the file
// that parses as a result object. A file without one, such as the
// output of a run that crashed, and a run whose outputs were wrong are
// errors.
func loadResults(dir string, workloads []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		wl := workloadOfFile(d.Name(), workloads)
		if wl == "" {
			return nil
		}
		res, ok, err := lastResult(path)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s: no result line; the run did not finish", path)
		}
		if !res.Correct {
			return fmt.Errorf("%s: the run's outputs were wrong; its timings are not comparable", path)
		}
		if out[wl] == nil {
			out[wl] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			out[wl][name] = append(out[wl][name], m.Value)
		}
		return nil
	})
	return out, err
}

// workloadOfFile returns the longest workload name the file name starts
// with, followed by a separator, or "".
func workloadOfFile(base string, workloads []string) string {
	best := ""
	for _, w := range workloads {
		rest, ok := strings.CutPrefix(base, w)
		if ok && len(w) > len(best) && (rest == "" || strings.ContainsRune("._-", rune(rest[0]))) {
			best = w
		}
	}
	return best
}

func lastResult(path string) (runResult, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return runResult{}, false, err
	}
	defer f.Close()
	var res runResult
	found := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r runResult
		if json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			res, found = r, true
		}
	}
	return res, found, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of v
// by the same method as Python's statistics.quantiles(v, n=4)
// (exclusive, linear interpolation).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict judges the change B against the base A for one metric: worse
// when B's median is worse than A's by more than the bound, however
// noisy either side; otherwise unresolved when either side's quartile
// spread, as a share of its median, is wider than the bound, unless
// every run of B beats every run of A; otherwise agree.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	if am == 0 {
		return "unresolved", 0
	}
	worse := (bm - am) / am
	if !lowerBetter {
		worse = -worse
	}
	allBetter := slices.Max(b) < slices.Min(a)
	if !lowerBetter {
		allBetter = slices.Min(b) > slices.Max(a)
	}
	spread := max((a3-a1)/am, safeDiv(b3-b1, bm))
	switch {
	case worse > bound:
		return "worse", worse
	case spread > bound && !allBetter:
		return "unresolved", worse
	default:
		return "agree", worse
	}
}

// benchPath is the benchmark definition, relative to the repository
// root the benchmark runs from.
const benchPath = "BENCHMARK.json"

// compare prints one row per workload × end-to-end metric and reports
// whether any row is worse or missing from either side.
func compare(w io.Writer, dirA, dirB string) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	var names []string
	for _, wl := range def.Workloads {
		names = append(names, wl.Name)
	}
	resA, err := loadResults(dirA, names)
	if err != nil {
		return false, err
	}
	resB, err := loadResults(dirB, names)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-16s %-16s %5s %-36s %-36s %8s %s\n", "workload", "metric", "bound",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "verdict")
	for _, wl := range names {
		for _, m := range def.EndToEnd {
			a, b := resA[wl][m.Name], resB[wl][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-16s %-16s %5.2f missing (A has %d runs, B has %d)\n", wl, m.Name, m.Bound, len(a), len(b))
				bad = true
				continue
			}
			v, worse := verdict(a, b, m.Better == "lower", m.Bound)
			if v == "worse" {
				bad = true
			}
			fmt.Fprintf(w, "%-16s %-16s %5.2f %-36s %-36s %+7.1f%% %s\n", wl, m.Name, m.Bound,
				summary(a), summary(b), 100*worse, v)
		}
	}
	fmt.Fprintln(w, "B vs A is the change of B's median toward worse (positive = worse).")
	return bad, nil
}

func summary(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(v))
}
