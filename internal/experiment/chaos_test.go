package experiment

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"halfback/internal/fleet"
	"halfback/internal/sim"
)

// Chaos suite for the local crash-safety layer (DESIGN.md §9): seeded
// fault schedules that interrupt a journaled exhibit run again and
// again — cooperative drains at a random completed-cell count, SIGKILL
// states (the journal cut at a record boundary), torn final writes,
// flipped bits — each followed by a resume with a possibly different
// worker count. Under every schedule the finished run must produce (a)
// the exact serial rendering and (b) a canonical journal identical to
// a fault-free journaled run. The SIGKILL tests do the same with real
// process kills: the sweeping process is a re-execution of this test
// binary (see TestMain), so the kill lands on a live journal.

// TestMain dispatches the killable child role the SIGKILL tests fork.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == chaosChildFlag {
		os.Exit(chaosChildMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// chaosSeedCount is schedules per exhibit: 32 (×2 exhibits = 64) in a
// normal run, a slice of that under the race detector's ~10× slowdown.
func chaosSeedCount() int {
	if fleet.RaceEnabled {
		return 6
	}
	return 32
}

// chaosMeta is the journal identity every chaos run shares.
func chaosMeta(id string, seed uint64) fleet.JournalMeta {
	return fleet.JournalMeta{Tool: "experiment-chaos-test", Exhibit: id, Seed: seed}
}

// canonical reduces a journal file to its replay-relevant content: the
// last record per (sweep, cell), sorted by address, offsets cleared.
// Two journals whose appends happened in different physical orders —
// a fact of any concurrent or interrupted run — have equal canonical
// forms exactly when they resume to the same state.
func canonical(t *testing.T, path string) []fleet.JournalRecord {
	t.Helper()
	recs := scanRecords(t, path)
	type key struct{ sweep, cell uint32 }
	last := make(map[key]fleet.JournalRecord, len(recs))
	for _, rec := range recs {
		rec.Offset, rec.Len = 0, 0
		last[key{rec.Sweep, rec.Cell}] = rec
	}
	out := make([]fleet.JournalRecord, 0, len(last))
	for _, rec := range last {
		out = append(out, rec)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Sweep != out[b].Sweep {
			return out[a].Sweep < out[b].Sweep
		}
		return out[a].Cell < out[b].Cell
	})
	return out
}

// journalDone sums completed cells across sweeps.
func journalDone(j *fleet.Journal) int {
	done := 0
	for _, p := range j.Progress() {
		done += p.Done
	}
	return done
}

// whenDone calls fire once the journal holds at least n completed
// cells. It polls, so the trigger lands at a nearby cell boundary, not
// an exact one; stop ends the watch.
func whenDone(j *fleet.Journal, n int, fire func()) (stop func()) {
	quit := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if journalDone(j) >= n {
					fire()
					return
				}
			}
		}
	}()
	return func() { close(quit); <-finished }
}

// runInterruptible runs an exhibit that may be cancelled mid-sweep. An
// interrupted sweep panics with its aggregate error; the journal, not
// the rendering, is what an interrupted run leaves behind.
func runInterruptible(e Entry, seed uint64, sc Scale) {
	defer func() { recover() }()
	e.Run(seed, sc)
}

// Fault kinds a chaos schedule draws from.
const (
	faultDrain   = iota // cancel the context at a completed-cell count, let in-flight cells finish
	faultKill           // cut the journal at a record boundary: the state SIGKILL leaves
	faultTorn           // cut the journal inside a record: a write torn by the crash
	faultCorrupt        // flip a bit inside a record: disk corruption, damaged suffix dropped
	faultKinds
)

var faultNames = [faultKinds]string{"drain", "kill", "torn", "corrupt"}

// chaosStep is one interruption of a schedule.
type chaosStep struct {
	kind    int
	at      int // completed-cell count (drain) or record index (the rest), reduced mod the run's cells
	off     int // byte offset inside the record for torn/corrupt, reduced mod the record length
	workers int
}

func (s chaosStep) String() string {
	return fmt.Sprintf("%s@%d/w%d", faultNames[s.kind], s.at, s.workers)
}

// chaosSchedule derives 1–4 interruptions plus the final resume's
// worker count from the schedule seed.
func chaosSchedule(seed uint64) (steps []chaosStep, finalWorkers int) {
	r := sim.NewRand(sim.ChildSeed(0xC4A05, seed))
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		steps = append(steps, chaosStep{
			kind:    r.Intn(faultKinds),
			at:      r.Intn(1 << 16),
			off:     r.Intn(1 << 16),
			workers: 1 + r.Intn(4),
		})
	}
	return steps, 1 + r.Intn(4)
}

// applyChaosStep runs one interrupted leg of a schedule against the
// journal at path and leaves the file in the state the fault produces.
func applyChaosStep(t *testing.T, e Entry, seed uint64, base Scale, path string, j *fleet.Journal, cells int, st chaosStep) {
	t.Helper()
	sc := base
	sc.Workers = st.workers
	sc.Run = &fleet.Run{Journal: j}
	if st.kind == faultDrain {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sc.Ctx = ctx
		stop := whenDone(j, st.at%(cells+1), cancel)
		runInterruptible(e, seed, sc)
		stop()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	e.Run(seed, sc)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) == 0 {
		return
	}
	rec := scan.Records[st.at%len(scan.Records)]
	switch st.kind {
	case faultKill:
		data = data[:rec.Offset]
	case faultTorn:
		data = data[:rec.Offset+1+int64(st.off)%(rec.Len-1)]
	case faultCorrupt:
		data[rec.Offset+int64(st.off)%rec.Len] ^= 0x10
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSchedules runs chaosSeedCount() seeded fault schedules ×
// two journaled exhibits. Every seed either converges to the serial
// bytes and the fault-free canonical journal or names its schedule in
// the failure.
func TestChaosSchedules(t *testing.T) {
	for _, id := range []string{"3", "15"} {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			const runSeed = 1
			base := Scale{Trials: tiny.Trials, Horizon: tiny.Horizon, Workers: 1}
			want := renderAll(e.Run(runSeed, base))

			refPath := filepath.Join(t.TempDir(), "ref.journal")
			ref, err := fleet.CreateJournal(refPath, chaosMeta(id, runSeed))
			if err != nil {
				t.Fatal(err)
			}
			rsc := base
			rsc.Workers = 4
			rsc.Run = &fleet.Run{Journal: ref}
			e.Run(runSeed, rsc)
			ref.Close()
			wantCanon := canonical(t, refPath)
			if len(wantCanon) == 0 {
				t.Fatalf("fig %s journaled no cells — the chaos identity check would be vacuous", id)
			}
			cells := len(wantCanon)

			for s := 0; s < chaosSeedCount(); s++ {
				seed := uint64(s)
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					t.Parallel()
					steps, finalWorkers := chaosSchedule(seed)
					path := filepath.Join(t.TempDir(), "run.journal")
					j, err := fleet.CreateJournal(path, chaosMeta(id, runSeed))
					if err != nil {
						t.Fatal(err)
					}
					for _, st := range steps {
						applyChaosStep(t, e, runSeed, base, path, j, cells, st)
						if j, err = fleet.ResumeJournal(path); err != nil {
							t.Fatalf("schedule %d %v: resume after %v: %v", seed, steps, st, err)
						}
					}
					sc := base
					sc.Workers = finalWorkers
					sc.Run = &fleet.Run{Journal: j}
					got := renderAll(e.Run(runSeed, sc))
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					if got != want {
						line, w, g := firstDiff(want, got)
						t.Fatalf("schedule %d %v rendering diverges from serial at line %d:\nwant %q\ngot  %q",
							seed, steps, line, w, g)
					}
					if canon := canonical(t, path); !reflect.DeepEqual(canon, wantCanon) {
						t.Fatalf("schedule %d %v canonical journal diverges from fault-free run: %d records vs %d",
							seed, steps, len(canon), len(wantCanon))
					}
				})
			}
		})
	}
}

// chaosChildFlag marks a re-execution of the test binary as the
// killable sweeping process.
const chaosChildFlag = "-hbchaos.child"

// chaosKillScale mirrors the other crash tests: Quick normally, tiny
// under the race detector.
func chaosKillScale() Scale {
	if fleet.RaceEnabled {
		return Scale{Trials: tiny.Trials, Horizon: tiny.Horizon, Workers: 4}
	}
	return Scale{Trials: Quick.Trials, Horizon: Quick.Horizon, Workers: 4}
}

// chaosChildMain creates (or resumes) the journal, runs the exhibit on
// four workers, and SIGKILLs its own process once the journal holds
// -killat completed cells. Exit status 0 means the run finished before
// the kill could land.
func chaosChildMain(args []string) int {
	fs := flag.NewFlagSet("chaos-child", flag.ContinueOnError)
	path := fs.String("journal", "", "journal path")
	id := fs.String("exhibit", "", "exhibit id")
	seed := fs.Uint64("seed", 1, "run seed")
	killAt := fs.Int("killat", 1, "completed cells before SIGKILL")
	resume := fs.Bool("resume", false, "resume the journal instead of creating it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	die := func(err error) int { fmt.Fprintln(os.Stderr, "chaos child:", err); return 1 }
	e, err := Lookup(*id)
	if err != nil {
		return die(err)
	}
	var j *fleet.Journal
	if *resume {
		j, err = fleet.ResumeJournal(*path)
	} else {
		j, err = fleet.CreateJournal(*path, chaosMeta(*id, *seed))
	}
	if err != nil {
		return die(err)
	}
	stop := whenDone(j, *killAt, func() {
		self, _ := os.FindProcess(os.Getpid())
		self.Kill()
		select {} // the kill is asynchronous; never let the run continue past it
	})
	sc := chaosKillScale()
	sc.Run = &fleet.Run{Journal: j}
	e.Run(*seed, sc)
	stop()
	j.Close()
	return 0
}

// killChild runs one chaos child to its SIGKILL and fails the test if
// the run finished first — a kill after completion proves nothing.
func killChild(t *testing.T, id, path string, killAt int, resume bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], chaosChildFlag,
		"-journal="+path, "-exhibit="+id, "-seed=1",
		"-killat="+strconv.Itoa(killAt), "-resume="+strconv.FormatBool(resume))
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	if cmd.ProcessState == nil {
		t.Fatalf("child did not start: %v", err)
	}
	if code := cmd.ProcessState.ExitCode(); code != -1 {
		t.Fatalf("child exited with status %d instead of dying to SIGKILL at %d cells", code, killAt)
	}
}

// chaosKillReference runs the exhibit uninterrupted and returns its
// rendering plus the number of cells a full journal holds.
func chaosKillReference(t *testing.T, e Entry, id string) (string, int) {
	t.Helper()
	sc := chaosKillScale()
	want := renderAll(e.Run(1, sc))
	refPath := filepath.Join(t.TempDir(), "ref.journal")
	ref, err := fleet.CreateJournal(refPath, chaosMeta(id, 1))
	if err != nil {
		t.Fatal(err)
	}
	sc.Run = &fleet.Run{Journal: ref}
	e.Run(1, sc)
	ref.Close()
	cells := len(canonical(t, refPath))
	if cells < 100 {
		t.Fatalf("fig %s journaled %d cells — too few to kill reliably mid-sweep", id, cells)
	}
	return want, cells
}

// resumeAndCompare finishes a killed run in-process and requires the
// uninterrupted bytes, after checking the kills left a partial journal.
func resumeAndCompare(t *testing.T, e Entry, path, want string, cells int) {
	t.Helper()
	j, err := fleet.ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	kept := j.Replayable()
	if kept == 0 || kept >= cells {
		t.Fatalf("killed run left %d of %d cells replayable; the kill did not land mid-sweep", kept, cells)
	}
	sc := chaosKillScale()
	sc.Run = &fleet.Run{Journal: j}
	got := renderAll(e.Run(1, sc))
	if got != want {
		line, w, g := firstDiff(want, got)
		t.Fatalf("resumed run diverges from uninterrupted run at line %d:\nwant %q\ngot  %q", line, w, g)
	}
}

// TestChaosWorkerSIGKILL SIGKILLs the process running the Fig. 6
// PlanetLab sweep (780 cells at Quick scale) the instant its first cell
// is journaled — strictly mid-sweep, with the other pool workers' cells
// in flight and lost. The resumed run must re-execute exactly what was
// lost and render the uninterrupted bytes.
func TestChaosWorkerSIGKILL(t *testing.T) {
	e, err := Lookup("6")
	if err != nil {
		t.Fatal(err)
	}
	want, cells := chaosKillReference(t, e, "6")
	path := filepath.Join(t.TempDir(), "run.journal")
	killChild(t, "6", path, 1, false)
	resumeAndCompare(t, e, path, want, cells)
}

// TestChaosCoordinatorSIGKILL kills the process that owns the Fig. 5
// journal twice: once a third of the cells are journaled, and again
// after a second process has resumed and pushed past two thirds. A
// third, in-process resume must render the uninterrupted bytes: each
// killed process leaves a valid journal prefix that the next one
// replays and extends.
func TestChaosCoordinatorSIGKILL(t *testing.T) {
	e, err := Lookup("5")
	if err != nil {
		t.Fatal(err)
	}
	want, cells := chaosKillReference(t, e, "5")
	path := filepath.Join(t.TempDir(), "run.journal")
	killChild(t, "5", path, cells/3, false)
	killChild(t, "5", path, 2*cells/3, true)
	resumeAndCompare(t, e, path, want, cells)
}
