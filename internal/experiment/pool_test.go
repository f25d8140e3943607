package experiment

import (
	"os"
	"path/filepath"
	"testing"

	"halfback/internal/fleet"
)

// TestDistributedMatchesSerial distributes each contract exhibit's cells
// across a journaled three-worker pool and requires the rendering to
// match the one-worker run byte for byte — and, at Quick scale, the
// committed goldens. The journal must account for every cell exactly
// once (none run twice, none silently dropped), and resuming the
// finished journal must replay every success, re-run only journaled
// failures, and render the same bytes again.
func TestDistributedMatchesSerial(t *testing.T) {
	for _, id := range []string{"2", "3", "15", "adversity"} {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			t.Parallel()
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 1
			sc := chaosKillScale()
			sc.Workers = 1
			want := renderAll(e.Run(seed, sc))

			if !fleet.RaceEnabled {
				name := id
				if id[0] >= '0' && id[0] <= '9' {
					name = "fig" + id
				}
				golden, err := os.ReadFile(filepath.Join("testdata", name+"_quick.golden"))
				if err != nil {
					t.Fatal(err)
				}
				if want != string(golden) {
					line, w, g := firstDiff(string(golden), want)
					t.Fatalf("serial reference diverges from golden at line %d:\nwant %q\ngot  %q", line, w, g)
				}
			}

			path := filepath.Join(t.TempDir(), "run.journal")
			j, err := fleet.CreateJournal(path, chaosMeta(id, seed))
			if err != nil {
				t.Fatal(err)
			}
			psc := sc
			psc.Workers = 3
			psc.Run = &fleet.Run{Journal: j}
			got := renderAll(e.Run(seed, psc))
			if got != want {
				line, w, g := firstDiff(want, got)
				t.Fatalf("three-worker run diverges from serial at line %d:\nwant %q\ngot  %q", line, w, g)
			}
			total, done, failed := 0, 0, 0
			for _, p := range j.Progress() {
				total += p.Total
				done += p.Done
				failed += p.Failed
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			records := len(scanRecords(t, path))
			if records != total || len(canonical(t, path)) != total || done+failed != total {
				t.Fatalf("journal holds %d records for %d cells (%d distinct, %d done, %d failed); want one per cell",
					records, total, len(canonical(t, path)), done, failed)
			}
			// fig 2 is a static table with no sweep; every other exhibit
			// must actually have spread work across the pool.
			if total == 0 && id != "2" {
				t.Fatal("no cells executed")
			}

			r, err := fleet.ResumeJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := r.Replayable(); n != done {
				t.Fatalf("resume replays %d cells, want the %d successes", n, done)
			}
			rsc := psc
			rsc.Run = &fleet.Run{Journal: r}
			again := renderAll(e.Run(seed, rsc))
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if again != want {
				line, w, g := firstDiff(want, again)
				t.Fatalf("replayed run diverges from serial at line %d:\nwant %q\ngot  %q", line, w, g)
			}
			if n := len(scanRecords(t, path)); n != records+failed {
				t.Fatalf("replay appended %d records, want %d (only failed cells re-run)", n-records, failed)
			}
		})
	}
}

// scanRecords decodes every record of the journal at path.
func scanRecords(t *testing.T, path string) []fleet.JournalRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := fleet.ScanJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	return scan.Records
}
