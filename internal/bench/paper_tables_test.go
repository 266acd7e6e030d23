package bench

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// renderedTables splits rendered experiment output (Table.Render, or the
// committed bench_results.txt) into its tables: the title line is followed
// by a "workload ..." header and one line per workload up to a blank line.
// The result maps title -> workload -> the row's whitespace-separated
// fields, plus title -> header line.
func renderedTables(text string) (rows map[string]map[string][]string, headers map[string]string) {
	rows, headers = map[string]map[string][]string{}, map[string]string{}
	lines := strings.Split(text, "\n")
	for i := 0; i+1 < len(lines); i++ {
		if !strings.HasPrefix(lines[i+1], "workload ") {
			continue
		}
		title := lines[i]
		headers[title] = lines[i+1]
		rows[title] = map[string][]string{}
		for i += 2; i < len(lines) && strings.TrimSpace(lines[i]) != ""; i++ {
			f := strings.Fields(lines[i])
			rows[title][f[0]] = f
		}
	}
	return rows, headers
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestPaperTablesMatchBenchResults makes bench_results.txt a checked
// artifact: every experiment that takes a workload selection runs on
// QuickWorkloads(), and each row it renders must equal, field for field,
// the row of the same figure in the committed full sweep. The harness is
// deterministic, so any difference is a change to the compiler, the timing
// models or the harness that moved a number of the paper's evaluation —
// re-run `chopperbench` and re-commit bench_results.txt and EXPERIMENTS.md
// if the move is intended. Under the race detector only the first quick
// workload runs.
func TestPaperTablesMatchBenchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick experiment (~25 s)")
	}
	committed, err := os.ReadFile("../../bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, wantHeaders := renderedTables(string(committed))

	h := NewHarness()
	sel := QuickWorkloads()
	if raceDetector {
		sel = sel[:1]
	}
	compared := 0
	for _, exp := range []func(Selection) (*Table, error){
		h.Fig9, h.Fig9Speedups, h.Fig10, h.Fig11, h.Fig12, h.EmissionStudy, h.EnergyStudy,
	} {
		tab, err := exp(sel)
		if err != nil {
			t.Fatal(err)
		}
		got, gotHeaders := renderedTables(tab.Render())
		for title, byWorkload := range got {
			if _, ok := want[title]; !ok {
				t.Errorf("bench_results.txt has no table %q", title)
				continue
			}
			if gotHeaders[title] != wantHeaders[title] {
				t.Errorf("%s: header\n got %s\nwant %s", title, gotHeaders[title], wantHeaders[title])
			}
			for wl, fields := range byWorkload {
				compared++
				if !reflect.DeepEqual(fields, want[title][wl]) {
					t.Errorf("%s:\n got %v\nwant %v", title, fields, want[title][wl])
				}
			}
		}
	}
	if wantRows := 7 * len(sel); compared != wantRows {
		t.Errorf("compared %d rows, want %d (7 experiments x %d workloads)", compared, wantRows, len(sel))
	}
}
