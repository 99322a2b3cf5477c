package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"microbank/internal/stats"
)

func TestReportRoundTrip(t *testing.T) {
	r := NewReport("fig8", Options{Quick: true, Seed: 7})
	tb := stats.NewTable("demo", "A", "B")
	tb.AddRow("x", 1.5)
	tb.AddRow("y", 2)
	r.AddTable(tb)

	g := &GridData{Workload: "429.mcf", Metric: "IPC", Rel: map[[2]int]float64{}}
	for _, b := range Axis {
		for _, w := range Axis {
			g.Rel[[2]int{w, b}] = float64(w * b)
		}
	}
	r.AddGrid(g)
	r.SetMetric("ipc", 0.42)
	r.Artifact("trace", "out.trace.json")

	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if back.Tool != "microbank" || back.Experiment != "fig8" || !back.Quick {
		t.Fatalf("header fields lost: %+v", back)
	}
	// Defaults were applied in the echo.
	if back.Instr == 0 || back.Cores == 0 || back.Seed != 7 {
		t.Fatalf("option echo missing defaults: %+v", back)
	}
	if len(back.Tables) != 1 || len(back.Tables[0].Rows) != 2 ||
		back.Tables[0].Rows[0][1] != "1.500" {
		t.Fatalf("table did not round-trip: %+v", back.Tables)
	}
	if len(back.Grids) != 1 || len(back.Grids[0].Cells) != len(Axis)*len(Axis) {
		t.Fatalf("grid did not round-trip: %+v", back.Grids)
	}
	if back.Grids[0].Cells[0] != (ReportCell{NW: 1, NB: 1, Value: 1}) {
		t.Fatalf("first grid cell = %+v, want (1,1,1)", back.Grids[0].Cells[0])
	}
	if back.Metrics["ipc"] != 0.42 || back.Artifacts["trace"] != "out.trace.json" {
		t.Fatalf("metrics/artifacts lost: %+v %+v", back.Metrics, back.Artifacts)
	}
}

func TestReportWriteFile(t *testing.T) {
	r := NewReport("run", Options{})
	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back Report
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != reportSchemaVersion {
		t.Fatalf("schema version = %d, want %d", back.SchemaVersion, reportSchemaVersion)
	}
}

// TestProgressCallbackDeterminism is the heartbeat half of the
// observability determinism invariant: wiring a Progress callback into
// a sweep must not change its results at any parallelism width, and the
// callback must see exactly one call per run with a final done == total.
func TestProgressCallbackDeterminism(t *testing.T) {
	base := Options{Quick: true, Instr: 8000, Cores: 8, Seed: 7, Parallelism: 1}

	quiet, _, err := Fig8And9(base)
	if err != nil {
		t.Fatal(err)
	}

	for _, width := range []int{1, 8} {
		var mu sync.Mutex
		calls, lastDone, lastTotal := 0, 0, 0
		o := base
		o.Parallelism = width
		o.Progress = func(done, total int) {
			mu.Lock()
			calls++
			if done > lastDone {
				lastDone = done
			}
			lastTotal = total
			mu.Unlock()
		}
		noisy, _, err := Fig8And9(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(quiet, noisy) {
			t.Errorf("-j %d: Progress callback changed the sweep results", width)
		}
		if calls == 0 {
			t.Errorf("-j %d: Progress never invoked", width)
		}
		if lastDone != lastTotal || lastTotal == 0 {
			t.Errorf("-j %d: final progress %d/%d, want done == total > 0", width, lastDone, lastTotal)
		}
	}
}
