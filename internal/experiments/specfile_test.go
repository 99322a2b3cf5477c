package experiments

// Spec files describe runs from outside the program. These tests hold
// the two promises that make them the one run description: every run
// the shipped experiments plan is expressible as a file (it validates
// and survives the file encoding with its digest intact), and each
// committed example file is the very run a sweep cell builds, so both
// share store entries.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"microbank/internal/check/golden"
	"microbank/internal/config"
	"microbank/internal/system"
)

// TestPlannedSpecsValidateAndRoundTrip collects every spec the shipped
// experiments' plans build, at quick and full fidelity, without
// simulating: each must pass Validate, and its json.Marshal form must
// decode through system.DecodeSpec to a spec with the same digest.
func TestPlannedSpecsValidateAndRoundTrip(t *testing.T) {
	var mu sync.Mutex
	specs := map[string]system.Spec{}
	runSpec = func(spec system.Spec) (system.Result, error) {
		d, err := spec.Digest()
		if err != nil {
			t.Errorf("planned spec without a digest: %v", err)
		}
		mu.Lock()
		specs[d] = spec
		mu.Unlock()
		return system.Result{IPC: 1}, nil
	}
	defer func() { runSpec = system.Run }()
	for _, quick := range []bool{true, false} {
		o := Options{Quick: quick, Parallelism: 2}
		for name, run := range map[string]func() error{
			"fig8/9":    func() error { _, _, err := Fig8And9(o); return err },
			"fig10":     func() error { _, err := Fig10(o); return err },
			"fig12":     func() error { _, err := Fig12(o); return err },
			"fig13":     func() error { _, err := Fig13(o); return err },
			"fig14":     func() error { _, err := Fig14(o); return err },
			"headline":  func() error { _, err := Headline(o); return err },
			"ablations": func() error { _, err := Ablations(o); return err },
			"qos":       func() error { _, err := QoSSweep(o); return err },
			"related":   func() error { _, err := RelatedWork(o); return err },
		} {
			if err := run(); err != nil {
				t.Fatalf("%s (quick %v): %v", name, quick, err)
			}
		}
	}
	if len(specs) < 500 {
		t.Fatalf("collected only %d distinct specs", len(specs))
	}
	for d, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Errorf("planned spec refused: %v", err)
			continue
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := system.DecodeSpec(bytes.NewReader(data))
		if err != nil {
			t.Errorf("planned spec does not decode: %v", err)
			continue
		}
		if got, _ := back.Digest(); got != d {
			t.Errorf("round trip moved the digest of %s", data)
		}
	}
}

// specFiles are the committed example spec files and the sweep cells
// they reproduce: the single-core SPEC and TPC-H runs at the full
// per-core budget, and the quick multicore mix-high cell of Figs. 10
// and 14. UPDATE_GOLDEN=1 rewrites them from specFor.
var specFiles = []struct {
	file, workload string
	pt             point
	o              Options
}{
	{"mcf_lpddr-tsi_1x1.json", "429.mcf", point{iface: config.LPDDRTSI, nW: 1, nB: 1}, Options{}},
	{"tpch_lpddr-tsi_2x8.json", "TPC-H", point{iface: config.LPDDRTSI, nW: 2, nB: 8}, Options{}},
	{"mixhigh16_lpddr-tsi_2x8.json", "mix-high", point{iface: config.LPDDRTSI, nW: 2, nB: 8}, Options{Quick: true}},
}

// TestSpecFilesMatchSweepCells: each committed spec file holds the
// indented JSON of the spec specFor builds in Go, and decodes to a spec
// with that spec's digest.
func TestSpecFilesMatchSweepCells(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "specs")
	for _, f := range specFiles {
		want := specFor(f.workload, f.pt, f.o.withDefaults())
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		path := filepath.Join(dir, f.file)
		if golden.Update() {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, data) {
			t.Errorf("%s is not the JSON of specFor(%q) (err %v); UPDATE_GOLDEN=1 rewrites it", f.file, f.workload, err)
		}
		got, err := system.ReadSpecFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gd, _ := got.Digest()
		wd, _ := want.Digest()
		if gd != wd {
			t.Errorf("%s: digest %s, want that of specFor(%q): %s", f.file, gd, f.workload, wd)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != len(specFiles) {
		t.Errorf("examples/specs holds %d files, this test checks %d", len(entries), len(specFiles))
	}
}
