package main

import "testing"

// TestLoadOldSnapshot: snapshots recorded before the batched and
// windowed engines were removed carry "batch" and "j_intra" header
// fields; they must still load so -diff can compare across the change.
func TestLoadOldSnapshot(t *testing.T) {
	f, err := loadSnapshot("../../BENCH_834cea1.json")
	if err != nil {
		t.Fatal(err)
	}
	if f.Rev != "834cea1" || len(f.Benchmarks) == 0 {
		t.Fatalf("snapshot decoded as rev %q with %d benchmarks", f.Rev, len(f.Benchmarks))
	}
}
