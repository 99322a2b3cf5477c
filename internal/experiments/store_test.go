package experiments

// Integration tests for the content-addressed result store under the
// campaign layer: byte-identity with the store on and off, cross-
// campaign sharing, the (model fingerprint, spec digest) key,
// corruption and schema-drift healing, and the degrade-don't-fail
// contract for store write failures (which the fault-injecting FS
// makes testable).

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"microbank/internal/check/golden"
	"microbank/internal/config"
	"microbank/internal/store"
	"microbank/internal/system"
)

// storeRes builds a collect-mode Resilience checkpointing into a store
// at dir, collecting degrade warnings instead of printing them.
func storeRes(t *testing.T, dir string, fsys store.FS, warns *[]string) *Resilience {
	t.Helper()
	s, err := store.Open(dir, fsys)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	r := &Resilience{Collect: true, Store: s}
	if warns != nil {
		r.OnDegrade = func(msg string) { *warns = append(*warns, msg) }
	}
	return r
}

// TestStoreSweepByteIdenticalAndShared is the tentpole acceptance
// test: a store-backed campaign's report is byte-identical to a plain
// one, and a second campaign over the same store simulates nothing —
// every cell replays from disk.
func TestStoreSweepByteIdenticalAndShared(t *testing.T) {
	plain := headlineReport(t, resOpts(&Resilience{Collect: true}))

	dir := t.TempDir()
	r1 := storeRes(t, dir, nil, nil)
	first := headlineReport(t, resOpts(r1))
	if !bytes.Equal(first, plain) {
		t.Fatalf("store-backed report drifted from plain run:\n%s", golden.Diff(plain, first))
	}
	st := r1.Store.Stats()
	if st.Puts == 0 || st.Hits != 0 {
		t.Fatalf("first campaign stats = %+v, want puts > 0 and no hits", st)
	}

	// A different process (modeled as a fresh handle over the same
	// directory) re-running the same campaign: all cells replay.
	r2 := storeRes(t, dir, nil, nil)
	second := headlineReport(t, resOpts(r2))
	if !bytes.Equal(second, plain) {
		t.Fatalf("replayed report drifted:\n%s", golden.Diff(plain, second))
	}
	st2 := r2.Store.Stats()
	if st2.Puts != 0 || st2.Hits == 0 || st2.Misses != 0 {
		t.Fatalf("replay campaign stats = %+v, want hits only", st2)
	}
}

// TestStoreCorruptEntryResimulated flips bytes in a committed entry:
// the next campaign must quarantine it, re-simulate that one cell, and
// still produce a byte-identical report — degrade, never a crash or a
// silently wrong result.
func TestStoreCorruptEntryResimulated(t *testing.T) {
	plain := headlineReport(t, resOpts(&Resilience{Collect: true}))
	dir := t.TempDir()
	headlineReport(t, resOpts(storeRes(t, dir, nil, nil)))

	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != ".res" {
			continue
		}
		p := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
		break // one poisoned entry is the scenario
	}
	if corrupted == 0 {
		t.Fatal("no store entries found to corrupt")
	}

	r := storeRes(t, dir, nil, nil)
	got := headlineReport(t, resOpts(r))
	if !bytes.Equal(got, plain) {
		t.Fatalf("post-corruption report drifted:\n%s", golden.Diff(plain, got))
	}
	st := r.Store.Stats()
	if st.Quarantined == 0 {
		t.Fatalf("corrupt entry was not quarantined: %+v", st)
	}
	if st.Puts == 0 {
		t.Fatalf("re-simulated cell was not re-committed: %+v", st)
	}
	if des, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(des) == 0 {
		t.Fatalf("quarantine directory empty (%v) after corruption", err)
	}
}

// headlineSpecs are the run specs of the resOpts headline campaign,
// in job order.
func headlineSpecs() []system.Spec {
	o := resOpts(nil).withDefaults()
	var specs []system.Spec
	for _, name := range specGroup("spec-high", o.Quick) {
		specs = append(specs,
			specFor(name, point{iface: config.DDR3PCB, nW: 1, nB: 1}, o),
			specFor(name, point{iface: config.LPDDRTSI, nW: 2, nB: 8}, o))
	}
	return specs
}

// TestStoreServesOnlyCurrentEntries seeds a store with every cell's
// committed payload, stored as it is now (the control: all served), as
// a build with another model fingerprint would have stored it, and as a
// build whose Result had one field fewer or one unknown field more
// would have encoded it. Those entries must all miss — decoding a
// drifted payload would silently zero or drop data — so every cell is
// re-simulated and rewritten, and the report stays byte-identical.
func TestStoreServesOnlyCurrentEntries(t *testing.T) {
	plain := headlineReport(t, resOpts(&Resilience{Collect: true}))
	ref := storeRes(t, t.TempDir(), nil, nil)
	headlineReport(t, resOpts(ref))
	specs := headlineSpecs()
	same := func(p []byte) []byte { return p }
	for _, tc := range []struct {
		name   string
		fp     string
		edit   func([]byte) []byte
		served bool
	}{
		{"current", system.ModelFingerprint, same, true},
		{"old fingerprint", "fingerprint of an older model", same, false},
		{"missing field", system.ModelFingerprint, func(p []byte) []byte {
			return regexp.MustCompile(`,"MAPKI":[^,]*`).ReplaceAll(p, nil)
		}, false},
		{"unknown field", system.ModelFingerprint, func(p []byte) []byte {
			return append([]byte(`{"RetiredField":1,`), p[1:]...)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seed, err := store.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				key, _ := spec.Digest()
				payload, ok := ref.Store.Get(system.ModelFingerprint, key)
				if !ok {
					t.Fatal("reference campaign left a cell uncommitted")
				}
				if err := seed.Put(tc.fp, key, tc.edit(payload)); err != nil {
					t.Fatal(err)
				}
			}
			r := storeRes(t, dir, nil, nil)
			if got := headlineReport(t, resOpts(r)); !bytes.Equal(got, plain) {
				t.Fatalf("seeded store changed the report:\n%s", golden.Diff(plain, got))
			}
			want := uint64(len(specs)) // every cell re-simulated
			if tc.served {
				want = 0
			}
			if st := r.Store.Stats(); st.Puts != want {
				t.Fatalf("store stats = %+v, want %d cells re-simulated", st, want)
			}
		})
	}
}

// TestStoreSharedAcrossExperiments: the store shares runs across
// processes and experiments, each modeled as a fresh Resilience over
// the same directory. The first campaign's Fig. 8 simulates its 100
// distinct specs and replays spec-high's 429.mcf from memory. A second
// campaign replays all of Fig. 8 (100 store hits, 25 memory replays)
// and then Fig. 10 from memory wherever it can — 12 of its single-core
// cells are Fig. 8 grid points and 12 more repeat within Fig. 10 — so
// only Fig. 10's 28 new specs simulate, whatever the sweep width (-j
// is not part of what a cell simulates).
func TestStoreSharedAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick Fig. 8 and Fig. 10 sweeps")
	}
	dir := t.TempDir()
	o := Options{Quick: true, Instr: 4000, Parallelism: 2}

	r1 := storeRes(t, dir, nil, nil)
	o.Res = r1
	_, tally := fig8Tally(t, o)
	if st := r1.Store.Stats(); st.Hits != 0 || st.Misses != 100 || st.Puts != 100 {
		t.Fatalf("first fig8 store stats = %+v, want 0 hits, 100 misses, 100 puts", st)
	}
	if sim := tally.simulated(); sim != 100 || tally.progress-sim != 25 {
		t.Fatalf("first fig8: %d cells simulated, %d replayed; want 100, 25",
			sim, tally.progress-sim)
	}

	r2 := storeRes(t, dir, nil, nil)
	o.Res = r2
	_, tally = fig8Tally(t, o)
	if st := r2.Store.Stats(); st.Hits != 100 || st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("second fig8 store stats = %+v, want 100 hits and nothing else", st)
	}
	if sim := tally.simulated(); sim != 0 || tally.progress != 125 {
		t.Fatalf("second fig8: %d cells simulated, %d replayed; want 0, 125",
			sim, tally.progress-sim)
	}
	o.Parallelism = 1
	if _, err := Fig10(o); err != nil {
		t.Fatal(err)
	}
	if st := r2.Store.Stats(); st.Hits != 100 || st.Misses != 28 || st.Puts != 28 {
		t.Fatalf("second fig8+fig10 store stats = %+v, want 100 hits, 28 misses, 28 puts", st)
	}
}

// TestStoreWriteFailureDegrades: a store write failure (ENOSPC) —
// from the first commit, or mid-campaign after some commits landed —
// disables store commits with a single warning while the campaign's
// results stay byte-identical and no healthy cell is failed.
func TestStoreWriteFailureDegrades(t *testing.T) {
	plain := headlineReport(t, resOpts(&Resilience{Collect: true}))
	for _, tc := range []struct {
		name string
		skip int // staged writes that succeed before ENOSPC
	}{{"first commit", 0}, {"mid-campaign", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			efs := store.NewErrFS(nil)
			var warns []string
			r := storeRes(t, t.TempDir(), efs, &warns)
			efs.Inject(store.Fault{Op: store.OpWrite, Match: "tmp",
				Skip: tc.skip, Count: 1 << 20, Err: store.ErrNoSpace})

			got := headlineReport(t, resOpts(r))
			if !bytes.Equal(got, plain) {
				t.Fatalf("store-degraded report drifted from plain run:\n%s", golden.Diff(plain, got))
			}
			if n := r.Log.Len(); n != 0 {
				t.Fatalf("store write failure produced %d cell failures: %+v", n, r.Log.Failures())
			}
			if len(warns) != 1 {
				t.Fatalf("got %d degrade warnings, want exactly 1: %q", len(warns), warns)
			}
			if r.Store.WriteErr() == nil {
				t.Fatal("store writes not disabled after injected ENOSPC")
			}
			if got := r.Store.Stats().Puts; got != uint64(tc.skip) {
				t.Fatalf("%d entries committed, want the %d before the failure", got, tc.skip)
			}
		})
	}
}
