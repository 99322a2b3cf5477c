package system

import (
	"testing"

	"microbank/internal/config"
	"microbank/internal/sim"
	"microbank/internal/workload"
)

// sharedTrace builds a per-core generator where every core hammers the
// same few shared lines, forcing directory traffic between cluster L2s.
func sharedTrace(lines int) func(core int) workload.Generator {
	return func(core int) workload.Generator {
		accs := make([]workload.Access, 0, 2*lines)
		base := uint64(63) * (512 << 20) // the shared region
		for i := 0; i < lines; i++ {
			accs = append(accs,
				workload.Access{Addr: base + uint64(i)*64},              // read
				workload.Access{Addr: base + uint64(i)*64, Write: true}, // then write
			)
		}
		return &workload.Fixed{Gap: 6, Accs: accs}
	}
}

func TestCoherenceSharedLines(t *testing.T) {
	sys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 1, 1))
	sys.Cores = 8 // two clusters
	sys.Mem.Org.Channels = 2
	prof := workload.MustGet("canneal")
	profs := make([]workload.Profile, sys.Cores)
	for i := range profs {
		profs[i] = prof
	}
	spec := Spec{
		Sys: sys, Profiles: profs, InstrPerCore: 8000, Seed: 3,
		GeneratorFor: sharedTrace(64),
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 {
		t.Fatal("no progress under full sharing")
	}
	// With two clusters writing the same lines, the directory must have
	// produced invalidations and (often) dirty forwards; that traffic is
	// visible as a memory-access rate far below the raw store rate.
	if res.Mem.Reads == 0 {
		t.Fatal("no memory traffic at all")
	}
}

func TestCoherenceDirectoryGlue(t *testing.T) {
	// Directly exercise the machine's directory glue: build a 2-cluster
	// machine, fill the same block from both clusters, then write from
	// one; the directory must record the invalidation and the dirty
	// owner must forward on the next remote read.
	sys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 1, 1))
	sys.Cores = 8
	sys.Mem.Org.Channels = 1
	prof := workload.MustGet("canneal")
	profs := make([]workload.Profile, sys.Cores)
	for i := range profs {
		profs[i] = prof
	}
	m := build(Spec{Sys: sys, Profiles: profs, InstrPerCore: 1000, Seed: 1})

	block := uint64(0x40000)
	fills := 0
	fill := func(cl int, write bool) {
		m.l2Miss(cl, block, write, 0, func(at sim.Time) { fills++ })
		m.eng.Run()
	}
	fill(0, false) // cluster 0 reads: E owner
	fill(1, false) // cluster 1 reads: downgrade + forward
	if got := m.dirs[0].Sharers(block); got != 2 {
		t.Fatalf("sharers after two reads = %d, want 2", got)
	}
	fill(1, true) // cluster 1 writes: invalidate cluster 0
	if got := m.dirs[0].Sharers(block); got != 1 {
		t.Fatalf("sharers after write = %d, want 1", got)
	}
	st := m.dirs[0].Stats()
	if st.Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
	if st.Forwards == 0 {
		t.Fatal("no cache-to-cache forwards recorded")
	}
	if fills != 3 {
		t.Fatalf("fills completed = %d, want 3", fills)
	}
}
