// Package workload synthesizes per-thread instruction/memory-access
// streams standing in for the paper's trace-driven workloads (SPEC
// CPU2006 SimPoint slices, SPLASH-2, PARSEC, TPC-C/H).
//
// Each named benchmark is a Profile: a small set of statistical
// parameters — raw access rate, write fraction, cache-resident "hot"
// fraction, sequential-stream fraction and stream count, and total
// footprint — that reproduce the benchmark's qualitative memory
// behaviour (MAPKI class, row-buffer spatial locality, bank-level
// parallelism). The relative IPC/EDP effects the paper reports are
// driven by exactly these statistics, so a calibrated profile exercises
// the same architecture mechanisms as the original trace (see
// DESIGN.md's substitution table).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"microbank/internal/reuse"
)

// Access is one memory operation of a thread's instruction stream.
type Access struct {
	Addr  uint64
	Write bool
}

// Generator produces the memory side of one thread's instruction
// stream: Next returns how many non-memory instructions precede the
// next access, then the access itself.
type Generator interface {
	Next() (gap int, acc Access)
}

// Profile parameterizes a synthetic benchmark.
type Profile struct {
	Name string
	// APKI is raw loads+stores per kilo-instruction (pre-cache).
	APKI float64
	// WriteFrac is the store fraction of memory accesses.
	WriteFrac float64
	// StackFrac of accesses go to a tiny StackBytes region modeling
	// stack/hot locals — L1-resident after warm-up.
	StackFrac  float64
	StackBytes uint64
	// HotFrac of accesses go to a HotBytes-sized region that fits the
	// L2 but not the L1.
	HotFrac  float64
	HotBytes uint64
	// StreamFrac of accesses continue one of Streams sequential walks
	// with StreamStride bytes between successive accesses. Streams
	// sets the workload's intrinsic bank-level parallelism.
	StreamFrac   float64
	Streams      int
	StreamStride uint64
	// Remaining accesses are uniform random lines in FootprintBytes.
	FootprintBytes uint64
	// SharedFrac of non-hot accesses target the process-shared region
	// (multithreaded workloads only; exercises the MESI directory).
	SharedFrac float64
	// DepFrac is the probability a load depends on the previous load
	// (pointer chasing); it throttles the core's memory-level
	// parallelism the way 429.mcf's dependent chains do.
	DepFrac float64
}

// Validate checks profile consistency.
func (p Profile) Validate() error {
	if p.APKI <= 0 || p.APKI > 1000 {
		return fmt.Errorf("workload %q: APKI %v out of (0,1000]", p.Name, p.APKI)
	}
	for _, f := range []float64{p.WriteFrac, p.StackFrac, p.HotFrac, p.StreamFrac, p.SharedFrac} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workload %q: fraction %v out of [0,1]", p.Name, f)
		}
	}
	if p.StackFrac+p.HotFrac+p.StreamFrac > 1 {
		return fmt.Errorf("workload %q: stack+hot+stream fractions exceed 1", p.Name)
	}
	if p.DepFrac < 0 || p.DepFrac > 1 {
		return fmt.Errorf("workload %q: DepFrac %v out of [0,1]", p.Name, p.DepFrac)
	}
	if p.Streams <= 0 || p.StreamStride == 0 || p.FootprintBytes == 0 || p.HotBytes == 0 {
		return fmt.Errorf("workload %q: zero structural parameter", p.Name)
	}
	if p.StackFrac > 0 && p.StackBytes == 0 {
		return fmt.Errorf("workload %q: StackFrac without StackBytes", p.Name)
	}
	return nil
}

// Address-space layout: 64 GB capacity; each thread owns a 512 MB
// private slot; the last slot is the shared region.
const (
	threadSlotBytes = 512 << 20
	sharedBase      = uint64(63) * threadSlotBytes
	lineBytes       = 64
)

// Synthetic is the stochastic Generator for a Profile. Construct with
// NewSynthetic; all randomness derives from the explicit seed.
type Synthetic struct {
	p       Profile
	rng     *rand.Rand
	base    uint64
	streams []uint64 // current address per stream
	gapErr  float64  // fractional-gap accumulator
}

// NewSynthetic builds a generator for one thread of the profile.
func NewSynthetic(p Profile, thread int, seed int64) *Synthetic {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if thread < 0 || thread >= 63 {
		panic(fmt.Sprintf("workload: thread %d out of [0,63)", thread))
	}
	if p.FootprintBytes > threadSlotBytes {
		p.FootprintBytes = threadSlotBytes
	}
	if p.HotBytes > p.FootprintBytes {
		p.HotBytes = p.FootprintBytes
	}
	s := &Synthetic{
		p:    p,
		rng:  reuse.NewRand(seed ^ (int64(thread)+1)*0x9e3779b97f4a7c),
		base: uint64(thread) * threadSlotBytes,
	}
	s.streams = make([]uint64, p.Streams)
	span := p.FootprintBytes / uint64(p.Streams)
	for i := range s.streams {
		// Spread streams across the footprint with a random intra-span
		// offset: exact power-of-two spacing would alias every stream
		// onto the same DRAM bank under row interleaving.
		jitter := span / 2
		if jitter > 8<<20 {
			jitter = 8 << 20
		}
		off := uint64(0)
		if jitter >= 64 {
			off = (s.rng.Uint64() % jitter) &^ 63
		}
		s.streams[i] = s.base + uint64(i)*span + off
	}
	return s
}

// Release hands the generator's random source to the reuse store for a
// later NewSynthetic. The generator must not be drawn from afterwards.
func (s *Synthetic) Release() {
	reuse.PutOne(s.rng)
	s.rng = nil
}

// Profile returns the generator's profile.
func (s *Synthetic) Profile() Profile { return s.p }

// Next implements Generator.
func (s *Synthetic) Next() (int, Access) {
	// Non-memory instructions between accesses: the access itself is
	// one instruction, so the mean gap is 1000/APKI - 1, jittered ±50%
	// to avoid lockstep artifacts across threads.
	mean := 1000.0/s.p.APKI - 1
	if mean < 0 {
		mean = 0
	}
	g := mean * (0.5 + s.rng.Float64())
	g += s.gapErr
	gap := int(g)
	s.gapErr = g - float64(gap)

	r := s.rng.Float64()
	var a uint64
	switch {
	case r < s.p.StackFrac:
		// Stack tier: L1-resident, line-aligned draw from a tiny region.
		a = (s.base + s.rng.Uint64()%s.p.StackBytes) &^ (lineBytes - 1)
	case r < s.p.StackFrac+s.p.HotFrac:
		// L2 tier, two-level: 90% of draws reuse the head eighth of the
		// region (strong temporal locality, warms quickly); 10% touch
		// the full tier. This keeps the steady-state cold-miss tail
		// small the way real working sets do.
		span := s.p.HotBytes
		if s.rng.Float64() < 0.9 {
			span = s.p.HotBytes / 8
			if span < lineBytes {
				span = lineBytes
			}
		}
		a = (s.base + s.rng.Uint64()%span) &^ (lineBytes - 1)
	case r < s.p.StackFrac+s.p.HotFrac+s.p.StreamFrac:
		i := s.rng.Intn(len(s.streams))
		a = s.streams[i]
		span := s.p.FootprintBytes / uint64(len(s.streams))
		next := s.streams[i] + s.p.StreamStride
		lo := s.base + uint64(i)*span
		if next >= lo+span {
			next = lo
		}
		s.streams[i] = next
	default:
		a = (s.base + s.rng.Uint64()%s.p.FootprintBytes) &^ (lineBytes - 1)
	}
	// Redirect a slice of non-local traffic to the shared region.
	if s.p.SharedFrac > 0 && r >= s.p.StackFrac+s.p.HotFrac && s.rng.Float64() < s.p.SharedFrac {
		a = sharedBase + a%s.p.HotBytes
	}
	return gap, Access{Addr: a, Write: s.rng.Float64() < s.p.WriteFrac}
}

// Fixed replays an explicit access list with a constant gap — used in
// tests and micro-experiments.
type Fixed struct {
	Gap  int
	Accs []Access
	pos  int
}

// Next implements Generator; it wraps around at the end of the list.
func (f *Fixed) Next() (int, Access) {
	if len(f.Accs) == 0 {
		panic("workload: empty Fixed trace")
	}
	a := f.Accs[f.pos]
	f.pos = (f.pos + 1) % len(f.Accs)
	return f.Gap, a
}

// MAPKIClass is the paper's Table II grouping.
type MAPKIClass int

// Table II classes.
const (
	SpecHigh MAPKIClass = iota
	SpecMed
	SpecLow
)

// String names the class as in Table II.
func (c MAPKIClass) String() string {
	switch c {
	case SpecHigh:
		return "spec-high"
	case SpecMed:
		return "spec-med"
	case SpecLow:
		return "spec-low"
	default:
		return fmt.Sprintf("MAPKIClass(%d)", int(c))
	}
}

const (
	kb = uint64(1) << 10
	mb = uint64(1) << 20
)

// profiles is the named benchmark table. The parameters encode each
// benchmark's published memory character: 429.mcf is pointer-chasing
// with very low spatial locality; canneal has high spatial locality;
// TPC-H runs many concurrent scan streams (nB-hungry); RADIX streams
// write-heavily with high row locality; spec-low is cache-resident.
var profiles = map[string]Profile{
	// SPEC CPU2006, spec-high group (Table II). Main-memory MAPKI
	// targets ~25-50 (mcf highest, lowest spatial locality).
	"429.mcf": {
		Name: "429.mcf", APKI: 350, WriteFrac: 0.25,
		StackFrac: 0.55, StackBytes: 4 * kb,
		HotFrac: 0.30, HotBytes: 256 * kb,
		StreamFrac: 0.03, Streams: 2, StreamStride: 64,
		FootprintBytes: 256 * mb, DepFrac: 0.50,
	},
	"433.milc": {
		Name: "433.milc", APKI: 300, WriteFrac: 0.30,
		StackFrac: 0.45, StackBytes: 4 * kb,
		HotFrac: 0.15, HotBytes: 256 * kb,
		StreamFrac: 0.36, Streams: 4, StreamStride: 8,
		FootprintBytes: 192 * mb, DepFrac: 0.15,
	},
	"437.leslie3d": {
		Name: "437.leslie3d", APKI: 320, WriteFrac: 0.30,
		StackFrac: 0.45, StackBytes: 4 * kb,
		HotFrac: 0.17, HotBytes: 256 * kb,
		StreamFrac: 0.35, Streams: 6, StreamStride: 8,
		FootprintBytes: 128 * mb, DepFrac: 0.12,
	},
	"450.soplex": {
		Name: "450.soplex", APKI: 300, WriteFrac: 0.20,
		StackFrac: 0.45, StackBytes: 4 * kb,
		HotFrac: 0.22, HotBytes: 256 * kb,
		StreamFrac: 0.28, Streams: 3, StreamStride: 8,
		FootprintBytes: 192 * mb, DepFrac: 0.30,
	},
	"459.GemsFDTD": {
		Name: "459.GemsFDTD", APKI: 310, WriteFrac: 0.30,
		StackFrac: 0.42, StackBytes: 4 * kb,
		HotFrac: 0.15, HotBytes: 256 * kb,
		StreamFrac: 0.40, Streams: 6, StreamStride: 8,
		FootprintBytes: 256 * mb, DepFrac: 0.12,
	},
	"462.libquantum": {
		Name: "462.libquantum", APKI: 280, WriteFrac: 0.25,
		StackFrac: 0.40, StackBytes: 4 * kb,
		HotFrac: 0.05, HotBytes: 128 * kb,
		StreamFrac: 0.53, Streams: 2, StreamStride: 8,
		FootprintBytes: 64 * mb, DepFrac: 0.08,
	},
	"470.lbm": {
		Name: "470.lbm", APKI: 330, WriteFrac: 0.40,
		StackFrac: 0.40, StackBytes: 4 * kb,
		HotFrac: 0.07, HotBytes: 256 * kb,
		StreamFrac: 0.48, Streams: 8, StreamStride: 8,
		FootprintBytes: 384 * mb, DepFrac: 0.08,
	},
	"471.omnetpp": {
		Name: "471.omnetpp", APKI: 330, WriteFrac: 0.30,
		StackFrac: 0.50, StackBytes: 4 * kb,
		HotFrac: 0.35, HotBytes: 256 * kb,
		StreamFrac: 0.05, Streams: 2, StreamStride: 64,
		FootprintBytes: 160 * mb, DepFrac: 0.45,
	},
	"482.sphinx3": {
		Name: "482.sphinx3", APKI: 290, WriteFrac: 0.15,
		StackFrac: 0.47, StackBytes: 4 * kb,
		HotFrac: 0.20, HotBytes: 256 * kb,
		StreamFrac: 0.28, Streams: 4, StreamStride: 8,
		FootprintBytes: 128 * mb, DepFrac: 0.20,
	},

	// spec-med representatives (MAPKI ~4-9).
	"403.gcc": {
		Name: "403.gcc", APKI: 280, WriteFrac: 0.30,
		StackFrac: 0.60, StackBytes: 8 * kb,
		HotFrac: 0.36, HotBytes: 256 * kb,
		StreamFrac: 0.02, Streams: 2, StreamStride: 8,
		FootprintBytes: 64 * mb, DepFrac: 0.35,
	},
	"434.zeusmp": {
		Name: "434.zeusmp", APKI: 300, WriteFrac: 0.30,
		StackFrac: 0.55, StackBytes: 8 * kb,
		HotFrac: 0.38, HotBytes: 256 * kb,
		StreamFrac: 0.05, Streams: 4, StreamStride: 8,
		FootprintBytes: 96 * mb, DepFrac: 0.15,
	},
	"473.astar": {
		Name: "473.astar", APKI: 310, WriteFrac: 0.25,
		StackFrac: 0.60, StackBytes: 8 * kb,
		HotFrac: 0.37, HotBytes: 256 * kb,
		StreamFrac: 0.01, Streams: 2, StreamStride: 64,
		FootprintBytes: 64 * mb, DepFrac: 0.50,
	},

	// spec-low representatives (cache resident, MAPKI < 1).
	"400.perlbench": {
		Name: "400.perlbench", APKI: 300, WriteFrac: 0.35,
		StackFrac: 0.70, StackBytes: 8 * kb,
		HotFrac: 0.297, HotBytes: 128 * kb,
		StreamFrac: 0.002, Streams: 1, StreamStride: 64,
		FootprintBytes: 16 * mb, DepFrac: 0.35,
	},
	"444.namd": {
		Name: "444.namd", APKI: 250, WriteFrac: 0.25,
		StackFrac: 0.70, StackBytes: 8 * kb,
		HotFrac: 0.296, HotBytes: 96 * kb,
		StreamFrac: 0.003, Streams: 2, StreamStride: 8,
		FootprintBytes: 16 * mb, DepFrac: 0.20,
	},
	"453.povray": {
		Name: "453.povray", APKI: 260, WriteFrac: 0.30,
		StackFrac: 0.72, StackBytes: 8 * kb,
		HotFrac: 0.2790, HotBytes: 64 * kb,
		StreamFrac: 0.0005, Streams: 1, StreamStride: 64,
		FootprintBytes: 8 * mb, DepFrac: 0.25,
	},

	"410.bwaves": {
		Name: "410.bwaves", APKI: 310, WriteFrac: 0.25,
		StackFrac: 0.50, StackBytes: 8 * kb,
		HotFrac: 0.38, HotBytes: 384 * kb,
		StreamFrac: 0.09, Streams: 6, StreamStride: 8,
		FootprintBytes: 128 * mb, DepFrac: 0.10,
	},
	"436.cactusADM": {
		Name: "436.cactusADM", APKI: 320, WriteFrac: 0.35,
		StackFrac: 0.52, StackBytes: 8 * kb,
		HotFrac: 0.38, HotBytes: 384 * kb,
		StreamFrac: 0.07, Streams: 4, StreamStride: 8,
		FootprintBytes: 96 * mb, DepFrac: 0.12,
	},
	"458.sjeng": {
		Name: "458.sjeng", APKI: 260, WriteFrac: 0.25,
		StackFrac: 0.62, StackBytes: 8 * kb,
		HotFrac: 0.355, HotBytes: 256 * kb,
		StreamFrac: 0.005, Streams: 1, StreamStride: 64,
		FootprintBytes: 96 * mb, DepFrac: 0.45,
	},
	"464.h264ref": {
		Name: "464.h264ref", APKI: 300, WriteFrac: 0.30,
		StackFrac: 0.58, StackBytes: 8 * kb,
		HotFrac: 0.38, HotBytes: 320 * kb,
		StreamFrac: 0.025, Streams: 2, StreamStride: 8,
		FootprintBytes: 48 * mb, DepFrac: 0.25,
	},
	"465.tonto": {
		Name: "465.tonto", APKI: 280, WriteFrac: 0.30,
		StackFrac: 0.60, StackBytes: 8 * kb,
		HotFrac: 0.375, HotBytes: 256 * kb,
		StreamFrac: 0.015, Streams: 2, StreamStride: 8,
		FootprintBytes: 48 * mb, DepFrac: 0.25,
	},
	"481.wrf": {
		Name: "481.wrf", APKI: 300, WriteFrac: 0.30,
		StackFrac: 0.55, StackBytes: 8 * kb,
		HotFrac: 0.38, HotBytes: 384 * kb,
		StreamFrac: 0.05, Streams: 4, StreamStride: 8,
		FootprintBytes: 96 * mb, DepFrac: 0.15,
	},
	"483.xalancbmk": {
		Name: "483.xalancbmk", APKI: 320, WriteFrac: 0.30,
		StackFrac: 0.58, StackBytes: 8 * kb,
		HotFrac: 0.385, HotBytes: 320 * kb,
		StreamFrac: 0.005, Streams: 1, StreamStride: 64,
		FootprintBytes: 64 * mb, DepFrac: 0.55,
	},

	// Remaining spec-low members (cache resident, MAPKI < 2).
	"401.bzip2": {
		Name: "401.bzip2", APKI: 290, WriteFrac: 0.35,
		StackFrac: 0.68, StackBytes: 8 * kb,
		HotFrac: 0.315, HotBytes: 192 * kb,
		StreamFrac: 0.003, Streams: 1, StreamStride: 8,
		FootprintBytes: 32 * mb, DepFrac: 0.25,
	},
	"416.gamess": {
		Name: "416.gamess", APKI: 270, WriteFrac: 0.30,
		StackFrac: 0.72, StackBytes: 8 * kb,
		HotFrac: 0.279, HotBytes: 96 * kb,
		StreamFrac: 0.0005, Streams: 1, StreamStride: 64,
		FootprintBytes: 8 * mb, DepFrac: 0.25,
	},
	"435.gromacs": {
		Name: "435.gromacs", APKI: 270, WriteFrac: 0.28,
		StackFrac: 0.70, StackBytes: 8 * kb,
		HotFrac: 0.297, HotBytes: 128 * kb,
		StreamFrac: 0.002, Streams: 2, StreamStride: 8,
		FootprintBytes: 16 * mb, DepFrac: 0.20,
	},
	"445.gobmk": {
		Name: "445.gobmk", APKI: 270, WriteFrac: 0.30,
		StackFrac: 0.70, StackBytes: 8 * kb,
		HotFrac: 0.297, HotBytes: 160 * kb,
		StreamFrac: 0.002, Streams: 1, StreamStride: 64,
		FootprintBytes: 16 * mb, DepFrac: 0.40,
	},
	"447.dealII": {
		Name: "447.dealII", APKI: 290, WriteFrac: 0.30,
		StackFrac: 0.70, StackBytes: 8 * kb,
		HotFrac: 0.297, HotBytes: 160 * kb,
		StreamFrac: 0.002, Streams: 2, StreamStride: 8,
		FootprintBytes: 16 * mb, DepFrac: 0.30,
	},
	"454.calculix": {
		Name: "454.calculix", APKI: 280, WriteFrac: 0.30,
		StackFrac: 0.71, StackBytes: 8 * kb,
		HotFrac: 0.287, HotBytes: 128 * kb,
		StreamFrac: 0.002, Streams: 2, StreamStride: 8,
		FootprintBytes: 16 * mb, DepFrac: 0.20,
	},
	"456.hmmer": {
		Name: "456.hmmer", APKI: 300, WriteFrac: 0.35,
		StackFrac: 0.70, StackBytes: 8 * kb,
		HotFrac: 0.298, HotBytes: 96 * kb,
		StreamFrac: 0.001, Streams: 1, StreamStride: 8,
		FootprintBytes: 8 * mb, DepFrac: 0.15,
	},

	// Multithreaded workloads.
	"canneal": { // PARSEC: high spatial locality (§VI-C)
		Name: "canneal", APKI: 300, WriteFrac: 0.20,
		StackFrac: 0.45, StackBytes: 4 * kb,
		HotFrac: 0.11, HotBytes: 256 * kb,
		StreamFrac: 0.42, Streams: 2, StreamStride: 8,
		FootprintBytes: 256 * mb, SharedFrac: 0.05, DepFrac: 0.30,
	},
	"RADIX": { // SPLASH-2: high MAPKI and row-hit rates (§VI-B)
		Name: "RADIX", APKI: 340, WriteFrac: 0.45,
		StackFrac: 0.35, StackBytes: 4 * kb,
		HotFrac: 0.08, HotBytes: 256 * kb,
		StreamFrac: 0.52, Streams: 8, StreamStride: 8,
		FootprintBytes: 256 * mb, SharedFrac: 0.04, DepFrac: 0.06,
	},
	"FFT": { // SPLASH-2: strided transpose phases
		Name: "FFT", APKI: 300, WriteFrac: 0.35,
		StackFrac: 0.55, StackBytes: 4 * kb,
		HotFrac: 0.33, HotBytes: 256 * kb,
		StreamFrac: 0.10, Streams: 6, StreamStride: 128,
		FootprintBytes: 192 * mb, SharedFrac: 0.04, DepFrac: 0.10,
	},

	// Database workloads (PostgreSQL TPC-C/H in the paper).
	"TPC-C": {
		Name: "TPC-C", APKI: 320, WriteFrac: 0.35,
		StackFrac: 0.50, StackBytes: 8 * kb,
		HotFrac: 0.26, HotBytes: 2 * mb,
		StreamFrac: 0.18, Streams: 12, StreamStride: 8,
		FootprintBytes: 384 * mb, SharedFrac: 0.06, DepFrac: 0.30,
	},
	"TPC-H": { // scan/join heavy: many concurrent streams, nB-hungry
		Name: "TPC-H", APKI: 330, WriteFrac: 0.15,
		StackFrac: 0.44, StackBytes: 8 * kb,
		HotFrac: 0.14, HotBytes: 256 * kb,
		StreamFrac: 0.40, Streams: 24, StreamStride: 8,
		FootprintBytes: 448 * mb, SharedFrac: 0.04, DepFrac: 0.15,
	},
}

// Get returns the named profile.
func Get(name string) (Profile, error) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return p, nil
}

// MustGet is Get that panics on unknown names.
func MustGet(name string) Profile {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns all defined benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table II membership (§VI-A): the paper's full 29-application table,
// every member backed by a calibrated profile.
var groups = map[MAPKIClass][]string{
	SpecHigh: {"429.mcf", "433.milc", "437.leslie3d", "450.soplex", "459.GemsFDTD", "462.libquantum", "470.lbm", "471.omnetpp", "482.sphinx3"},
	SpecMed:  {"403.gcc", "410.bwaves", "434.zeusmp", "436.cactusADM", "458.sjeng", "464.h264ref", "465.tonto", "473.astar", "481.wrf", "483.xalancbmk"},
	SpecLow:  {"400.perlbench", "401.bzip2", "416.gamess", "435.gromacs", "444.namd", "445.gobmk", "447.dealII", "453.povray", "454.calculix", "456.hmmer"},
}

// Group returns the modeled benchmark names of a Table II class.
func Group(c MAPKIClass) []string {
	return append([]string(nil), groups[c]...)
}

// SpecAll returns every modeled single-threaded SPEC benchmark.
func SpecAll() []string {
	var out []string
	for _, c := range []MAPKIClass{SpecHigh, SpecMed, SpecLow} {
		out = append(out, groups[c]...)
	}
	return out
}

// Mix describes a multiprogrammed mixture: benchmark names are assigned
// round-robin to cores.
type Mix struct {
	Name    string
	Members []string
}

// MixHigh is the paper's mix-high (spec-high applications).
func MixHigh() Mix { return Mix{Name: "mix-high", Members: Group(SpecHigh)} }

// MixBlend is the paper's mix-blend (all three groups).
func MixBlend() Mix { return Mix{Name: "mix-blend", Members: SpecAll()} }

// ForCore returns the profile the mix assigns to a core index.
func (m Mix) ForCore(core int) Profile {
	return MustGet(m.Members[core%len(m.Members)])
}
