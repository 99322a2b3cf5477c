package system

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microbank/internal/check"
	"microbank/internal/config"
	"microbank/internal/obs"
)

// specJSON returns the encoding/json form of a valid two-core spec
// after mut edits it.
func specJSON(t testing.TB, mut func(*Spec)) []byte {
	t.Helper()
	spec := singleSpec("429.mcf", 2, 8, 4000)
	if mut != nil {
		mut(&spec)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeSpecRoundTrip: a spec's encoding/json form decodes to a
// spec with the same digest, and names its enums.
func TestDecodeSpecRoundTrip(t *testing.T) {
	data := specJSON(t, nil)
	for _, name := range []string{`"LPDDR-TSI"`, `"open"`, `"PAR-BS"`} {
		if !bytes.Contains(data, []byte(name)) {
			t.Errorf("spec JSON does not name %s: %s", name, data)
		}
	}
	spec, err := DecodeSpec(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := singleSpec("429.mcf", 2, 8, 4000).Digest()
	if got, _ := spec.Digest(); got != want {
		t.Errorf("decoded digest %s, want %s", got, want)
	}
}

// TestDecodeSpecRefuses: a spec file carries data only — no run
// controls, no unknown fields, nothing after the spec, enums by name
// only — and must describe a valid run.
func TestDecodeSpecRefuses(t *testing.T) {
	good := string(specJSON(t, nil))
	field := func(name, value string) string { return strings.Replace(good, "{", "{"+name+":"+value+",", 1) }
	for _, c := range []struct{ name, in, errHas string }{
		{"generator", field(`"GeneratorFor"`, "null"), "unknown field"},
		{"observer", field(`"Obs"`, "{}"), "unknown field"},
		{"limits", field(`"Limits"`, "{}"), "unknown field"},
		{"typo", field(`"Seeed"`, "1"), "unknown field"},
		{"trailing", good + " {}", "data after the spec"},
		{"trailing garbage", good + "x", "data after the spec"},
		{"numeric enum", strings.Replace(good, `"LPDDR-TSI"`, "2", 1), "cannot unmarshal"},
		{"unknown policy", strings.Replace(good, `"open"`, `"ajar"`, 1), "unknown page policy"},
		{"invalid run", strings.Replace(good, `"Cores":1,`, `"Cores":0,`, 1), "non-positive core counts"},
		{"empty", "", "EOF"},
	} {
		_, err := DecodeSpec(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.errHas)
		}
	}
}

// TestValidateBounds: Validate refuses each field outside the range the
// machine builder accepts, naming it, instead of letting the build
// panic or exhaust memory.
func TestValidateBounds(t *testing.T) {
	for _, c := range []struct {
		name, errHas string
		mut          func(*Spec)
	}{
		{"cores", "cores", func(s *Spec) { s.Sys.Cores = maxCores + 1 }},
		{"channels", "channels", func(s *Spec) { s.Sys.Mem.Org.Channels = 2 * maxChannels }},
		{"cache bytes", "L2 bytes", func(s *Spec) { s.Sys.L2.SizeBytes = 2 * maxCacheBytes }},
		{"instructions", "instructions", func(s *Spec) { s.InstrPerCore = maxInstrPerCore + 2 }},
		{"banks", "banks", func(s *Spec) { s.Sys.Mem.Org.BanksPerRank = 1 << 20 }},
		{"negative capacity", "capacity", func(s *Spec) { s.Sys.Mem.Org.CapacityGB = -1 }},
		{"bandwidth", "bandwidth", func(s *Spec) { s.Sys.Mem.Org.ChannelGBs = 1e-9 }},
		{"line size", "line", func(s *Spec) { s.Sys.L2.LineBytes = 128 }},
		{"delay", "delay", func(s *Spec) { s.Sys.NoCHopPS = 1e9 }},
		{"huge delay", "delay", func(s *Spec) { s.Sys.Mem.Timing.TWR = 1 << 62 }},
		{"epoch", "epoch", func(s *Spec) { s.Sys.Ctrl.RegEpoch = 1 << 62 }},
		{"slow core", "core clock", func(s *Spec) { s.Sys.Core.FreqMHz = 1 }},
		{"cache latency", "L2 latency", func(s *Spec) { s.Sys.L2.LatencyCy = 5000 }},
		{"refresh storm", "delay", func(s *Spec) { s.Sys.Mem.Timing.TRFC = 2 * s.Sys.Mem.Timing.TREFI }},
		{"refresh interval", "refresh interval", func(s *Spec) {
			s.Sys.Mem.Timing.TREFI, s.Sys.Mem.Timing.TRFC = 7800, 260
		}},
		{"interface", "interface", func(s *Spec) { s.Sys.Mem.Interface = config.HMCSerial + 1 }},
		{"scheduler", "scheduler", func(s *Spec) { s.Sys.Ctrl.Scheduler = -1 }},
		{"policy", "page policy", func(s *Spec) { s.Sys.Ctrl.PagePolicy = config.PredPerfect + 1 }},
		{"commit width", "core parameters", func(s *Spec) { s.Sys.Core.CommitWidth = 0 }},
		{"MSHRs", "cache geometry", func(s *Spec) { s.Sys.L1D.MSHRs = 0 }},
		{"mesh", "mesh", func(s *Spec) { s.Sys.MeshDim = 0 }},
		{"streams", "streams", func(s *Spec) { s.Profiles[0].Streams = 1 << 20 }},
		{"profile", "APKI", func(s *Spec) { s.Profiles[0].APKI = 0 }},
		{"profiles", "profiles", func(s *Spec) { s.Profiles = nil }},
		{"warm-up", "warm-up", func(s *Spec) { s.WarmupInstr = s.InstrPerCore }},
	} {
		spec := singleSpec("429.mcf", 2, 8, 4000)
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		c.mut(&spec)
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.errHas)
		}
		if _, err := Run(spec); err == nil {
			t.Errorf("%s: Run accepted the spec", c.name)
		}
	}
}

// smallSpec reports whether FuzzSpecFile runs the spec: a few cores,
// a short budget, and a machine small enough that a fuzz worker's
// memory stays modest.
func smallSpec(s Spec) bool {
	org := s.Sys.Mem.Org
	return s.Sys.Cores <= 4 && s.InstrPerCore <= 4000 &&
		s.Sys.L1D.SizeBytes <= 1<<20 && s.Sys.L1I.SizeBytes <= 1<<20 && s.Sys.L2.SizeBytes <= 4<<20 &&
		org.Channels <= 16 && org.RanksPerChan*org.BanksPerRank*org.NW*org.NB*org.Subarrays() <= 4096 &&
		s.Sys.MeshDim <= 8
}

// FuzzSpecFile feeds bytes through the spec-file path — decode,
// validate — and runs every small valid spec under the DRAM timing
// sanitizer in collect mode, bounded by an event budget: no input may
// panic the builder or the model, and no valid spec may break the
// DRAM protocol or stall. The corpus starts from the committed example
// files, as they are and shrunk to the run cap.
func FuzzSpecFile(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no committed spec files (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		spec.Sys.Cores = min(spec.Sys.Cores, 4)
		spec.Profiles = spec.Profiles[:spec.Sys.Cores]
		spec.InstrPerCore, spec.WarmupInstr = 4000, 2000
		small, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(small)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil || !smallSpec(spec) {
			return
		}
		ck := check.New(spec.Sys.Mem, check.ModeCollect)
		o := obs.NewObserver()
		o.AddTracer(ck)
		spec.Obs = o
		spec.Limits = &Limits{EventBudget: 1 << 18} // 8× what the seeds need
		if _, err := Run(spec); err != nil {
			var le *LimitError
			if errors.As(err, &le) && le.Kind == LimitEventBudget {
				return // a slow but legal machine: the budget, not a fault
			}
			t.Fatalf("run failed: %v\n%s", err, data)
		}
		if err := ck.Err(); err != nil {
			t.Fatalf("protocol violations: %v (first: %v)\n%s", err, ck.Violations()[0], data)
		}
	})
}
