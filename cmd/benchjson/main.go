// Command benchjson runs the simulator's perf-trajectory benchmark set
// (engine churn, controller candidate selection, end-to-end headline
// run) and writes the parsed results — ns/op, B/op, allocs/op, and any
// custom metrics such as sim_s/wall_s — to BENCH_<rev>.json, so the
// repository accumulates a machine-readable performance history that
// future changes can be compared against (`make bench-json`).
//
// With -diff, it instead compares two recorded snapshots and prints a
// per-benchmark ns/op delta and speedup table (`make bench-compare`):
//
//	benchjson -diff BENCH_old.json BENCH_new.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchPattern selects the trajectory set: every engine microbenchmark,
// the controller's best/eval/formBatch loops, the end-to-end headline
// run anchor, and the sweep throughput family.
const benchPattern = "BenchmarkEngine|BenchmarkBest|BenchmarkEval|BenchmarkFormBatch|BenchmarkHeadlineRun|BenchmarkSweep"

var benchPackages = []string{"./internal/sim", "./internal/memctrl", "."}

// Result is one parsed benchmark line.
type Result struct {
	Name     string             `json:"name"`
	Iters    int64              `json:"iters"`
	NsPerOp  float64            `json:"ns_op"`
	BytesOp  float64            `json:"bytes_op"`
	AllocsOp float64            `json:"allocs_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_<rev>.json schema. Older snapshots also carry
// "batch" and "j_intra" header fields; decoding ignores them.
type File struct {
	Rev        string   `json:"rev"`
	Dirty      bool     `json:"dirty"`
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	BenchTime  string   `json:"benchtime"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	benchtime := flag.String("benchtime", "", "go test -benchtime value (empty = go default; CI uses 1x)")
	rev := flag.String("rev", "", "revision label for the output file (default: git short HEAD)")
	out := flag.String("o", "", "output path (default BENCH_<rev>.json)")
	diff := flag.Bool("diff", false, "compare two snapshots: benchjson -diff OLD.json NEW.json")
	allowMissing := flag.Bool("allow-missing", false, "with -diff: benchmarks dropped from NEW are reported but do not fail the comparison")
	maxRegress := flag.Float64("max-regress", 0, "with -diff: fail if a gated benchmark regresses by more than this percent (0 = report only)")
	gateMetric := flag.String("gate-metric", "ns", "with -diff -max-regress: metric to gate on: ns | allocs | cells (cells/sec; a decrease is the regression)")
	gateMatch := flag.String("gate-match", "", "with -diff -max-regress: regexp of benchmark names to gate (empty = all)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -diff [-allow-missing] [-max-regress PCT [-gate-metric ns|allocs] [-gate-match RE]] OLD.json NEW.json")
			os.Exit(2)
		}
		gate, err := buildGate(*maxRegress, *gateMetric, *gateMatch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *allowMissing, gate))
	}

	r, dirty := *rev, false
	if r == "" {
		r, dirty = gitRev()
	}

	args := []string{"test", "-run", "^$", "-bench", benchPattern, "-benchmem"}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	args = append(args, benchPackages...)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: benchmarks failed: %v\n", err)
		os.Exit(1)
	}
	os.Stderr.Write(buf.Bytes())

	f := File{
		Rev:        r,
		Dirty:      dirty,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		BenchTime:  *benchtime,
		Benchmarks: parse(&buf),
	}
	if len(f.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines parsed")
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = "BENCH_" + r + ".json"
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", path, len(f.Benchmarks))
}

// gate is the -max-regress policy: which benchmarks to hold to which
// metric, and how much relative growth fails the diff. A nil *gate
// means report-only.
type gate struct {
	maxPct float64
	metric string // "ns" | "allocs"
	match  *regexp.Regexp
}

// buildGate validates the gating flags. maxPct 0 disables the gate.
func buildGate(maxPct float64, metric, match string) (*gate, error) {
	if maxPct <= 0 {
		return nil, nil
	}
	if metric != "ns" && metric != "allocs" && metric != "cells" {
		return nil, fmt.Errorf("unknown -gate-metric %q (ns | allocs | cells)", metric)
	}
	re, err := regexp.Compile(match)
	if err != nil {
		return nil, fmt.Errorf("-gate-match: %w", err)
	}
	return &gate{maxPct: maxPct, metric: metric, match: re}, nil
}

// value extracts the gated metric from one result.
func (g *gate) value(r Result) float64 {
	switch g.metric {
	case "allocs":
		return r.AllocsOp
	case "cells":
		return r.Metrics["cells/sec"]
	}
	return r.NsPerOp
}

// check returns a failure description when the old→new transition
// regresses past the threshold, or "" when it passes. For ns and
// allocs, growth is the regression, and a metric that was zero and
// became nonzero regresses unconditionally (allocs appearing on a
// zero-alloc path has no finite percentage). For cells, throughput
// shrinking is the regression, and a benchmark that stopped reporting
// cells/sec regresses unconditionally.
func (g *gate) check(or, nr Result) string {
	if !g.match.MatchString(nr.Name) {
		return ""
	}
	ov, nv := g.value(or), g.value(nr)
	if g.metric == "cells" {
		switch {
		case ov == 0:
			return "" // not in the old baseline: nothing to hold it to
		case nv == 0:
			return fmt.Sprintf("%s: cells/sec disappeared (%g -> 0)", nr.Name, ov)
		default:
			if pct := 100 * (ov - nv) / ov; pct > g.maxPct {
				return fmt.Sprintf("%s: cells/sec regressed %+.1f%% (%g -> %g, limit %+.1f%%)",
					nr.Name, pct, ov, nv, g.maxPct)
			}
		}
		return ""
	}
	switch {
	case ov == 0 && nv > 0:
		return fmt.Sprintf("%s: %s/op grew from 0 to %g", nr.Name, g.metric, nv)
	case ov > 0:
		if pct := 100 * (nv - ov) / ov; pct > g.maxPct {
			return fmt.Sprintf("%s: %s/op regressed %+.1f%% (%g -> %g, limit %+.1f%%)",
				nr.Name, g.metric, pct, ov, nv, g.maxPct)
		}
	}
	return ""
}

// runDiff loads two BENCH_<rev>.json snapshots and prints one table row
// per benchmark present in the new file: ns/op of both sides, the
// relative delta, and the old/new speedup factor (>1 means the new
// revision is faster). Benchmarks present on only one side are marked
// MISSING in the table and summarized by name afterwards, and a
// benchmark that the old snapshot has but the new one dropped fails the
// comparison (exit 1) unless -allow-missing — a snapshot comparison
// must not be able to hide a benchmark that stopped running. A non-nil
// gate additionally fails the diff when a matched benchmark's gated
// metric regresses past the threshold.
func runDiff(oldPath, newPath string, allowMissing bool, g *gate) int {
	oldF, err := loadSnapshot(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	newF, err := loadSnapshot(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	oldBy := make(map[string]Result, len(oldF.Benchmarks))
	for _, r := range oldF.Benchmarks {
		oldBy[r.Name] = r
	}
	fmt.Printf("benchjson diff: %s -> %s\n", oldF.Rev, newF.Rev)
	fmt.Printf("%-36s %14s %14s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta", "speedup")
	seen := make(map[string]bool, len(newF.Benchmarks))
	var added, dropped, regressed []string
	for _, nr := range newF.Benchmarks {
		seen[nr.Name] = true
		or, ok := oldBy[nr.Name]
		if !ok {
			added = append(added, nr.Name)
			fmt.Printf("%-36s %14s %14.0f %9s %9s\n", nr.Name, "MISSING", nr.NsPerOp, "-", "-")
			continue
		}
		if g != nil {
			if msg := g.check(or, nr); msg != "" {
				regressed = append(regressed, msg)
			}
		}
		delta := "-"
		speedup := "-"
		if or.NsPerOp > 0 && nr.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(nr.NsPerOp-or.NsPerOp)/or.NsPerOp)
			speedup = fmt.Sprintf("%.2fx", or.NsPerOp/nr.NsPerOp)
		}
		fmt.Printf("%-36s %14.0f %14.0f %9s %9s\n", nr.Name, or.NsPerOp, nr.NsPerOp, delta, speedup)
	}
	for _, or := range oldF.Benchmarks {
		if !seen[or.Name] {
			dropped = append(dropped, or.Name)
			fmt.Printf("%-36s %14.0f %14s %9s %9s\n", or.Name, or.NsPerOp, "MISSING", "-", "-")
		}
	}
	if len(added) > 0 {
		fmt.Printf("benchjson: %d benchmark(s) only in %s (new): %s\n",
			len(added), newF.Rev, strings.Join(added, ", "))
	}
	if len(dropped) > 0 {
		fmt.Printf("benchjson: %d benchmark(s) missing from %s (present in %s): %s\n",
			len(dropped), newF.Rev, oldF.Rev, strings.Join(dropped, ", "))
		if !allowMissing {
			fmt.Fprintln(os.Stderr, "benchjson: missing benchmarks fail the diff (use -allow-missing to tolerate)")
			return 1
		}
	}
	if len(regressed) > 0 {
		for _, msg := range regressed {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION "+msg)
		}
		return 1
	}
	return 0
}

// loadSnapshot reads and validates one BENCH_<rev>.json file.
func loadSnapshot(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &f, nil
}

// gitRev returns the short HEAD hash and whether the worktree is dirty;
// outside a git checkout it falls back to "dev".
func gitRev() (rev string, dirty bool) {
	h, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev", false
	}
	s, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(h)), err == nil && len(bytes.TrimSpace(s)) > 0
}

// parse extracts benchmark result lines from `go test -bench` output.
// A line looks like:
//
//	BenchmarkBest/PARBS-8  216446  5392 ns/op  2186 B/op  24 allocs/op
//
// with optional custom metrics interleaved as "<value> <unit>" pairs.
func parse(r *bytes.Buffer) []Result {
	var results []Result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: trimCPUSuffix(fields[0]), Iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesOp = v
			case "allocs/op":
				res.AllocsOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		results = append(results, res)
	}
	return results
}

// trimCPUSuffix drops the trailing -<GOMAXPROCS> go test appends to
// benchmark names, so results compare across machines.
func trimCPUSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}
