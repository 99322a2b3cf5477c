package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"microbank/internal/config"
	"microbank/internal/experiments"
	"microbank/internal/system"
	"microbank/internal/workload"
)

// TestCheckFlagScope: a flag the chosen experiment never reads is
// refused with an error naming the flag and the experiment; flags every
// experiment reads pass everywhere. -exp run takes its run from -spec
// (which it requires and nothing else accepts), so it refuses the
// sweep fidelity flags -instr and -seed as well as -j, -progress,
// -fail-mode, -quick and -cores, and it shares the store, injection and
// per-run limits with the sweeps. The analytic experiments (tables and
// figures computed without simulation) refuse every simulation flag
// but keep -svg and -beta where they read them.
func TestCheckFlagScope(t *testing.T) {
	runOnlyFlags := []string{"check", "trace", "metrics-out", "epoch"}
	sweepOnlyFlags := []string{"quick", "cores", "j", "progress", "fail-mode", "instr", "seed"}
	figureFlags := []string{"svg", "beta"}
	simFlags := []string{"timeout", "event-budget", "store", "inject"}
	analyticExps := []string{"table1", "table2", "fig1", "fig6a", "fig6b", "fig11", "list"}

	type tc struct {
		exp, flag string
		refused   bool
	}
	cases := []tc{{"fig8", "spec", true}, {"table1", "spec", true}, {"all", "spec", true}}
	for _, f := range runOnlyFlags {
		cases = append(cases, tc{"run", f, false}, tc{"fig8", f, true},
			tc{"table1", f, true}, tc{"all", f, true})
	}
	for _, f := range append(sweepOnlyFlags, figureFlags...) {
		cases = append(cases, tc{"run", f, true}, tc{"fig8", f, false}, tc{"all", f, false})
	}
	for _, f := range append(sweepOnlyFlags, simFlags...) {
		for _, exp := range analyticExps {
			cases = append(cases, tc{exp, f, true})
		}
	}
	cases = append(cases, tc{"fig1", "beta", false}, tc{"fig6b", "beta", false},
		tc{"fig6a", "svg", false}, tc{"fig6b", "svg", false})
	for _, f := range append([]string{"report", "pprof"}, simFlags...) {
		cases = append(cases, tc{"run", f, false}, tc{"headline", f, false}, tc{"all", f, false})
	}
	for _, f := range []string{"report", "pprof"} {
		for _, exp := range analyticExps {
			cases = append(cases, tc{exp, f, false})
		}
	}
	for _, c := range cases {
		set := map[string]bool{c.flag: true, "exp": true}
		if c.exp == "run" {
			set["spec"] = true
		}
		err := checkFlagScope(c.exp, set)
		if !c.refused {
			if err != nil {
				t.Errorf("-exp %s -%s refused: %v", c.exp, c.flag, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("-exp %s -%s accepted, want refused", c.exp, c.flag)
		} else if msg := err.Error(); !strings.Contains(msg, "-"+c.flag+" ") || !strings.Contains(msg, "-exp "+c.exp) {
			t.Errorf("-exp %s -%s: error %q does not name the flag and the experiment", c.exp, c.flag, msg)
		}
	}
	if err := checkFlagScope("run", map[string]bool{"spec": true}); err != nil {
		t.Errorf("-exp run -spec: %v", err)
	}
	if err := checkFlagScope("run", nil); err == nil || !strings.Contains(err.Error(), "-spec FILE") {
		t.Errorf("-exp run without -spec: err = %v, want one asking for -spec FILE", err)
	}
	if err := checkFlagScope("fig8", nil); err != nil {
		t.Errorf("no flags set: %v", err)
	}
}

// TestBuildResilienceFailMode: -fail-mode takes fail-fast and collect;
// the retired degrade value points at collect, anything else is unknown.
func TestBuildResilienceFailMode(t *testing.T) {
	for _, c := range []struct {
		mode    string
		collect bool
		errHas  string
	}{
		{"fail-fast", false, ""},
		{"collect", true, ""},
		{"degrade", false, "use collect"},
		{"explode", false, "fail-fast | collect"},
	} {
		res, err := buildResilience(c.mode, 0, 0, "", "")
		if c.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), c.errHas) {
				t.Errorf("-fail-mode %s: err = %v, want one containing %q", c.mode, err, c.errHas)
			}
			continue
		}
		if err != nil || res.Collect != c.collect {
			t.Errorf("-fail-mode %s: err = %v, Collect = %v, want %v", c.mode, err, res != nil && res.Collect, c.collect)
		}
	}
}

// TestFailurePrintedOnce: a fail-fast run's failure reaches stderr
// once, as its failure record; main does not repeat the returned error.
func TestFailurePrintedOnce(t *testing.T) {
	res, err := buildResilience("fail-fast", time.Nanosecond, 0, "", "")
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.Options{Seed: 42, Exp: "run", Res: res}
	spec := filepath.Join("..", "..", "examples", "specs", "mcf_lpddr-tsi_1x1.json")
	err = dispatch("run", o, nil, obsFlags{spec: spec, check: "off"}, 1)
	if err == nil {
		t.Fatal("run under a 1ns deadline succeeded")
	}
	var b strings.Builder
	summarizeFailures(&b, res)
	if n := strings.Count(b.String(), "deadline 1ns exceeded"); n != 1 || !summarized(res, err) {
		t.Errorf("failure summarized %d time(s), error summarized %v:\n%s", n, summarized(res, err), &b)
	}
}

// TestRunTitle: a run's title names each distinct profile once, in
// core order, then the memory configuration.
func TestRunTitle(t *testing.T) {
	sys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 2, 8))
	sys.Cores = 4
	spec := system.MixSpec(sys, workload.Mix{Members: []string{"470.lbm", "429.mcf"}}, 4000, 42)
	if got, want := runTitle(spec), "470.lbm+429.mcf on LPDDR-TSI (2,8), open page, iB=13"; got != want {
		t.Errorf("title %q, want %q", got, want)
	}
}
