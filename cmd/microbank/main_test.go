package main

import (
	"strings"
	"testing"
)

// TestCheckFlagScope: a flag the chosen experiment never reads is
// refused with an error naming the flag and the experiment; flags every
// experiment reads pass everywhere. The analytic experiments (tables
// and figures computed without simulation) refuse the sweep flags but
// keep -svg and -beta where they read them.
func TestCheckFlagScope(t *testing.T) {
	runOnlyFlags := []string{"workload", "nw", "nb", "interface", "policy", "ib", "sched",
		"salp", "bank-budget", "check", "trace", "metrics-out", "epoch"}
	simOnlyFlags := []string{"quick", "cores", "j", "progress", "fail-mode", "store", "inject"}
	sweepOnlyFlags := append([]string{"svg", "beta"}, simOnlyFlags...)
	analyticExps := []string{"table1", "table2", "fig1", "fig6a", "fig6b", "fig11", "list"}
	shared := []string{"instr", "seed", "timeout", "event-budget", "report", "pprof"}

	type tc struct {
		exp, flag string
		refused   bool
	}
	var cases []tc
	for _, f := range runOnlyFlags {
		cases = append(cases, tc{"run", f, false}, tc{"fig8", f, true},
			tc{"table1", f, true}, tc{"all", f, true})
	}
	for _, f := range sweepOnlyFlags {
		cases = append(cases, tc{"run", f, true}, tc{"fig8", f, false}, tc{"all", f, false})
	}
	for _, f := range simOnlyFlags {
		for _, exp := range analyticExps {
			cases = append(cases, tc{exp, f, true})
		}
	}
	cases = append(cases, tc{"fig1", "beta", false}, tc{"fig6b", "beta", false},
		tc{"fig6a", "svg", false}, tc{"fig6b", "svg", false}, tc{"table1", "report", false},
		tc{"fig11", "report", false})
	for _, f := range shared {
		cases = append(cases, tc{"run", f, false}, tc{"headline", f, false}, tc{"table1", f, false})
	}
	for _, c := range cases {
		err := checkFlagScope(c.exp, map[string]bool{c.flag: true, "exp": true})
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
	if err := checkFlagScope("run", nil); err != nil {
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
