package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestSplitSeries(t *testing.T) {
	cases := []struct {
		series string
		family string
		labels []Label
	}{
		{"noc.packets", "noc_packets", nil},
		{"mem.read_bw{ch=0}", "mem_read_bw", []Label{{"ch", "0"}}},
		{"lat{ch=0,bank=3}.p99", "lat_p99", []Label{{"ch", "0"}, {"bank", "3"}}},
		{"sweep.failures{kind=event-budget}", "sweep_failures", []Label{{"kind", "event-budget"}}},
		{"9weird name", "_9weird_name", nil},
	}
	for _, c := range cases {
		fam, labels := splitSeries(c.series)
		if fam != c.family {
			t.Errorf("splitSeries(%q) family = %q, want %q", c.series, fam, c.family)
		}
		if len(labels) != len(c.labels) {
			t.Errorf("splitSeries(%q) labels = %v, want %v", c.series, labels, c.labels)
			continue
		}
		for i := range labels {
			if labels[i] != c.labels[i] {
				t.Errorf("splitSeries(%q) label %d = %v, want %v", c.series, i, labels[i], c.labels[i])
			}
		}
	}
}

// TestWriteOpenMetricsGolden pins the exposition of a representative
// sample set: family grouping with contiguous samples, TYPE headers in
// first-seen order, label quoting, and the EOF terminator.
func TestWriteOpenMetricsGolden(t *testing.T) {
	samples := []Sample{
		{"sweep.done", 3},
		{"mem.read_bw{ch=0}", 1.5},
		{"noc.packets", 42},
		{"mem.read_bw{ch=1}", 2.25},
		{"lat{ch=0}.p99", 120},
	}
	var b bytes.Buffer
	if err := WriteOpenMetrics(&b, samples); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE sweep_done gauge
sweep_done 3
# TYPE mem_read_bw gauge
mem_read_bw{ch="0"} 1.5
mem_read_bw{ch="1"} 2.25
# TYPE noc_packets gauge
noc_packets 42
# TYPE lat_p99 gauge
lat_p99{ch="0"} 120
# EOF
`
	if b.String() != want {
		t.Fatalf("exposition drifted:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWriteOpenMetricsParses runs a light structural parse over the
// output of a real registry gather: every non-comment line must be
// `name[{labels}] value`, every family must appear contiguously after
// its own TYPE header, and the document must end with # EOF.
func TestWriteOpenMetricsParses(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("events.total")
	c.Add(7)
	reg.GaugeFunc("queue", func() float64 { return 3 }, L("ch", 0))
	h := reg.Histogram("lat", L("ch", 0))
	h.Observe(10)
	h.Observe(20)

	var b bytes.Buffer
	if err := WriteOpenMetrics(&b, reg.Gather()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing # EOF terminator:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	var curFam string
	closed := map[string]bool{} // families whose block has ended
	for _, ln := range lines {
		if ln == "# EOF" {
			continue
		}
		if rest, ok := strings.CutPrefix(ln, "# TYPE "); ok {
			fam, typ, ok := strings.Cut(rest, " ")
			if !ok || typ != "gauge" {
				t.Fatalf("malformed TYPE line %q", ln)
			}
			if closed[fam] {
				t.Fatalf("family %q not contiguous:\n%s", fam, out)
			}
			if curFam != "" {
				closed[curFam] = true
			}
			curFam = fam
			continue
		}
		name := ln
		if i := strings.IndexByte(ln, '{'); i >= 0 {
			name = ln[:i]
			if !strings.Contains(ln, `"}`) && !strings.Contains(ln, `"`) {
				t.Fatalf("unquoted label value in %q", ln)
			}
		} else if i := strings.IndexByte(ln, ' '); i >= 0 {
			name = ln[:i]
		}
		if name != curFam {
			t.Fatalf("sample %q outside its family block (current %q)", ln, curFam)
		}
		for _, r := range name {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == ':') {
				t.Fatalf("invalid character %q in metric name %q", r, name)
			}
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	if got := escapeLabelValue("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escapeLabelValue = %q", got)
	}
}
