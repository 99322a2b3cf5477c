package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"microbank/internal/sim"
)

// chromeDoc mirrors the trace-event JSON schema Perfetto consumes.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		Tool          string `json:"tool"`
		DroppedEvents uint64 `json:"dropped_events"`
	} `json:"otherData"`
	TraceEvents []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Args json.RawMessage `json:"args"`
}

// TestChromeTraceGolden pins the exact serialization of a small trace
// (the schema is an external interface: Perfetto must keep loading it).
func TestChromeTraceGolden(t *testing.T) {
	tr := NewChromeTracer()
	tr.TraceCmd(0, 3, CmdACT, 17, 1_000_000, 1_013_750)
	tr.TraceCmd(0, 3, CmdRD, 17, 2_000_000, 2_028_750)
	var b bytes.Buffer
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	const golden = `{"displayTimeUnit":"ns","otherData":{"tool":"microbank","dropped_events":0},"traceEvents":[` +
		`{"name":"process_name","ph":"M","pid":0,"args":{"name":"DRAM channel 0"}},` +
		`{"name":"ACT","cat":"dram","ph":"X","ts":1.000000,"dur":0.013750,"pid":0,"tid":3,"args":{"row":17}},` +
		`{"name":"RD","cat":"dram","ph":"X","ts":2.000000,"dur":0.028750,"pid":0,"tid":3,"args":{"row":17}}]}` + "\n"
	if b.String() != golden {
		t.Fatalf("trace JSON drifted from golden:\n got: %s\nwant: %s", b.String(), golden)
	}
}

// TestChromeTraceSchema checks that an arbitrary trace parses back into
// the trace-event schema with well-formed fields.
func TestChromeTraceSchema(t *testing.T) {
	tr := NewChromeTracer()
	tr.TraceCmd(1, 0, CmdACT, 5, 100, 200)
	tr.TraceCmd(0, 2, CmdWR, 5, 300, 450)
	tr.TraceCmd(0, -1, CmdREF, 0, 500, 900)
	tr.TraceCmd(1, 7, CmdPRE, 5, 600, 615)
	var b bytes.Buffer
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ns" || doc.OtherData.Tool != "microbank" {
		t.Fatalf("header fields wrong: %+v", doc)
	}
	var meta, cmds int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			cmds++
			if e.Cat != "dram" {
				t.Fatalf("command event category = %q", e.Cat)
			}
			if e.Ts < 0 || e.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", e)
			}
			switch e.Name {
			case "ACT", "RD", "WR", "PRE", "REF":
			default:
				t.Fatalf("unknown command name %q", e.Name)
			}
			if !strings.Contains(string(e.Args), "row") {
				t.Fatalf("args missing row: %s", e.Args)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if cmds != 4 {
		t.Fatalf("command events = %d, want 4", cmds)
	}
	if meta != 2 { // channels 0 and 1
		t.Fatalf("metadata events = %d, want 2", meta)
	}
}

func TestChromeTraceCap(t *testing.T) {
	tr := &ChromeTracer{MaxEvents: 3}
	for i := 0; i < 5; i++ {
		tr.TraceCmd(0, i, CmdACT, 0, sim.Time(i), sim.Time(i+1))
	}
	if tr.Len() != 3 || tr.Dropped() != 2 {
		t.Fatalf("len/dropped = %d/%d, want 3/2", tr.Len(), tr.Dropped())
	}
	var b bytes.Buffer
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"dropped_events":2`) {
		t.Fatalf("dropped count not recorded: %s", b.String())
	}
}

// TestChromeTraceAborted: a partially-flushed trace from a killed run
// is still valid JSON and carries the aborted marker in otherData.
func TestChromeTraceAborted(t *testing.T) {
	tr := NewChromeTracer()
	tr.TraceCmd(0, 1, CmdACT, 9, 100, 200)
	tr.Aborted = `event budget "exhausted"` + "\nmid-run"
	var b bytes.Buffer
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData struct {
			Aborted string `json:"aborted"`
		} `json:"otherData"`
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("aborted trace is not valid JSON: %v\n%s", err, b.String())
	}
	if doc.OtherData.Aborted != tr.Aborted {
		t.Fatalf("aborted marker = %q, want %q", doc.OtherData.Aborted, tr.Aborted)
	}
	if len(doc.TraceEvents) != 2 { // metadata + the one flushed command
		t.Fatalf("trace events = %d, want 2", len(doc.TraceEvents))
	}
}
