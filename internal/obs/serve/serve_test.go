package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"microbank/internal/obs"
)

func testAgg() *obs.Aggregator {
	a := obs.NewAggregator("test")
	s := a.BeginSweep(2)
	a.CellStarted(s, 0)
	a.CellDone(s, 0, []obs.Sample{{Name: "noc.packets", Value: 12}})
	a.CellFailed(obs.CellFailure{Sweep: s, Cell: 1, Kind: "deadline", Error: "slow"})
	return a
}

func TestMetricsEndpoint(t *testing.T) {
	a := testAgg()
	srv := httptest.NewServer((&Server{agg: a}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{"# TYPE noc_packets gauge", "noc_packets 12",
		"sweep_failures 1", `sweep_failures{kind="deadline"} 1`, "# EOF\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestStatusEndpoint(t *testing.T) {
	a := testAgg()
	srv := httptest.NewServer((&Server{agg: a}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st obs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Experiment != "test" || st.Cells.Done != 1 || st.Cells.Failed != 1 {
		t.Fatalf("status = %+v", st)
	}
}

// TestEventsEndpoint reads the SSE stream: the initial status event,
// then a live event published after the subscription opened.
func TestEventsEndpoint(t *testing.T) {
	a := testAgg()
	srv := httptest.NewServer((&Server{agg: a}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	r := bufio.NewReader(resp.Body)
	readEvent := func() (typ, data string) {
		t.Helper()
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("stream ended early: %v (typ=%q data=%q)", err, typ, data)
			}
			line = strings.TrimSuffix(line, "\n")
			switch {
			case line == "" && typ != "":
				return typ, data
			case strings.HasPrefix(line, "event: "):
				typ = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			}
		}
	}

	typ, data := readEvent()
	if typ != "status" || !json.Valid([]byte(data)) {
		t.Fatalf("first event = %q %q, want valid status JSON", typ, data)
	}

	a.PublishEpoch(0, 0, 777, []string{"m"}, []float64{3})
	for {
		typ, data = readEvent()
		if typ != "epoch" {
			continue // progress/cell events may be interleaved
		}
		var ev struct {
			TPS    uint64             `json:"t_ps"`
			Series map[string]float64 `json:"series"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.TPS != 777 || ev.Series["m"] != 3 {
			t.Fatalf("epoch event = %+v", ev)
		}
		return
	}
}

func TestPprofEndpoint(t *testing.T) {
	a := testAgg()
	srv := httptest.NewServer((&Server{agg: a}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d, body %.80s", resp.StatusCode, body)
	}
}

// TestNewBindsBeforeReturn checks the real listener path: New returns
// with the port bound and Addr scrape-able, and Close shuts it down.
func TestNewBindsBeforeReturn(t *testing.T) {
	a := testAgg()
	s, err := New("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/status")
	if err != nil {
		t.Fatalf("endpoint not reachable right after New: %v", err)
	}
	resp.Body.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/status"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}
