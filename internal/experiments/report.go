package experiments

// Machine-readable run reports: every experiment's tables and grids,
// plus ad-hoc run metrics and pointers to emitted artifacts (trace
// files, epoch CSVs), serialized as one JSON document. The report is a
// faithful structured mirror of the text tables printed on stdout —
// same cells, same formatting — so downstream tooling never has to
// scrape fixed-width text.

import (
	"encoding/json"
	"os"
	"sort"

	"microbank/internal/stats"
	"microbank/internal/system"
)

// reportSchemaVersion bumps when the JSON layout changes incompatibly.
const reportSchemaVersion = 1

// Report is one invocation's machine-readable output.
type Report struct {
	Tool          string `json:"tool"`
	SchemaVersion int    `json:"schema_version"`
	Experiment    string `json:"experiment"`

	// Echo of the fidelity options the run used.
	Quick       bool   `json:"quick"`
	Instr       uint64 `json:"instr"`
	Cores       int    `json:"cores"`
	Seed        int64  `json:"seed"`
	Parallelism int    `json:"parallelism"`

	Tables    []ReportTable      `json:"tables,omitempty"`
	Grids     []ReportGrid       `json:"grids,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Artifacts map[string]string  `json:"artifacts,omitempty"`

	// Failures lists cells that failed under -fail-mode=collect|degrade,
	// with enough structure (kind taxonomy, digest, stack, machine
	// diagnostic) to debug without rerunning. Absent on healthy runs, so
	// their reports are byte-identical to pre-resilience output.
	Failures []ReportFailure `json:"failures,omitempty"`

	// Aborted carries the terminal error of a run that was killed
	// mid-flight (panic, tripped limit, protocol violation): the report
	// is still flushed as valid JSON so partial artifacts load, and this
	// marker tells consumers it is not a completed run. Absent — and the
	// report byte-identical to before the field existed — on success.
	Aborted string `json:"aborted,omitempty"`
}

// ReportFailure is one failed sweep cell. Kind is one of panic,
// protocol, error, or a system limit kind (deadline, event-budget,
// livelock, cancelled, stall). Records contain no wall-clock values —
// a resumed campaign reproduces them byte-for-byte.
type ReportFailure struct {
	Sweep  int          `json:"sweep"`
	Cell   int          `json:"cell"`
	Kind   string       `json:"kind"`
	Digest string       `json:"digest,omitempty"`
	Error  string       `json:"error"`
	Stack  string       `json:"stack,omitempty"`
	Diag   *system.Diag `json:"diag,omitempty"`
}

// ReportTable mirrors one stats.Table.
type ReportTable struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// ReportGrid mirrors one GridData over the (nW, nB) axes.
type ReportGrid struct {
	Workload string       `json:"workload"`
	Metric   string       `json:"metric"`
	Axis     []int        `json:"axis"`
	Cells    []ReportCell `json:"cells"`
}

// ReportCell is one grid point. Failed marks cells excluded from a
// degraded reduction (their Value is zero, not a measurement).
type ReportCell struct {
	NW     int     `json:"nw"`
	NB     int     `json:"nb"`
	Value  float64 `json:"value"`
	Failed bool    `json:"failed,omitempty"`
}

// NewReport starts a report for the named experiment with the given
// options (defaults applied, so the echo reflects what actually ran).
func NewReport(experiment string, o Options) *Report {
	o = o.withDefaults()
	return &Report{
		Tool:          "microbank",
		SchemaVersion: reportSchemaVersion,
		Experiment:    experiment,
		Quick:         o.Quick,
		Instr:         o.Instr,
		Cores:         o.Cores,
		Seed:          o.Seed,
		Parallelism:   o.Parallelism,
	}
}

// AddTable appends a structured copy of t.
func (r *Report) AddTable(t *stats.Table) {
	rt := ReportTable{
		Title:  t.Title,
		Header: append([]string(nil), t.Header...),
	}
	for i := 0; i < t.NumRows(); i++ {
		rt.Rows = append(rt.Rows, t.Row(i))
	}
	r.Tables = append(r.Tables, rt)
}

// AddGrid appends a structured copy of g, cells in fixed Axis order.
func (r *Report) AddGrid(g *GridData) {
	rg := ReportGrid{
		Workload: g.Workload,
		Metric:   g.Metric,
		Axis:     append([]int(nil), Axis...),
	}
	for _, b := range Axis {
		for _, w := range Axis {
			rg.Cells = append(rg.Cells, ReportCell{NW: w, NB: b, Value: g.At(w, b),
				Failed: g.Missing[[2]int{w, b}]})
		}
	}
	r.Grids = append(r.Grids, rg)
}

// AddFailures copies the campaign's failure records into the report.
func (r *Report) AddFailures(log *FailureLog) {
	if log == nil {
		return
	}
	if fails := log.Failures(); len(fails) > 0 {
		r.Failures = fails
	}
}

// SetMetric records one named scalar (ad-hoc run summaries).
func (r *Report) SetMetric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// Artifact records the path of an emitted side file (trace, epoch CSV,
// SVG) under a short kind key.
func (r *Report) Artifact(kind, path string) {
	if r.Artifacts == nil {
		r.Artifacts = map[string]string{}
	}
	r.Artifacts[kind] = path
}

// MetricNames returns the recorded metric names, sorted.
func (r *Report) MetricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JSON serializes the report (indented, trailing newline).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the report JSON to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
