package obs

// The campaign aggregator: the concurrency-safe read-side bridge
// between single-threaded per-run registries and the live observability
// plane (internal/obs/serve). Each sweep cell keeps its own lock-free
// Registry; the aggregator ingests an immutable snapshot of that
// registry at the cell boundary (and optional live epoch rows while the
// cell is in flight), merges series across cells by summation, tracks
// sweep progress and the failure taxonomy, and fans change events
// out to SSE subscribers. Everything here is observational — the
// aggregator never feeds back into simulation state, so a served
// campaign produces byte-identical results to an unserved one.

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// CellFailure is one failed sweep cell as the aggregator records it —
// the obs-layer mirror of the experiment report's failure record (obs
// cannot depend on the experiments package).
type CellFailure struct {
	Sweep  int    `json:"sweep"`
	Cell   int    `json:"cell"`
	Kind   string `json:"kind"`
	Error  string `json:"error,omitempty"`
	Digest string `json:"digest,omitempty"`
	Diag   any    `json:"diag,omitempty"`
}

// Event is one server-sent event: a type tag and a pre-marshalled JSON
// payload, rendered once at publish time so a slow subscriber costs the
// publisher nothing but a dropped send.
type Event struct {
	Type string
	Data []byte
}

// cellKey addresses one sweep cell of a campaign.
type cellKey struct{ sweep, cell int }

// liveCell is the latest epoch snapshot of an in-flight cell.
type liveCell struct {
	names []string
	row   []float64
}

// sweepState tracks one sweep's progress.
type sweepState struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
}

// Aggregator merges per-cell metric snapshots and campaign progress
// into one servable view. All methods are safe for concurrent use.
type Aggregator struct {
	mu         sync.Mutex
	experiment string
	started    time.Time

	sweeps   []sweepState
	inflight map[cellKey]struct{}
	live     map[cellKey]liveCell

	order []string // merged series, first-seen order
	sums  map[string]float64

	failures []CellFailure
	byKind   map[string]int

	state  string // "running", "done", "aborted"
	errMsg string

	diag   any
	diagAt time.Time

	// storeStats, when set, reads the result store's counters (hit/miss/
	// quarantine) for /metrics and /status. It must be cheap and safe to
	// call concurrently (the store's counters are atomics).
	storeStats func() (hits, misses, quarantined uint64)

	subs map[int]chan Event
	next int
}

// NewAggregator returns an empty aggregator for the named experiment.
func NewAggregator(experiment string) *Aggregator {
	return &Aggregator{
		experiment: experiment,
		started:    time.Now(),
		inflight:   map[cellKey]struct{}{},
		live:       map[cellKey]liveCell{},
		sums:       map[string]float64{},
		byKind:     map[string]int{},
		state:      "running",
		subs:       map[int]chan Event{},
	}
}

// ownSeries are the aggregator's campaign-level series, emitted ahead
// of merged cell series; cell series with these exact names are skipped
// during merge so the campaign view wins a collision.
var ownSeries = [...]string{
	"sweep.done", "sweep.total", "sweep.inflight",
	"sweep.failures",
	"store.hits", "store.misses", "store.quarantined",
}

// SetStoreStats attaches the result-store counter reader; nil detaches
// it (the store.* series disappear from Gather and /status).
func (a *Aggregator) SetStoreStats(fn func() (hits, misses, quarantined uint64)) {
	a.mu.Lock()
	a.storeStats = fn
	a.mu.Unlock()
}

// BeginSweep registers a sweep of total cells and returns its index.
// Sweeps begin serially in the experiment layer, so indices match the
// sweep numbering of the campaign's failure records.
func (a *Aggregator) BeginSweep(total int) int {
	a.mu.Lock()
	a.sweeps = append(a.sweeps, sweepState{Total: total})
	id := len(a.sweeps) - 1
	a.mu.Unlock()
	a.publish("sweep", map[string]int{"sweep": id, "total": total})
	return id
}

// CellStarted marks a cell in flight.
func (a *Aggregator) CellStarted(sweep, cell int) {
	a.mu.Lock()
	a.inflight[cellKey{sweep, cell}] = struct{}{}
	a.mu.Unlock()
	a.publish("cell", map[string]any{"sweep": sweep, "cell": cell, "state": "start"})
	a.publishProgress()
}

// CellDone ingests a completed cell's final registry snapshot (from
// Registry.Gather on the worker goroutine, after the run finished).
func (a *Aggregator) CellDone(sweep, cell int, samples []Sample) {
	a.mu.Lock()
	k := cellKey{sweep, cell}
	delete(a.inflight, k)
	delete(a.live, k)
	a.sweeps[sweep].Done++
	for _, s := range samples {
		if a.ownName(s.Name) {
			continue
		}
		if _, seen := a.sums[s.Name]; !seen {
			a.order = append(a.order, s.Name)
		}
		a.sums[s.Name] += s.Value
	}
	a.mu.Unlock()
	a.publish("cell", map[string]any{"sweep": sweep, "cell": cell, "state": "done"})
	a.publishProgress()
}

// CellReplayed marks a cell served from the result store: it counts as
// done but contributes no metric snapshot (the run that produced it
// was an earlier one).
func (a *Aggregator) CellReplayed(sweep, cell int) {
	a.mu.Lock()
	delete(a.inflight, cellKey{sweep, cell})
	a.sweeps[sweep].Done++
	a.mu.Unlock()
	a.publish("cell", map[string]any{"sweep": sweep, "cell": cell, "state": "replayed"})
	a.publishProgress()
}

// CellFailed records a cell's failure.
func (a *Aggregator) CellFailed(f CellFailure) {
	a.mu.Lock()
	k := cellKey{f.Sweep, f.Cell}
	delete(a.inflight, k)
	delete(a.live, k)
	if f.Sweep >= 0 && f.Sweep < len(a.sweeps) {
		a.sweeps[f.Sweep].Failed++
	}
	a.failures = append(a.failures, f)
	a.byKind[f.Kind]++
	a.mu.Unlock()
	a.publish("fail", f)
	a.publishProgress()
}

// PublishEpoch records an in-flight cell's latest epoch sample row
// (from Sampler.OnSample) and streams it to subscribers. names and row
// are retained; callers pass rows the sampler will not mutate.
func (a *Aggregator) PublishEpoch(sweep, cell int, atPS uint64, names []string, row []float64) {
	a.mu.Lock()
	a.live[cellKey{sweep, cell}] = liveCell{names: names, row: row}
	a.mu.Unlock()
	series := make(map[string]float64, len(names))
	for i, n := range names {
		if i < len(row) {
			series[n] = row[i]
		}
	}
	a.publish("epoch", map[string]any{
		"sweep": sweep, "cell": cell, "t_ps": atPS, "series": series,
	})
}

// SetDiag records the latest watchdog diagnostic snapshot (surfaced on
// /status and streamed as a "diag" event).
func (a *Aggregator) SetDiag(d any) {
	a.mu.Lock()
	a.diag, a.diagAt = d, time.Now()
	a.mu.Unlock()
	a.publish("diag", d)
}

// Finish marks the campaign complete ("done") or aborted (err != nil).
func (a *Aggregator) Finish(err error) {
	a.mu.Lock()
	if err != nil {
		a.state, a.errMsg = "aborted", err.Error()
	} else {
		a.state = "done"
	}
	state, msg := a.state, a.errMsg
	a.mu.Unlock()
	a.publish("done", map[string]string{"state": state, "error": msg})
}

func (a *Aggregator) ownName(name string) bool {
	for _, n := range ownSeries {
		if n == name {
			return true
		}
	}
	return false
}

// Gather returns the campaign-level series followed by every merged
// cell series (completed-cell sums plus the latest live rows of
// in-flight cells) in first-seen order.
func (a *Aggregator) Gather() []Sample {
	a.mu.Lock()
	defer a.mu.Unlock()
	var done, total int
	for _, s := range a.sweeps {
		done += s.Done + s.Failed
		total += s.Total
	}
	out := make([]Sample, 0, len(ownSeries)+len(a.byKind)+len(a.order))
	out = append(out,
		Sample{"sweep.done", float64(done)},
		Sample{"sweep.total", float64(total)},
		Sample{"sweep.inflight", float64(len(a.inflight))},
		Sample{"sweep.failures", float64(len(a.failures))})
	if a.storeStats != nil {
		hits, misses, quarantined := a.storeStats()
		out = append(out,
			Sample{"store.hits", float64(hits)},
			Sample{"store.misses", float64(misses)},
			Sample{"store.quarantined", float64(quarantined)})
	}
	kinds := make([]string, 0, len(a.byKind))
	for k := range a.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		out = append(out, Sample{fullName("sweep.failures", []Label{{Key: "kind", Value: k}}), float64(a.byKind[k])})
	}
	merged := a.sums
	if len(a.live) > 0 {
		merged = make(map[string]float64, len(a.sums))
		for k, v := range a.sums {
			merged[k] = v
		}
		order := a.order
		for _, lc := range a.live {
			for i, n := range lc.names {
				if i >= len(lc.row) || a.ownName(n) {
					continue
				}
				if _, seen := merged[n]; !seen {
					order = append(order, n)
				}
				merged[n] += lc.row[i]
			}
		}
		for _, n := range order {
			out = append(out, Sample{n, merged[n]})
		}
		return out
	}
	for _, n := range a.order {
		out = append(out, Sample{n, merged[n]})
	}
	return out
}

// Status is the /status JSON schema.
type Status struct {
	Experiment string `json:"experiment"`
	State      string `json:"state"`
	Error      string `json:"error,omitempty"`
	StartedAt  string `json:"started_at"`
	Cells      struct {
		Total    int `json:"total"`
		Done     int `json:"done"`
		Failed   int `json:"failed"`
		Inflight int `json:"inflight"`
	} `json:"cells"`
	Sweeps       []sweepState   `json:"sweeps"`
	FailureKinds map[string]int `json:"failure_kinds,omitempty"`
	Failures     []CellFailure  `json:"failures,omitempty"`
	// Store carries the result store's counters when one is attached.
	Store  *StoreStatus `json:"store,omitempty"`
	Diag   any          `json:"diag,omitempty"`
	DiagAt string       `json:"diag_at,omitempty"`
}

// StoreStatus is the /status view of the result store's counters.
type StoreStatus struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Quarantined uint64 `json:"quarantined"`
}

// StatusJSON renders the campaign report-so-far as compact JSON (one
// line, so the document can double as an SSE data payload).
func (a *Aggregator) StatusJSON() ([]byte, error) {
	a.mu.Lock()
	st := Status{
		Experiment: a.experiment,
		State:      a.state,
		Error:      a.errMsg,
		StartedAt:  a.started.UTC().Format(time.RFC3339),
		Sweeps:     append([]sweepState(nil), a.sweeps...),
		Failures:   append([]CellFailure(nil), a.failures...),
		Diag:       a.diag,
	}
	for _, s := range a.sweeps {
		st.Cells.Total += s.Total
		st.Cells.Done += s.Done
		st.Cells.Failed += s.Failed
	}
	st.Cells.Inflight = len(a.inflight)
	if len(a.byKind) > 0 {
		st.FailureKinds = make(map[string]int, len(a.byKind))
		for k, v := range a.byKind {
			st.FailureKinds[k] = v
		}
	}
	if a.storeStats != nil {
		h, m, q := a.storeStats()
		st.Store = &StoreStatus{Hits: h, Misses: m, Quarantined: q}
	}
	if !a.diagAt.IsZero() {
		st.DiagAt = a.diagAt.UTC().Format(time.RFC3339)
	}
	a.mu.Unlock()
	return json.Marshal(st)
}

// Subscribe registers an event subscriber with the given channel
// buffer. Events that arrive while the buffer is full are dropped for
// that subscriber (the stream is a live view, not a durable log). The
// returned cancel function unregisters and closes the channel.
func (a *Aggregator) Subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	a.mu.Lock()
	id := a.next
	a.next++
	a.subs[id] = ch
	a.mu.Unlock()
	return ch, func() {
		a.mu.Lock()
		if c, ok := a.subs[id]; ok {
			delete(a.subs, id)
			close(c)
		}
		a.mu.Unlock()
	}
}

// publish marshals and fans one event out to all subscribers.
func (a *Aggregator) publish(typ string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(`{}`)
	}
	ev := Event{Type: typ, Data: data}
	a.mu.Lock()
	for _, ch := range a.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, never block the campaign
		}
	}
	a.mu.Unlock()
}

// publishProgress emits the current done/total/failed/inflight counters.
func (a *Aggregator) publishProgress() {
	a.mu.Lock()
	var done, total, failed int
	for _, s := range a.sweeps {
		done += s.Done + s.Failed
		total += s.Total
		failed += s.Failed
	}
	p := map[string]int{
		"done": done, "total": total, "failed": failed,
		"inflight": len(a.inflight),
	}
	a.mu.Unlock()
	a.publish("progress", p)
}
