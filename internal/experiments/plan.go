package experiments

// Sweep plans: every simulation-backed experiment declares its runs as
// one plan — an ordered list of keyed cells — runs it with mapRuns and
// reduces it with mean, so enumeration, execution and reduction are
// each written once.

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"

	"microbank/internal/config"
	"microbank/internal/parallel"
	"microbank/internal/stats"
	"microbank/internal/system"
)

// cell is one run of a plan. key names the table entry the run
// contributes to — by convention the driver's output row with only its
// identifying fields set — and member what the run measures there: a
// benchmark, or the workload of a multicore run. base, when non-nil, is
// the key of the entry the run is normalized to; the same member's run
// there is its baseline. label names the cell in failure records and
// CPU profiles. mapRuns fills res; it stays nil for a failed cell.
type cell struct {
	key, base     any
	member, label string
	spec          func() system.Spec
	res           *system.Result
}

// plan is an ordered list of cells; the order is the campaign's cell
// numbering (-inject, failure records) and the reduction's
// accumulation order.
type plan []cell

// point is a design point a workload runs at: the interface, the
// (nW,nB) partitioning, an optional change to the system, and the
// variant that names anything else setting the cell apart in its label.
type point struct {
	iface   config.Interface
	nW, nB  int
	mut     func(*config.System)
	variant string
}

// multicore names the workloads that run on the full multicore system:
// the multiprogrammed mixes and the multithreaded benchmarks. Every
// other workload is a single-core benchmark on one channel.
var multicore = map[string]bool{"mix-high": true, "mix-blend": true, "canneal": true, "RADIX": true, "FFT": true}

// addRun adds one run of workload w at pt, with w as the cell's member
// and the label "<w> (nW,nB) <variant>". The spec is built lazily, in
// the cell's worker.
func (p *plan) addRun(key any, w string, base any, pt point, o Options) {
	label := strings.Join(strings.Fields(fmt.Sprintf("%s (%d,%d) %s", w, pt.nW, pt.nB, pt.variant)), " ")
	*p = append(*p, cell{key: key, base: base, member: w, label: label,
		spec: func() system.Spec { return specFor(w, pt, o) }})
}

// setOf names, for a label, the set a benchmark runs in; "" when the
// benchmark is the whole workload.
func setOf(name, set string) string {
	if name == set {
		return ""
	}
	return set
}

// column is one reduced value. A plain column reads a run; a relative
// one (rel) reads a run and its baseline, so only runs whose baseline
// ran healthy contribute to it.
type column struct {
	rel bool
	f   func(x, base *system.Result) float64
}

// plain makes a column of a run's own value.
func plain(f func(x *system.Result) float64) column {
	return column{f: func(x, _ *system.Result) float64 { return f(x) }}
}

var (
	ipcCol    = plain(func(x *system.Result) float64 { return x.IPC })
	edpCol    = plain(func(x *system.Result) float64 { return x.Breakdown.EDPJs() })
	relIPC    = column{rel: true, f: func(x, b *system.Result) float64 { return x.IPC / b.IPC }}
	relInvEDP = column{rel: true, f: func(x, b *system.Result) float64 {
		return b.Breakdown.EDPJs() / x.Breakdown.EDPJs()
	}}
	// powerCols are the power columns of Figs. 10 and 14, in table order.
	powerCols = []column{
		plain(func(x *system.Result) float64 { return x.Breakdown.ProcessorW() }),
		plain(func(x *system.Result) float64 { return x.Breakdown.ActPreW() }),
		plain(func(x *system.Result) float64 { return x.Breakdown.DRAMStaticW() }),
		plain(func(x *system.Result) float64 { return x.Breakdown.RdWrW() }),
		plain(func(x *system.Result) float64 { return x.Breakdown.IOW() }),
	}
)

// mean is the one reduction: per key, in order of first appearance,
// the mean of each column over its contributors — every healthy run of
// the key, and for a relative column only those whose member's base run
// is healthy too. A column accumulates f(x, base) / n in plan order, so
// a healthy plan reproduces the serial per-app-normalize-then-average
// arithmetic bit for bit; with no contributor it reads NaN (FAIL in
// tables). A mean of ratios is a relative column; a ratio of means
// divides two keys' plain means, NaN if either is missing.
func (p plan) mean(cols ...column) (keys []any, vals map[any][]float64) {
	type slot struct {
		key    any
		member string
	}
	at := map[slot]*system.Result{}
	for _, c := range p {
		if c.res != nil {
			at[slot{c.key, c.member}] = c.res
		}
	}
	bases := make([]*system.Result, len(p)) // nil: no healthy baseline
	counts := func(i int, col column) bool { return p[i].res != nil && (!col.rel || bases[i] != nil) }
	vals, n := map[any][]float64{}, map[any][]float64{}
	for i, c := range p {
		bases[i] = c.res
		if c.base != nil {
			bases[i] = at[slot{c.base, c.member}]
		}
		if n[c.key] == nil {
			keys = append(keys, c.key)
			vals[c.key], n[c.key] = make([]float64, len(cols)), make([]float64, len(cols))
		}
		for j, col := range cols {
			if counts(i, col) {
				n[c.key][j]++
			}
		}
	}
	for i, c := range p {
		for j, col := range cols {
			if counts(i, col) {
				vals[c.key][j] += col.f(c.res, bases[i]) / n[c.key][j]
			}
		}
	}
	for _, k := range keys {
		for j := range cols {
			if n[k][j] == 0 {
				vals[k][j] = math.NaN()
			}
		}
	}
	return keys, vals
}

// run executes a plan as one sweep and reduces it to one row per key of
// type R, in plan order: fill sets a row's reduced fields from its
// column means v, with m holding every key's for ratios of means. Keys
// of other types (a baseline that is not itself a row) yield no row.
func run[R any](o Options, p plan, cols []column, fill func(r *R, v []float64, m map[any][]float64)) ([]R, error) {
	if err := mapRuns(o, p); err != nil {
		return nil, err
	}
	keys, m := p.mean(cols...)
	var rows []R
	for _, k := range keys {
		if r, ok := k.(R); ok {
			fill(&r, m[k], m)
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// addRow appends a table row. A NaN value — a column the reduction had
// no healthy contributor for — renders as FAIL, and a rule separates
// the row from the one before when their first group cells differ.
func addRow(t *stats.Table, group int, cells ...any) {
	for i := 0; i < group && t.NumRows() > 0; i++ {
		if fmt.Sprint(cells[i]) != t.Cell(t.NumRows()-1, i) {
			t.AddSeparator()
			break
		}
	}
	for i, c := range cells {
		if v, ok := c.(float64); ok && math.IsNaN(v) {
			cells[i] = "FAIL"
		}
	}
	t.AddRow(cells...)
}

// runSpec is how mapRuns simulates a cell: system.Run, which tests
// swap for a counting wrapper to see which cells simulated and which
// replayed.
var runSpec = system.Run

// mapRuns runs a plan as one sweep over o.Parallelism workers — the one
// place sweep cells execute — under parallel.MapPolicy with o.Res's
// settings (nil is the zero Resilience), and stores each healthy
// cell's Result in its res field. A cell builds its spec and digest
// once, in its worker; it replays a result the campaign's memory or the
// store holds, and otherwise simulates under its limits and injected
// fault. A cell repeating an earlier cell's spec first waits for that
// cell, so it replays whatever -j 1 would: simulation counts, and which
// injected faults fire, are the same at every width. Failures are
// logged as report records. Under fail-fast the first one is returned
// as a *parallel.TaskError wrapping the cell's error; under collect the
// sweep completes and failed cells keep a nil res. Progress sees
// completions in schedule order and never influences results.
func mapRuns(o Options, p plan) error {
	total := len(p)
	var done atomic.Int64
	note := func() {
		if o.Progress != nil {
			o.Progress(int(done.Add(1)), total)
		}
	}
	r := o.Res
	if r == nil {
		r = &Resilience{}
	}
	base, sweep := r.beginSweep(total)
	// digests[i] is published when ready[i] closes; finished[i] closes
	// when cell i is through, its healthy result remembered.
	digests := make([]string, total)
	ready, finished := make([]chan struct{}, total), make([]chan struct{}, total)
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
		ready[i], finished[i] = make(chan struct{}), make(chan struct{})
	}
	pol := parallel.Policy{
		FailFast: !r.Collect,
		Digest: func(i int) string {
			return fmt.Sprintf("sweep %d cell %d/%d: %s", sweep, i, total, p[i].label)
		},
	}
	_, fails, err := parallel.MapPolicy(o.Ctx, o.Parallelism, idx, pol,
		func(ctx context.Context, i int) (system.Result, error) {
			defer close(finished[i])
			spec := func() system.Spec {
				defer close(ready[i])
				spec := p[i].spec()
				digests[i], _ = spec.Digest() // "": no digest, never shared
				return spec
			}()
			key := digests[i]
			// MapPolicy claims cells in index order, so every earlier cell
			// is running or done; one a cancelled sweep skipped ends the
			// wait through ctx.
			for j := 0; j < i && key != ""; j++ {
				select {
				case <-ready[j]:
					if digests[j] == key {
						select {
						case <-finished[j]:
						case <-ctx.Done():
						}
					}
				case <-ctx.Done():
				}
			}
			// The lookup precedes injection: a cell already simulated by
			// this campaign or held by the store is not re-run, so it
			// cannot re-fire an injected fault.
			res, ok := r.storeLookup(key)
			if !ok {
				g := base + i
				var err error
				if spec.Limits, err = r.limitsFor(o.Ctx, g); err != nil {
					return res, err
				}
				// pprof labels attribute a sweep's CPU samples to its cells.
				pprof.Do(context.Background(), pprof.Labels(
					"exp", o.Exp, "cell", strconv.Itoa(g), "variant", p[i].label),
					func(context.Context) { res, err = runSpec(spec) })
				if err != nil {
					return res, err
				}
				// Only healthy cells are committed; a failed cell's spec
				// simulates again at its next occurrence, in this campaign
				// or on the next run against the store.
				r.storeCommit(key, res)
			}
			p[i].res = &res
			note()
			return res, nil
		})
	for _, te := range fails {
		r.Log.add(failureRecord(sweep, te))
	}
	return err
}
