package obs

// The metrics registry. Components register gauge functions under
// stable labelled names; the epoch sampler (and any other consumer)
// gathers every series in registration order, which is deterministic
// because wiring happens single-threaded at build time. The registry is not safe for concurrent use — one Observer
// belongs to exactly one simulation run.

import "fmt"

// Sample is one gathered (series name, value) pair.
type Sample struct {
	Name  string
	Value float64
}

type entry struct {
	name  string
	gauge func() float64
}

// Registry holds all metrics of one simulation run.
type Registry struct {
	entries []entry
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// GaugeFunc registers a gauge whose value is computed on demand. The
// function is invoked exactly once per Gather, in registration order —
// stateful gauges (epoch-delta rates) may rely on that. A duplicate name
// panics: metric names are part of the tool's stable interface, and a
// collision is a wiring bug, not a runtime condition.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	name = fullName(name, labels)
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = true
	r.entries = append(r.entries, entry{name: name, gauge: fn})
}

// NumMetrics returns the number of registered metrics.
func (r *Registry) NumMetrics() int { return len(r.entries) }

// SeriesNames returns every gathered series name in registration order.
func (r *Registry) SeriesNames() []string {
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.name
	}
	return out
}

// Gather evaluates every metric and returns one sample per series, in
// the same order as SeriesNames.
func (r *Registry) Gather() []Sample {
	out := make([]Sample, len(r.entries))
	for i, e := range r.entries {
		out[i] = Sample{e.name, e.gauge()}
	}
	return out
}
