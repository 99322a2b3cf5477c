package obs

// The epoch sampler: a self-rescheduling simulation event that gathers
// every registered series each epoch into an in-memory time series,
// exportable as CSV or JSON. The sampler stops rescheduling itself as
// soon as it is the only pending event, so a run's event queue still
// drains and sim.Engine.Run terminates exactly as it would without
// observability.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"microbank/internal/sim"
)

// samplerPriority orders the sampler after every same-instant model
// event (controller evals run at priority 2), so an epoch snapshot sees
// the settled state of its boundary instant.
const samplerPriority = 1 << 20

// Sampler records an epoch-indexed time series of every series in a
// Registry. Construct with NewSampler and attach to an engine with
// Start.
type Sampler struct {
	reg   *Registry
	every sim.Time

	names []string
	times []sim.Time
	rows  [][]float64

	tick func(*sim.Engine)
}

// NewSampler builds a sampler over reg with the given epoch length.
func NewSampler(reg *Registry, every sim.Time) *Sampler {
	if every == 0 {
		panic("obs: zero epoch length")
	}
	return &Sampler{reg: reg, every: every}
}

// Every returns the epoch length.
func (s *Sampler) Every() sim.Time { return s.every }

// Start schedules the first epoch tick. Metric registration must be
// complete before the first tick fires; the column set is frozen then.
func (s *Sampler) Start(eng *sim.Engine) {
	s.tick = func(e *sim.Engine) {
		s.sample(e.Now())
		// Reschedule only while the model still has pending work: when
		// this tick is the queue's sole inhabitant nothing can ever
		// happen again, and rescheduling would keep Run from returning.
		if e.Pending() > 0 {
			e.ScheduleP(e.Now()+s.every, samplerPriority, s.tick)
		}
	}
	eng.ScheduleP(eng.Now()+s.every, samplerPriority, s.tick)
}

// sample gathers one epoch row at time at.
func (s *Sampler) sample(at sim.Time) {
	if s.names == nil {
		s.names = s.reg.SeriesNames()
	}
	samples := s.reg.Gather()
	row := make([]float64, len(samples))
	for i, sm := range samples {
		row[i] = sm.Value
	}
	s.times = append(s.times, at)
	s.rows = append(s.rows, row)
}

// Epochs returns the number of recorded epochs.
func (s *Sampler) Epochs() int { return len(s.rows) }

// Names returns the recorded series names (nil before the first epoch).
func (s *Sampler) Names() []string { return s.names }

// Value returns the recorded value of series name at epoch i.
func (s *Sampler) Value(i int, name string) (float64, bool) {
	for j, n := range s.names {
		if n == name {
			return s.rows[i][j], true
		}
	}
	return 0, false
}

// CSV renders the time series with a time_ps column followed by one
// column per series.
func (s *Sampler) CSV() string {
	var b strings.Builder
	b.WriteString("time_ps")
	for _, n := range s.names {
		b.WriteByte(',')
		b.WriteString(n)
	}
	b.WriteByte('\n')
	for i, row := range s.rows {
		b.WriteString(strconv.FormatUint(uint64(s.times[i]), 10))
		for _, v := range row {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// seriesJSON is the JSON export schema.
type seriesJSON struct {
	EpochPS uint64               `json:"epoch_ps"`
	TimesPS []uint64             `json:"times_ps"`
	Series  map[string][]float64 `json:"series"`
	Order   []string             `json:"order"`
}

// JSON renders the time series as one JSON document: epoch length,
// epoch timestamps, and a map from series name to per-epoch values
// (Order preserves registration order for consumers that care).
func (s *Sampler) JSON() ([]byte, error) {
	out := seriesJSON{
		EpochPS: uint64(s.every),
		TimesPS: make([]uint64, len(s.times)),
		Series:  make(map[string][]float64, len(s.names)),
		Order:   s.names,
	}
	for i, t := range s.times {
		out.TimesPS[i] = uint64(t)
	}
	for j, n := range s.names {
		col := make([]float64, len(s.rows))
		for i, row := range s.rows {
			col[i] = row[j]
		}
		out.Series[n] = col
	}
	return json.MarshalIndent(out, "", " ")
}

// String summarizes the sampler for diagnostics.
func (s *Sampler) String() string {
	return fmt.Sprintf("obs.Sampler{epoch=%dps, series=%d, epochs=%d}",
		s.every, len(s.names), len(s.rows))
}
