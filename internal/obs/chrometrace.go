package obs

// ChromeTracer records DRAM command events and serializes them in the
// Chrome trace-event format (the JSON Array/Object format consumed by
// Perfetto and chrome://tracing): one complete ("X") event per command
// with pid = channel, tid = bank, ts/dur in microseconds, and the DRAM
// row in args. Events are buffered as compact records and rendered only
// at write time.

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"microbank/internal/sim"
)

// defaultMaxTraceEvents bounds tracer memory (~32 bytes/event). Runs
// longer than the cap keep the earliest events and count the rest in
// Dropped.
const defaultMaxTraceEvents = 4 << 20

// cmdRec is one buffered command event.
type cmdRec struct {
	issue    uint64
	complete uint64
	row      uint32
	channel  int32
	bank     int32
	kind     CmdKind
}

// ChromeTracer implements Tracer by buffering events in memory.
type ChromeTracer struct {
	// MaxEvents bounds the buffer; zero means defaultMaxTraceEvents.
	MaxEvents int
	// Aborted, when non-empty, marks the trace as coming from an
	// aborted run: the message lands in otherData.aborted so consumers
	// of a partially-flushed trace can tell it from a completed one.
	Aborted string

	events  []cmdRec
	dropped uint64
}

// NewChromeTracer returns a tracer with the default event cap.
func NewChromeTracer() *ChromeTracer {
	return &ChromeTracer{MaxEvents: defaultMaxTraceEvents}
}

// TraceCmd implements Tracer.
func (t *ChromeTracer) TraceCmd(channel, bank int, kind CmdKind, row uint32, issue, complete sim.Time) {
	max := t.MaxEvents
	if max == 0 {
		max = defaultMaxTraceEvents
	}
	if len(t.events) >= max {
		t.dropped++
		return
	}
	t.events = append(t.events, cmdRec{
		issue:    uint64(issue),
		complete: uint64(complete),
		row:      row,
		channel:  int32(channel),
		bank:     int32(bank),
		kind:     kind,
	})
}

// Len returns the number of buffered events.
func (t *ChromeTracer) Len() int { return len(t.events) }

// Dropped returns the number of events discarded after MaxEvents.
func (t *ChromeTracer) Dropped() uint64 { return t.dropped }

// WriteTo serializes the trace as Chrome trace-event JSON. It emits
// process_name metadata for every channel seen, then one "X" (complete)
// event per command. Timestamps convert from picoseconds to the
// format's microseconds with sub-nanosecond precision retained.
func (t *ChromeTracer) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	write := func(format string, args ...any) {
		if cw.err == nil {
			fmt.Fprintf(cw, format, args...)
		}
	}
	if t.Aborted != "" {
		write(`{"displayTimeUnit":"ns","otherData":{"tool":"microbank","dropped_events":%d,"aborted":%q},"traceEvents":[`, t.dropped, t.Aborted)
	} else {
		write(`{"displayTimeUnit":"ns","otherData":{"tool":"microbank","dropped_events":%d},"traceEvents":[`, t.dropped)
	}

	chans := map[int32]bool{}
	for _, e := range t.events {
		chans[e.channel] = true
	}
	ordered := make([]int32, 0, len(chans))
	for c := range chans {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	first := true
	for _, c := range ordered {
		if !first {
			write(",")
		}
		first = false
		write(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"DRAM channel %d"}}`, c, c)
	}
	for _, e := range t.events {
		if !first {
			write(",")
		}
		first = false
		dur := float64(e.complete-e.issue) / 1e6
		write(`{"name":%q,"cat":"dram","ph":"X","ts":%.6f,"dur":%.6f,"pid":%d,"tid":%d,"args":{"row":%d}}`,
			e.kind.String(), float64(e.issue)/1e6, dur, e.channel, e.bank, e.row)
	}
	write("]}\n")
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

// countingWriter tracks bytes written and the first error.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
