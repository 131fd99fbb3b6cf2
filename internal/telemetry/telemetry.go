// Package telemetry is a dependency-free observability layer for the crawl
// pipeline. It provides three coordinated primitives:
//
//   - a metrics Registry of named counters, gauges and fixed-bucket
//     histograms with atomic updates, labelled by site, outcome, table or
//     fault class, snapshottable to deterministic canonical JSON;
//   - a Flight recorder of nested span begin/end events over *virtual* time
//     (the browser's deterministic clock), kept in a bounded ring buffer so
//     traces from record and replay runs of the same bundle are
//     bit-for-bit identical;
//   - a structured, leveled event log (retry, backoff, breaker-trip,
//     watchdog-fire, storage-drop, salvage, fault-inject) emitted through a
//     pluggable Sink.
//
// The paper's central finding is that OpenWPM loses or distorts data
// *silently* (Sec. 5.2: 14% of page loads failed without surfacing in the
// results) because the framework exposes no internal signals. This package
// makes every crawl self-describing while it runs and auditable after it
// finishes.
//
// Every type is nil-safe: a nil *Telemetry, *Registry, *Counter, *Flight or
// *Logger turns the corresponding operation into a no-op costing a few
// nanoseconds, so instrumentation points stay in the hot paths permanently
// and cost nothing when telemetry is off. Call sites that would otherwise
// build variadic label slices guard with Enabled() first.
package telemetry

// Telemetry bundles the three observability primitives threaded through the
// crawl pipeline. A nil *Telemetry disables everything.
type Telemetry struct {
	// Metrics is the metrics registry (counters, gauges, histograms).
	Metrics *Registry
	// Spans is the flight recorder of span begin/end events.
	Spans *Flight
	// Logs is the structured event log; nil discards events.
	Logs *Logger
}

// New returns an enabled Telemetry with a fresh registry and a default-sized
// flight recorder. No event sink is attached; use WithLog to add one.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Spans: NewFlight(DefaultFlightCapacity)}
}

// WithLog attaches an event sink at the given minimum level and returns t.
func (t *Telemetry) WithLog(sink Sink, min Level) *Telemetry {
	if t != nil {
		t.Logs = NewLogger(sink, min)
	}
	return t
}

// Enabled reports whether telemetry is live. Hot paths check this before
// building label slices.
func (t *Telemetry) Enabled() bool { return t != nil }

// Counter resolves (creating on first use) the counter series name{labels}.
func (t *Telemetry) Counter(name string, labels ...Label) *Counter {
	if t == nil {
		return nil
	}
	return t.Metrics.Counter(name, labels...)
}

// Operational resolves the operational counter series name{labels}; see
// Registry.Operational.
func (t *Telemetry) Operational(name string, labels ...Label) *Counter {
	if t == nil {
		return nil
	}
	return t.Metrics.Operational(name, labels...)
}

// Gauge resolves the gauge series name{labels}.
func (t *Telemetry) Gauge(name string, labels ...Label) *Gauge {
	if t == nil {
		return nil
	}
	return t.Metrics.Gauge(name, labels...)
}

// Histogram resolves the histogram series name{labels} with the given upper
// bucket bounds (used only on first creation).
func (t *Telemetry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if t == nil {
		return nil
	}
	return t.Metrics.Histogram(name, bounds, labels...)
}

// Begin opens a span in the flight recorder; see Flight.Begin.
func (t *Telemetry) Begin(name string, parent int64, atMS float64, attrs ...Label) int64 {
	if t == nil {
		return 0
	}
	return t.Spans.Begin(name, parent, atMS, attrs...)
}

// End closes a span in the flight recorder; see Flight.End.
func (t *Telemetry) End(span int64, name string, atMS float64, attrs ...Label) {
	if t != nil {
		t.Spans.End(span, name, atMS, attrs...)
	}
}

// Event emits a structured event to the log sink (no-op without one).
func (t *Telemetry) Event(level Level, name string, atMS float64, fields ...Label) {
	if t != nil {
		t.Logs.Emit(level, name, atMS, fields...)
	}
}

// Snapshot captures the current metrics as a deterministic value.
func (t *Telemetry) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	return t.Metrics.Snapshot()
}

// ArtifactSnapshot captures the metrics sealed into reports and bundles;
// see Registry.ArtifactSnapshot.
func (t *Telemetry) ArtifactSnapshot() *Snapshot {
	if t == nil {
		return nil
	}
	return t.Metrics.ArtifactSnapshot()
}
