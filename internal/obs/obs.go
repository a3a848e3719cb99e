// Package obs is the observability layer of the simulator: a lightweight
// metrics registry (typed counters and gauges, cheap enough to stay on by
// default and safe under the host worker pool) and an opt-in event tracer
// that records per-rank spans in *virtual* time and emits Chrome
// trace_event JSON.
//
// Two invariants make instrumentation safe to leave enabled:
//
//  1. Observation never perturbs virtual time. Every hook reads a rank's
//     clock; none advances it. A run with tracing on is bit-identical to a
//     run with tracing off.
//  2. Metric aggregation is order-independent. Counters only Add and gauges
//     only fold with Max/Add, so concurrent updates from rank goroutines
//     and pool workers commute and a snapshot does not depend on host
//     scheduling.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// MetricsSchemaVersion stamps the metrics snapshot JSON.
//
//	1 — counters, gauges, per-rank breakdowns
//	2 — adds histograms (message latency, collective sizes, list lengths)
//	3 — adds text metrics (progress phase/state strings)
const MetricsSchemaVersion = 3

// Counter is a monotonically accumulating int64 metric.
type Counter struct{ v atomic.Int64 }

// Add accumulates n (concurrency-safe, order-independent).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric folded with order-independent operations
// (Add for sums, Max for high-water marks).
type Gauge struct{ bits atomic.Uint64 }

// Add accumulates v into the gauge (atomic compare-and-swap loop).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64frombits(old) + v
		if g.bits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

// Max folds v in with the maximum operation.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Text is a string metric holding a last-writer-wins status value (current
// phase, run state). Like the numeric metrics it is safe for concurrent use
// and a no-op on a nil receiver; unlike them it is not order-independent —
// treat it as a status register, not an aggregate.
type Text struct{ v atomic.Value }

// Set stores s as the current value.
func (t *Text) Set(s string) {
	if t == nil {
		return
	}
	t.v.Store(s)
}

// Value returns the current value ("" before the first Set).
func (t *Text) Value() string {
	if t == nil {
		return ""
	}
	s, _ := t.v.Load().(string)
	return s
}

// Registry is a named set of counters and gauges. Lookup is get-or-create;
// callers hold the returned pointer for hot paths.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	texts      map[string]*Text
	// gen counts metric creations. A reader holding resolved handles can
	// compare generations to learn whether a (re)enumeration is needed
	// without taking the lock — the live sampler's steady-state fast path.
	gen atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		texts:      map[string]*Text{},
	}
}

// Gen returns the metric-creation generation: it changes exactly when a new
// metric name is created, so a cached enumeration is valid while Gen is
// stable. Safe on a nil registry.
func (r *Registry) Gen() uint64 {
	if r == nil {
		return 0
	}
	return r.gen.Load()
}

// Visit calls the non-nil callbacks for every registered metric while
// holding the registry lock. Iteration order is unspecified (map order);
// callers needing determinism sort what they collect. Safe on a nil
// registry.
func (r *Registry) Visit(counter func(string, *Counter), gauge func(string, *Gauge), hist func(string, *Histogram), text func(string, *Text)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if counter != nil {
		for n, c := range r.counters {
			counter(n, c)
		}
	}
	if gauge != nil {
		for n, g := range r.gauges {
			gauge(n, g)
		}
	}
	if hist != nil {
		for n, h := range r.histograms {
			hist(n, h)
		}
	}
	if text != nil {
		for n, t := range r.texts {
			text(n, t)
		}
	}
}

// Counter returns the named counter, creating it on first use. Safe on a
// nil registry (returns a nil Counter whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.gen.Add(1)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Safe on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.gen.Add(1)
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Safe on
// a nil registry (returns a nil Histogram whose methods are no-ops).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
		r.gen.Add(1)
	}
	return h
}

// Text returns the named text metric, creating it on first use. Safe on a
// nil registry (returns a nil Text whose methods are no-ops).
func (r *Registry) Text(name string) *Text {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.texts[name]
	if !ok {
		t = &Text{}
		r.texts[name] = t
		r.gen.Add(1)
	}
	return t
}

// TextSnapshots returns the current value of every text metric that has
// been set.
func (r *Registry) TextSnapshots() map[string]string {
	out := map[string]string{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, t := range r.texts {
		if s := t.Value(); s != "" {
			out[n] = s
		}
	}
	return out
}

// Snapshot returns the current values of every metric, sorted by name via
// the map key order of encoding/json (deterministic output).
func (r *Registry) Snapshot() (counters map[string]int64, gauges map[string]float64) {
	counters = map[string]int64{}
	gauges = map[string]float64{}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		gauges[n] = g.Value()
	}
	return
}

// HistogramSnapshots summarizes every histogram with at least one
// observation.
func (r *Registry) HistogramSnapshots() map[string]HistogramSnapshot {
	out := map[string]HistogramSnapshot{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, h := range r.histograms {
		if h.Count() > 0 {
			out[n] = h.Snapshot()
		}
	}
	return out
}

// RankMetrics is the per-rank virtual-time breakdown of a run. The fields
// are written only by the owning rank's goroutine during the run and read
// after mp.Run returns, so no locking is needed.
type RankMetrics struct {
	Rank int `json:"rank"`
	// Clock is the rank's final virtual clock in seconds.
	Clock float64 `json:"clock"`
	// ComputeSec is virtual time advanced by roofline compute charges.
	ComputeSec float64 `json:"compute_sec"`
	// WaitSec is virtual time the clock jumped forward to message arrivals
	// (time the rank would have spent blocked in a receive).
	WaitSec float64 `json:"wait_sec"`
	// SendSec is per-message sender-side software overhead.
	SendSec float64 `json:"send_sec"`
	// CollectiveSec is wall-span virtual time inside collective operations
	// (its interior compute/wait/send is also counted in those fields).
	CollectiveSec float64 `json:"collective_sec"`
	// DiskSec is virtual time charged to local-disk streaming I/O.
	DiskSec float64 `json:"disk_sec"`
	// Messages and Bytes count messages this rank sent.
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
}

// Obs couples one run's registry, per-rank metrics, and optional tracer.
// One Obs may observe several mp.Run invocations (e.g. a benchmark sweep):
// per-rank accumulators and trace tracks are reused by rank id.
type Obs struct {
	Reg    *Registry
	Tracer *Tracer   // nil when tracing is disabled
	Events *EventLog // nil unless EnableEvents was called

	mu    sync.Mutex
	ranks []*RankObs

	progress progressOnce
}

// New returns an Obs with metrics enabled and, if trace is set, a tracer.
func New(trace bool) *Obs {
	o := &Obs{Reg: NewRegistry()}
	if trace {
		o.Tracer = NewTracer()
	}
	return o
}

// Rank returns the accumulator for the given rank id, creating it (and its
// trace track) on first use. Called from the run setup goroutine; the
// returned RankObs is then owned by the rank's goroutine.
func (o *Obs) Rank(id int) *RankObs {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.ranks) <= id {
		o.ranks = append(o.ranks, nil)
	}
	if o.ranks[id] == nil {
		ro := &RankObs{M: RankMetrics{Rank: id}}
		if o.Tracer != nil {
			ro.Track = o.Tracer.Track(PidRanks, id, rankName(id))
		}
		if o.Events != nil {
			ro.E = o.Events.rank(id)
		}
		o.ranks[id] = ro
	}
	return o.ranks[id]
}

// ResetRanks drops the per-rank accumulators and, with event retention on,
// starts a fresh event log, so the rank breakdown and events describe only
// the runs observed from here on. The registry and tracer keep
// accumulating. Call between runs, never during one.
func (o *Obs) ResetRanks() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ranks = nil
	if o.Events != nil {
		o.Events = &EventLog{}
	}
}

// RankMetrics returns the per-rank breakdowns recorded so far, in rank
// order. Call after mp.Run returns.
func (o *Obs) RankMetrics() []RankMetrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]RankMetrics, 0, len(o.ranks))
	for _, ro := range o.ranks {
		if ro != nil {
			out = append(out, ro.M)
		}
	}
	return out
}

// MetricsSnapshot is the JSON shape of a metrics dump.
type MetricsSnapshot struct {
	SchemaVersion int                          `json:"schema_version"`
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]float64           `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Texts         map[string]string            `json:"texts,omitempty"`
	Ranks         []RankMetrics                `json:"ranks"`
}

// Validate checks a metrics dump: a schema version, at least one counter, a
// per-rank breakdown whose compute and wait times are nonnegative and fit
// inside each rank's clock, and internally ordered histogram summaries.
func (s *MetricsSnapshot) Validate() error {
	if s.SchemaVersion < 1 {
		return fmt.Errorf("schema_version %d < 1", s.SchemaVersion)
	}
	if len(s.Counters) == 0 {
		return fmt.Errorf("no counters")
	}
	if len(s.Ranks) == 0 {
		return fmt.Errorf("no per-rank breakdown")
	}
	for _, rm := range s.Ranks {
		if rm.Clock < 0 || rm.ComputeSec < 0 || rm.WaitSec < 0 {
			return fmt.Errorf("rank %d: negative time in breakdown", rm.Rank)
		}
		if rm.ComputeSec+rm.WaitSec > rm.Clock*(1+1e-9)+1e-9 {
			return fmt.Errorf("rank %d: compute+wait %.6g exceeds clock %.6g",
				rm.Rank, rm.ComputeSec+rm.WaitSec, rm.Clock)
		}
	}
	for name, h := range s.Histograms {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("histogram %s: %v", name, err)
		}
	}
	return nil
}

// Snapshot captures the registry and per-rank breakdowns.
func (o *Obs) Snapshot() MetricsSnapshot {
	c, g := o.Reg.Snapshot()
	return MetricsSnapshot{
		SchemaVersion: MetricsSchemaVersion,
		Counters:      c,
		Gauges:        g,
		Histograms:    o.Reg.HistogramSnapshots(),
		Texts:         o.Reg.TextSnapshots(),
		Ranks:         o.RankMetrics(),
	}
}

// WriteMetrics writes the metrics snapshot as indented JSON.
func (o *Obs) WriteMetrics(w io.Writer) error {
	data, err := json.MarshalIndent(o.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteMetricsFile dumps the metrics snapshot to path.
func (o *Obs) WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTraceFile dumps the Chrome trace to path; no-op without a tracer.
func (o *Obs) WriteTraceFile(path string) error {
	if o.Tracer == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Tracer.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RankObs is one rank's observation handle: metric accumulators owned by
// the rank goroutine, the rank's trace track (nil without a tracer), and
// its structured event buffer (nil without EnableEvents).
type RankObs struct {
	M     RankMetrics
	Track *Track
	E     *RankEvents
}

// Observing reports whether spans are being consumed by anything (trace or
// event log); callers may skip span bookkeeping entirely when false.
func (ro *RankObs) Observing() bool {
	return ro != nil && (ro.Track != nil || ro.E != nil)
}

// Span records a complete virtual-time span on the rank's trace row and in
// the structured event log; no-op when neither is enabled. Purely
// observational: never touches the clock.
func (ro *RankObs) Span(cat, name string, t0, t1 float64) {
	if ro == nil {
		return
	}
	if ro.E != nil {
		ro.E.Spans = append(ro.E.Spans, SpanEvent{Cat: cat, Name: name, T0: t0, T1: t1})
	}
	if ro.Track != nil {
		ro.Track.Span(cat, name, t0, t1)
	}
}

// Async records a virtual-time span that may overlap others on the rank's
// row (rendered as a nestable async slice keyed by id).
func (ro *RankObs) Async(cat, name string, id int64, t0, t1 float64) {
	if ro == nil || ro.Track == nil {
		return
	}
	ro.Track.Async(cat, name, id, t0, t1)
}
