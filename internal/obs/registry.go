// Package obs makes a running deployment self-reporting: a process-wide
// Registry that named metrics register into, consistent point-in-time
// snapshots of everything registered, a Prometheus text rendering of those
// snapshots, and an HTTP debug server (Serve) exposing /metrics, /healthz
// and /debug/pprof/.
//
// The registry holds *pointers* to live metrics — the same Counter a client
// increments is the one a scrape reads — so attaching observability costs
// nothing on the hot path beyond the metrics the caller already opted into.
package obs

import (
	"sort"
	"sync"
	"time"

	"probquorum/internal/metrics"
)

// Registry is a named collection of live metrics and health probes. The zero
// value is not ready; use NewRegistry. A Registry implements
// metrics.Registrar, so any metric type with a Register hook can be attached:
//
//	var c metrics.Counter
//	c.Register("client.retries", reg)
//
// All methods are safe for concurrent use, including Snapshot during load.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*metrics.Counter
	gauges   map[string]*metrics.Gauge
	intHists map[string]*metrics.IntHistogram
	latHists map[string]*metrics.LatencyHist
	tallies  map[string]*metrics.AccessTally
	health   map[string]HealthFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*metrics.Counter),
		gauges:   make(map[string]*metrics.Gauge),
		intHists: make(map[string]*metrics.IntHistogram),
		latHists: make(map[string]*metrics.LatencyHist),
		tallies:  make(map[string]*metrics.AccessTally),
		health:   make(map[string]HealthFunc),
	}
}

// RegisterCounter attaches c under name, replacing any previous registration
// of that name.
func (r *Registry) RegisterCounter(name string, c *metrics.Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// RegisterGauge attaches g under name.
func (r *Registry) RegisterGauge(name string, g *metrics.Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = g
}

// RegisterIntHistogram attaches h under name.
func (r *Registry) RegisterIntHistogram(name string, h *metrics.IntHistogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.intHists[name] = h
}

// RegisterLatencyHist attaches h under name.
func (r *Registry) RegisterLatencyHist(name string, h *metrics.LatencyHist) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latHists[name] = h
}

// RegisterTally attaches t under name.
func (r *Registry) RegisterTally(name string, t *metrics.AccessTally) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tallies[name] = t
}

// Counter returns the counter registered under name, creating and
// registering a fresh one on first use.
func (r *Registry) Counter(name string) *metrics.Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(metrics.Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating one on first use.
func (r *Registry) Gauge(name string) *metrics.Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(metrics.Gauge)
		r.gauges[name] = g
	}
	return g
}

// IntHistogram returns the histogram registered under name, creating one on
// first use.
func (r *Registry) IntHistogram(name string) *metrics.IntHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.intHists[name]
	if !ok {
		h = metrics.NewIntHistogram()
		r.intHists[name] = h
	}
	return h
}

// LatencyHist returns the latency histogram registered under name, creating
// one on first use.
func (r *Registry) LatencyHist(name string) *metrics.LatencyHist {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.latHists[name]
	if !ok {
		h = new(metrics.LatencyHist)
		r.latHists[name] = h
	}
	return h
}

// Health is one server's liveness report. Registered by a server it says
// whether its replica store is serving (a crashed store drops requests on the
// floor), how many transport sessions are attached, and the store's
// cumulative request counts. Registered by a client (one probe per server of
// its view) it says whether that client currently suspects the server — Live
// is then "not suspected" — since when, and the last failure it attributed to
// it.
type Health struct {
	Live     bool   `json:"live"`
	Sessions int    `json:"sessions"`
	Reads    int64  `json:"reads"`
	Writes   int64  `json:"writes"`
	Addr     string `json:"addr,omitempty"`
	// Epoch and View report the server's active membership view: the epoch
	// it rejects older operations against and the number of members in it.
	// Both stay zero for servers running in static (pre-membership) mode.
	Epoch uint64 `json:"epoch,omitempty"`
	View  int    `json:"view,omitempty"`
	// Since is when a client's current suspicion of the server began (nil
	// when it suspects nothing), LastError the most recent failure the client
	// attributed to the server, kept after the suspicion clears.
	Since     *time.Time `json:"suspected_since,omitempty"`
	LastError string     `json:"last_error,omitempty"`
}

// HealthFunc samples one server's current health. It must be safe to call
// concurrently with the server's own request handling.
type HealthFunc func() Health

// RegisterHealth attaches a health probe under name (conventionally the
// server's index or address). /healthz reports every registered probe and
// returns 503 unless all are live.
func (r *Registry) RegisterHealth(name string, fn HealthFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.health[name] = fn
}

// GaugeValue is a point-in-time gauge reading with its high-watermark.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// IntHistValue is a point-in-time copy of an IntHistogram.
type IntHistValue struct {
	Counts map[int]int64 `json:"counts"`
	Total  int64         `json:"total"`
}

// TallyValue is a point-in-time copy of an AccessTally.
type TallyValue struct {
	Counts []int64 `json:"counts"`
	Total  int64   `json:"total"`
}

// Snapshot is a consistent point-in-time view of everything registered.
// "Consistent" is per-metric: each metric is copied under its own lock, so a
// scrape during load sees each histogram whole, though two metrics may be
// read a few instructions apart.
type Snapshot struct {
	Counters  map[string]int64                   `json:"counters,omitempty"`
	Gauges    map[string]GaugeValue              `json:"gauges,omitempty"`
	IntHists  map[string]IntHistValue            `json:"int_hists,omitempty"`
	Latencies map[string]metrics.LatencySnapshot `json:"latencies,omitempty"`
	Tallies   map[string]TallyValue              `json:"tallies,omitempty"`
	Health    map[string]Health                  `json:"health,omitempty"`
}

// Snapshot captures the current value of every registered metric and health
// probe. Health probes are sampled outside the registry lock so a slow probe
// cannot block concurrent registration.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Counters:  make(map[string]int64, len(r.counters)),
		Gauges:    make(map[string]GaugeValue, len(r.gauges)),
		IntHists:  make(map[string]IntHistValue, len(r.intHists)),
		Latencies: make(map[string]metrics.LatencySnapshot, len(r.latHists)),
		Tallies:   make(map[string]TallyValue, len(r.tallies)),
		Health:    make(map[string]Health, len(r.health)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.intHists {
		counts, total := h.Counts()
		s.IntHists[name] = IntHistValue{Counts: counts, Total: total}
	}
	for name, h := range r.latHists {
		s.Latencies[name] = h.Snapshot()
	}
	for name, t := range r.tallies {
		s.Tallies[name] = TallyValue{Counts: t.Counts(), Total: t.Total()}
	}
	probes := make(map[string]HealthFunc, len(r.health))
	for name, fn := range r.health {
		probes[name] = fn
	}
	r.mu.Unlock()
	for name, fn := range probes {
		s.Health[name] = fn()
	}
	return s
}

// Live reports whether every registered health probe is live (true when none
// are registered).
func (s Snapshot) Live() bool {
	for _, h := range s.Health {
		if !h.Live {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
