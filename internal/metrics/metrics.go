// Package metrics provides the measurement substrate for the experiments:
// message counters, per-server access tallies (for load measurements), and
// simple histograms (for read-freshness distributions).
//
// All types are safe for concurrent use so the goroutine runtime and the
// single-threaded simulator can share them.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n.Store(0) }

// TransportCounters groups the fault-path events of a networked register
// client: operations re-attempted on a freshly picked quorum, per-member
// calls that exceeded their deadline, and dead connections successfully
// re-dialed. A zero TransportCounters is ready to use; several clients may
// share one to aggregate a whole deployment's fault activity.
//
// MsgsSent and MsgsRecv count client-side transport messages with one shared
// granularity across every transport: one request handed to the transport per
// (operation attempt, quorum member), and one reply delivered back per
// member. Batch framing (the pipelined TCP client coalescing requests into
// one wire frame) does not change the count — the unit is the logical
// register message, matching the paper's message-complexity accounting
// (Eqns 1–3), so cross-transport experiments compare like with like.
type TransportCounters struct {
	// Retries counts operations abandoned and re-issued on a fresh quorum.
	Retries Counter
	// Timeouts counts per-member calls that hit their deadline: a serial
	// client's socket deadlines, and one per quorum member still silent when
	// a pipelined operation's deadline expires.
	Timeouts Counter
	// Reconnects counts dead connections successfully re-dialed.
	Reconnects Counter
	// StaleDrops counts replies that arrived for operations the client had
	// already abandoned (typically a late answer racing a per-op timeout)
	// and were discarded by op-id instead of poisoning the stream.
	StaleDrops Counter
	// MsgsSent counts logical register requests handed to the transport.
	MsgsSent Counter
	// MsgsRecv counts logical register replies delivered to the client.
	MsgsRecv Counter
	// ViewAdopts counts membership views adopted mid-stream after a
	// stale-epoch reject — the client-side pulse of a reconfiguration.
	ViewAdopts Counter
	// TopUps counts quorum members replaced inside a live attempt: the
	// request re-sent to one fresh server instead of the operation restarting
	// on a fresh quorum.
	TopUps Counter
	// Suspicions counts servers newly marked suspected (a dead connection, a
	// failed hand-off, silence past the deadline); picks avoid them until a
	// reply clears the mark.
	Suspicions Counter
	// Probes counts shadow requests sent to suspected servers to notice
	// their recovery.
	Probes Counter
	// SendDrops counts requests the transport lost before the wire — a burst
	// dropped on a failed (re-)dial or write, a full send queue. Each is also
	// reported to the client as a per-server error.
	SendDrops Counter
	// SendQueueMax reads how many requests a connection's writer found
	// pending the last time it drained a send queue; its Max is the deepest
	// any of the client's send queues has been — the client-side twin of the
	// server's reply-queue depth, and the first sign of a writer falling
	// behind (requests are refused at the queue bound, see SendDrops).
	SendQueueMax Gauge
}

// Snapshot returns the three fault-path counts at once.
func (t *TransportCounters) Snapshot() (retries, timeouts, reconnects int64) {
	return t.Retries.Value(), t.Timeouts.Value(), t.Reconnects.Value()
}

// Messages returns the logical message counts at once.
func (t *TransportCounters) Messages() (sent, recv int64) {
	return t.MsgsSent.Value(), t.MsgsRecv.Value()
}

// AccessTally counts how many operations touched each of n servers. The load
// experiments (paper Section 4, Naor–Wool load) derive the busiest-server
// access frequency from a tally.
type AccessTally struct {
	mu     sync.Mutex
	counts []int64
	total  int64
}

// NewAccessTally returns a tally over n servers.
func NewAccessTally(n int) *AccessTally {
	return &AccessTally{counts: make([]int64, n)}
}

// Touch records that one operation accessed each server in quorum.
func (t *AccessTally) Touch(quorum []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range quorum {
		t.counts[s]++
	}
	t.total++
}

// Total returns the number of operations recorded.
func (t *AccessTally) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Counts returns a copy of the per-server access counts.
func (t *AccessTally) Counts() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int64, len(t.counts))
	copy(out, t.counts)
	return out
}

// MaxLoad returns the access frequency of the busiest server: the maximum
// over servers of (accesses to that server) / (total operations). This is
// the empirical analogue of the Naor–Wool load of the selection strategy in
// use.
func (t *AccessTally) MaxLoad() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total == 0 {
		return 0
	}
	var max int64
	for _, c := range t.counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(t.total)
}

// Imbalance returns max/mean of the per-server access counts, a
// scale-independent measure of how evenly the selection strategy spreads
// work (1.0 is perfectly balanced).
func (t *AccessTally) Imbalance() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total == 0 || len(t.counts) == 0 {
		return 0
	}
	var max, sum int64
	for _, c := range t.counts {
		if c > max {
			max = c
		}
		sum += c
	}
	mean := float64(sum) / float64(len(t.counts))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}

// IntHistogram counts occurrences of small non-negative integer outcomes.
// The read-freshness experiment records the distribution of the [R5]
// variable Y with one.
type IntHistogram struct {
	mu     sync.Mutex
	counts map[int]int64
	total  int64
}

// NewIntHistogram returns an empty histogram.
func NewIntHistogram() *IntHistogram {
	return &IntHistogram{counts: make(map[int]int64)}
}

// Observe records one occurrence of v.
func (h *IntHistogram) Observe(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[v]++
	h.total++
}

// Total returns the number of observations.
func (h *IntHistogram) Total() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// P returns the empirical probability of outcome v.
func (h *IntHistogram) P(v int) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// Mean returns the empirical mean of the observations.
func (h *IntHistogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Max returns the largest observed outcome, or 0 if empty.
func (h *IntHistogram) Max() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	max := 0
	for v := range h.counts {
		if v > max {
			max = v
		}
	}
	return max
}

// Outcomes returns the observed outcomes in increasing order.
func (h *IntHistogram) Outcomes() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.counts))
	for v := range h.counts {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Counts returns a copy of the per-outcome counts and the total number of
// observations, for bulk export.
func (h *IntHistogram) Counts() (map[int]int64, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]int64, len(h.counts))
	for v, c := range h.counts {
		out[v] = c
	}
	return out, h.total
}

// Quantile returns the smallest outcome q such that at least fraction p of
// the observations are <= q. p must be in (0, 1].
func (h *IntHistogram) Quantile(p float64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	outcomes := make([]int, 0, len(h.counts))
	for v := range h.counts {
		outcomes = append(outcomes, v)
	}
	sort.Ints(outcomes)
	need := int64(math.Ceil(p * float64(h.total)))
	var acc int64
	for _, v := range outcomes {
		acc += h.counts[v]
		if acc >= need {
			return v
		}
	}
	return outcomes[len(outcomes)-1]
}

// Summary aggregates a series of float64 samples (for example, rounds until
// convergence across seeded runs) and reports mean, min, max and standard
// deviation. The Figure 2 experiment averages seven runs per point with one.
type Summary struct {
	mu      sync.Mutex
	samples []float64
}

// Observe appends one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, v)
}

// N returns the number of samples.
func (s *Summary) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return mean(s.samples)
}

// Min returns the smallest sample (0 if empty).
func (s *Summary) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample (0 if empty).
func (s *Summary) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Stddev returns the sample standard deviation (0 if fewer than 2 samples).
func (s *Summary) Stddev() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	m := mean(s.samples)
	var ss float64
	for _, v := range s.samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CI95 returns the half-width of an approximate 95% confidence interval on
// the mean (1.96·s/√n, the normal approximation; 0 with fewer than 2
// samples). Figure 2 points report mean ± CI95 across their seeded runs.
func (s *Summary) CI95() float64 {
	n := s.N()
	if n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}
