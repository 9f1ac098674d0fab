package metrics

// Registrar receives named metrics for later collective export. The obs
// package's Registry is the canonical implementation; the interface lives
// here so every metric type can offer a Register hook without this package
// depending on HTTP serving.
type Registrar interface {
	RegisterCounter(name string, c *Counter)
	RegisterGauge(name string, g *Gauge)
	RegisterIntHistogram(name string, h *IntHistogram)
	RegisterLatencyHist(name string, h *LatencyHist)
	RegisterTally(name string, t *AccessTally)
}

// Register adds the counter to r under name and returns the counter, so a
// metric can be declared and registered in one expression.
func (c *Counter) Register(name string, r Registrar) *Counter {
	r.RegisterCounter(name, c)
	return c
}

// Register adds the gauge to r under name and returns the gauge.
func (g *Gauge) Register(name string, r Registrar) *Gauge {
	r.RegisterGauge(name, g)
	return g
}

// Register adds the histogram to r under name and returns the histogram.
func (h *IntHistogram) Register(name string, r Registrar) *IntHistogram {
	r.RegisterIntHistogram(name, h)
	return h
}

// Register adds the histogram to r under name and returns the histogram.
func (h *LatencyHist) Register(name string, r Registrar) *LatencyHist {
	r.RegisterLatencyHist(name, h)
	return h
}

// Register adds the tally to r under name and returns the tally.
func (t *AccessTally) Register(name string, r Registrar) *AccessTally {
	r.RegisterTally(name, t)
	return t
}

// Register adds every counter to r under prefix, as "<prefix>.retries",
// "<prefix>.timeouts", "<prefix>.reconnects", "<prefix>.stale_drops",
// "<prefix>.msgs_sent", "<prefix>.msgs_recv", "<prefix>.view_adopts",
// "<prefix>.top_ups", "<prefix>.suspicions", "<prefix>.probes" and
// "<prefix>.send_drops", and the send-queue gauge as
// "<prefix>.send_queue_max". It returns the receiver.
func (t *TransportCounters) Register(prefix string, r Registrar) *TransportCounters {
	t.Retries.Register(prefix+".retries", r)
	t.Timeouts.Register(prefix+".timeouts", r)
	t.Reconnects.Register(prefix+".reconnects", r)
	t.StaleDrops.Register(prefix+".stale_drops", r)
	t.MsgsSent.Register(prefix+".msgs_sent", r)
	t.MsgsRecv.Register(prefix+".msgs_recv", r)
	t.ViewAdopts.Register(prefix+".view_adopts", r)
	t.TopUps.Register(prefix+".top_ups", r)
	t.Suspicions.Register(prefix+".suspicions", r)
	t.Probes.Register(prefix+".probes", r)
	t.SendDrops.Register(prefix+".send_drops", r)
	t.SendQueueMax.Register(prefix+".send_queue_max", r)
	return t
}
