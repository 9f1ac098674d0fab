package metrics

// ServerMetrics aggregates the replica server's reply-path instruments: how
// many replies each conn.Write carried, and the most any one carried. One
// ServerMetrics is typically shared by every connection of a server;
// QueueDepth.Max is then the largest reply burst across all of them.
type ServerMetrics struct {
	ReplyBatch *IntHistogram // replies per conn.Write
	QueueDepth *Gauge        // replies in the latest write (Max = the largest single write)
}

// NewServerMetrics returns a zeroed ServerMetrics ready to attach through
// the TCP server's WithServerMetrics option.
func NewServerMetrics() *ServerMetrics {
	return &ServerMetrics{
		ReplyBatch: NewIntHistogram(),
		QueueDepth: &Gauge{},
	}
}

// Register adds both instruments to r as "<prefix>.reply_batch" and
// "<prefix>.queue_depth". It returns the receiver.
func (m *ServerMetrics) Register(prefix string, r Registrar) *ServerMetrics {
	m.ReplyBatch.Register(prefix+".reply_batch", r)
	m.QueueDepth.Register(prefix+".queue_depth", r)
	return m
}
