package main

import (
	"fmt"
	"sync/atomic"

	"probquorum/internal/analysis"
	"probquorum/internal/loadgen"
	"probquorum/internal/msg"
)

// verdict classifies one completed read against the harness's own history.
type verdict int

const (
	readOK verdict = iota
	// readStale: a value that was written, but older than the newest write
	// acknowledged before the read was submitted. A violation of regularity
	// on strict quorums; the paper's measured quantity on probabilistic ones.
	readStale
	// violIsolation: the value belongs to another key, or is no harness value.
	violIsolation
	// violReadsFrom: the value carries a sequence number nobody issued.
	violReadsFrom
)

func (v verdict) String() string {
	switch v {
	case readOK:
		return "ok"
	case readStale:
		return "stale"
	case violIsolation:
		return "isolation"
	case violReadsFrom:
		return "reads-from"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// staleSlack is how far register.stale_read_frac may sit above the analytic
// non-overlap probability before the run is called incorrect.
const staleSlack = 0.03

// checker is the output oracle. Values are loadgen.EncodeValue(key, seq) with
// one writer per key and seq counting that key's writes from 1, so three
// per-key numbers decide every read: the newest seq issued, the newest seq
// acknowledged, and the acknowledged seq the read saw when it was submitted
// (its floor). The issuing goroutine calls beginWrite and floor; completion
// callbacks on the clients' delivery goroutines call ackWrite and classify.
type checker struct {
	issued []atomic.Uint32
	acked  []atomic.Uint32
}

func newChecker(keys int) *checker {
	return &checker{issued: make([]atomic.Uint32, keys), acked: make([]atomic.Uint32, keys)}
}

// bytes is the checker's own heap footprint, subtracted from heap_mb.
func (c *checker) bytes() int64 { return int64(len(c.issued)+len(c.acked)) * 4 }

// beginWrite hands out key's next write sequence number.
func (c *checker) beginWrite(key msg.RegisterID) uint32 { return c.issued[key].Add(1) }

// ackWrite records that key's write seq was acknowledged. Acks of one key
// arrive in order (per-key FIFO, single writer); the CAS loop keeps the
// floor monotone even if they did not.
func (c *checker) ackWrite(key msg.RegisterID, seq uint32) {
	a := &c.acked[key]
	for {
		cur := a.Load()
		if seq <= cur || a.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// floor is the newest acknowledged write of key right now.
func (c *checker) floor(key msg.RegisterID) uint32 { return c.acked[key].Load() }

// classify judges what a read of key returned. floor is what floor(key) said
// when the read was submitted. The zero timestamp is the never-written
// initial value and counts as seq 0.
func (c *checker) classify(key msg.RegisterID, tag msg.Tagged, floor uint32) verdict {
	var seq uint32
	if !tag.TS.IsZero() {
		gotKey, s, ok := loadgen.DecodeValue(tag.Val)
		if !ok || gotKey != key {
			return violIsolation
		}
		seq = s
	}
	if seq > c.issued[key].Load() {
		return violReadsFrom
	}
	if seq < floor {
		return readStale
	}
	return readOK
}

// staleBandOK reports whether a run's stale-read share is one the quorum
// system allows: none on a strict system, at most the non-overlap
// probability of two k-subsets of n plus staleSlack on a probabilistic one.
func staleBandOK(stale, reads int64, n, k int) bool {
	if stale == 0 {
		return true
	}
	if 2*k > n || reads == 0 {
		return false
	}
	return float64(stale)/float64(reads) <= analysis.NonOverlapProb(n, k)+staleSlack
}
