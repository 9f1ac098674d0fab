package transport_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"probquorum/internal/quorum"
	"probquorum/internal/transport"
)

// TestHealthLifecycle walks one server through suspected → probed → cleared
// and checks what each reader of the table sees at every step.
func TestHealthLifecycle(t *testing.T) {
	cause := errors.New("connection reset")
	h := transport.NewHealth(70)
	if h.Any() || h.Suspected(3) || len(h.MaskInto(nil)) != 0 {
		t.Fatal("a fresh table suspects somebody")
	}
	if _, ok := h.ProbeTarget(); ok {
		t.Fatal("a fresh table wants a probe")
	}

	before := time.Now()
	if !h.Suspect(65, cause) {
		t.Fatal("first suspicion not reported as news")
	}
	if h.Suspect(65, errors.New("again")) {
		t.Fatal("repeated suspicion reported as news")
	}
	if h.Suspect(70, cause) || h.Suspect(-1, cause) {
		t.Fatal("a server outside the table was suspected")
	}
	if !h.Any() || !h.Suspected(65) || h.Suspected(64) {
		t.Fatal("suspicion not visible")
	}
	if m := h.MaskInto(nil); !m.Has(65) || m.Has(1) || m.Has(64) {
		t.Fatalf("mask %v", m)
	}
	row := h.Snapshot()[65]
	if !row.Suspected || row.Since.Before(before) || row.Since.After(time.Now()) || row.LastErr == nil {
		t.Fatalf("snapshot row %+v", row)
	}

	// Due a probe at once, then once per interval, one caller at a time.
	if srv, ok := h.ProbeTarget(); !ok || srv != 65 {
		t.Fatalf("ProbeTarget = %d, %v; want the new suspect", srv, ok)
	}
	if _, ok := h.ProbeTarget(); ok {
		t.Fatal("a second probe inside the interval")
	}
	time.Sleep(transport.ProbeInterval + time.Millisecond)
	if srv, ok := h.ProbeTarget(); !ok || srv != 65 {
		t.Fatal("no probe after the interval")
	}

	h.Clear(64) // not suspected: nothing happens
	h.Clear(65)
	if h.Any() || h.Suspected(65) {
		t.Fatal("a reply did not clear the suspicion")
	}
	if row := h.Snapshot()[65]; row.Suspected || !row.Since.IsZero() || row.LastErr == nil {
		t.Fatalf("cleared row %+v, want the last error kept", row)
	}
}

// TestHealthReset: adopting a view forgets every suspicion and resizes the
// table, once per epoch.
func TestHealthReset(t *testing.T) {
	h := transport.NewHealth(3)
	h.Suspect(1, errors.New("x"))
	h.Reset(2, 5)
	if h.Any() || len(h.Snapshot()) != 5 {
		t.Fatalf("after Reset: any=%v rows=%d", h.Any(), len(h.Snapshot()))
	}
	h.Suspect(4, errors.New("y"))
	h.Reset(2, 5) // a second engine adopting the same view
	h.Reset(1, 3) // a stale view
	if !h.Suspected(4) || len(h.Snapshot()) != 5 {
		t.Fatal("a repeated or stale Reset wiped the table")
	}

	var nilTable *transport.Health
	nilTable.Reset(9, 9)
	nilTable.Clear(0)
	if nilTable.Any() || nilTable.Suspect(0, nil) || nilTable.Suspected(0) || nilTable.Snapshot() != nil {
		t.Fatal("the nil table suspects somebody")
	}
}

// TestHealthConcurrent hammers the table from every side — suspicions,
// replies, probes and view changes — and checks that the count behind Any
// still agrees with the slots once the dust settles.
func TestHealthConcurrent(t *testing.T) {
	const n = 8
	h := transport.NewHealth(n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mask quorum.Mask
			for i := 0; i < 20000; i++ {
				srv := (i + g) % n
				switch (i + g) % 4 {
				case 0:
					h.Suspect(srv, nil)
				case 1:
					h.Clear(srv)
				case 2:
					mask = h.MaskInto(mask)
					h.ProbeTarget()
				default:
					if g == 0 && i%100 == 3 {
						h.Reset(quorum.Epoch(i), n)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for srv := 0; srv < n; srv++ {
		h.Clear(srv)
	}
	if h.Any() {
		t.Fatal("every server was cleared, yet Any still reports a suspect: the count drifted")
	}
	h.Suspect(2, nil)
	if !h.Any() {
		t.Fatal("a suspicion after the storm is invisible: the count drifted below zero")
	}
}
