package tcp

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"probquorum/internal/metrics"
	"probquorum/internal/msg"
	"probquorum/internal/quorum"
	"probquorum/internal/register"
	"probquorum/internal/replica"
)

// startCluster launches n loopback servers and returns their addresses.
func startCluster(t *testing.T, n int, initial map[msg.RegisterID]msg.Value) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := Listen(replica.New(msg.NodeID(i), initial), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = srv.Addr()
	}
	return addrs
}

func TestReadWriteOverTCP(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: "init"})
	c, err := Dial(addrs, quorum.NewMajority(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tag, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "init" {
		t.Fatalf("initial read = %v", tag.Val)
	}
	for i := 1; i <= 10; i++ {
		if err := c.Write(0, i); err != nil {
			t.Fatal(err)
		}
		tag, err := c.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.Val != i {
			t.Fatalf("read %v after write %d", tag.Val, i)
		}
	}
}

func TestSliceValuesOverTCP(t *testing.T) {
	addrs := startCluster(t, 3, map[msg.RegisterID]msg.Value{0: []float64{0, 1}})
	c, err := Dial(addrs, quorum.NewAll(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []float64{3.5, 2.5, 1.5}
	if err := c.Write(0, want); err != nil {
		t.Fatal(err)
	}
	tag, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := tag.Val.([]float64)
	if !ok {
		t.Fatalf("value type %T", tag.Val)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row = %v, want %v", got, want)
		}
	}
}

func TestTwoClientsSeparateWriters(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: nil, 1: nil})
	a, err := Dial(addrs, quorum.NewMajority(5), WithWriter(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addrs, quorum.NewMajority(5), WithWriter(2), WithMonotone())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Single-writer-per-register discipline: a writes reg 0, b writes reg 1.
	if err := a.Write(0, "from-a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(1, "from-b"); err != nil {
		t.Fatal(err)
	}
	ta, err := b.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := a.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if ta.Val != "from-a" || tb.Val != "from-b" {
		t.Fatalf("cross reads = %v, %v", ta.Val, tb.Val)
	}
}

func TestMonotoneOverTCP(t *testing.T) {
	addrs := startCluster(t, 8, map[msg.RegisterID]msg.Value{0: nil})
	w, err := Dial(addrs, quorum.NewProbabilistic(8, 1), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, err := Dial(addrs, quorum.NewProbabilistic(8, 1), WithMonotone(), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var last msg.Timestamp
	for i := 0; i < 100; i++ {
		if err := w.Write(0, i); err != nil {
			t.Fatal(err)
		}
		tag, err := r.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if tag.TS.Less(last) {
			t.Fatalf("monotone TCP client regressed: %v after %v", tag.TS, last)
		}
		last = tag.TS
	}
	if r.Keyspace().CacheHits() == 0 {
		t.Fatal("k=1 monotone client never used its cache")
	}
}

func TestConcurrentQuorumFanOut(t *testing.T) {
	addrs := startCluster(t, 9, map[msg.RegisterID]msg.Value{0: nil})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		c, err := Dial(addrs, quorum.NewMajority(9), WithWriter(int32(w)), WithSeed(uint64(w)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(c *Client, reg msg.RegisterID) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := c.Write(reg, i); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Read(reg); err != nil {
					errCh <- err
					return
				}
			}
		}(c, msg.RegisterID(0))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestDialValidation(t *testing.T) {
	addrs := startCluster(t, 3, nil)
	if _, err := Dial(addrs, quorum.NewMajority(5)); err == nil {
		t.Fatal("mismatched system accepted")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, quorum.NewSingleton(1, 0)); err == nil {
		t.Fatal("dead address accepted")
	}
}

func TestReadAfterServerClose(t *testing.T) {
	initial := map[msg.RegisterID]msg.Value{0: "x"}
	srv, err := Listen(replica.New(0, initial), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial([]string{srv.Addr()}, quorum.NewSingleton(1, 0),
		WithOpTimeout(20*time.Millisecond), WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	// The exhausted budget names the lost member it could not replace.
	if _, err := c.Read(0); err == nil {
		t.Fatal("read over closed connection succeeded")
	} else if !strings.Contains(err.Error(), "server 0") {
		t.Fatalf("error lacks server context: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Listen(replica.New(0, nil), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
}

// TestValueUnionOverTCP writes one value of every type in the wire codec's
// union and reads it back with its Go type intact.
func TestValueUnionOverTCP(t *testing.T) {
	addrs := startCluster(t, 3, map[msg.RegisterID]msg.Value{0: "init"})
	c, err := Dial(addrs, quorum.NewAll(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, val := range []msg.Value{
		nil, int64(-5), int(7), uint64(1 << 63), 2.5, true, "s",
		[]byte{1, 2}, []float64{1.5, -2}, []bool{true, false},
	} {
		if err := c.Write(0, val); err != nil {
			t.Fatalf("write %T: %v", val, err)
		}
		tag, err := c.Read(0)
		if err != nil {
			t.Fatalf("read %T back: %v", val, err)
		}
		if !reflect.DeepEqual(tag.Val, val) {
			t.Errorf("wrote %#v (%T), read %#v (%T)", val, val, tag.Val, tag.Val)
		}
	}
}

// TestUnsupportedValueFailsFast pins every write entry point's up-front
// check: a value outside the codec's union is refused with
// msg.ErrUnsupportedValue before anything is sent — no retry budget burns,
// no connection dies — and the client keeps working.
func TestUnsupportedValueFailsFast(t *testing.T) {
	type custom struct{ A, B int }
	bad := custom{A: 1, B: 2}
	addrs := startCluster(t, 3, map[msg.RegisterID]msg.Value{0: nil})
	sys := quorum.NewAll(3)

	serial, err := Dial(addrs, sys, WithOpTimeout(50*time.Millisecond), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	ks, err := DialKeyspace(addrs, sys, 2, WithWriter(3), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ks.Close()

	wait := func(op *register.PendingOp) error { _, err := op.Wait(); return err }
	for _, tc := range []struct {
		name     string
		write    func(val msg.Value) error
		counters *metrics.TransportCounters
	}{
		{"Client.Write", func(v msg.Value) error { return serial.Write(0, v) }, serial.Counters()},
		{"Client.WriteMulti", func(v msg.Value) error { _, err := serial.WriteMulti(0, v); return err }, serial.Counters()},
		{"Client.WriteAsync", func(v msg.Value) error { return wait(serial.WriteAsync(0, v)) }, serial.Counters()},
		{"KeyspaceClient.Write", func(v msg.Value) error { return ks.Write(0, v) }, ks.Counters()},
		{"KeyspaceClient.WriteAsync", func(v msg.Value) error { return wait(ks.WriteAsync(0, v)) }, ks.Counters()},
		{"KeyspaceClient.WriteAsyncFunc", func(v msg.Value) error {
			got := make(chan error, 1)
			op := ks.WriteAsyncFunc(0, v, func(_ msg.Tagged, err error) { got <- err })
			if cb := <-got; cb != wait(op) {
				t.Errorf("callback got %v, Wait got %v", cb, wait(op))
			}
			return wait(op)
		}, ks.Counters()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.write(bad); !errors.Is(err, msg.ErrUnsupportedValue) {
				t.Fatalf("write of a %T: err = %v, want msg.ErrUnsupportedValue", bad, err)
			}
			if err := tc.write("fine"); err != nil {
				t.Fatalf("write after the refused one: %v", err)
			}
			if r, d := tc.counters.Retries.Value(), tc.counters.Reconnects.Value(); r != 0 || d != 0 {
				t.Errorf("refused write cost %d retries and %d reconnects, want 0 and 0", r, d)
			}
		})
	}
}

func TestReadAtomicOverTCP(t *testing.T) {
	addrs := startCluster(t, 5, map[msg.RegisterID]msg.Value{0: nil})
	// Write reaches only server 0.
	w, err := Dial(addrs, quorum.NewSingleton(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Write(0, "abd"); err != nil {
		t.Fatal(err)
	}
	// Atomic read over a full quorum: must see the value and write it back
	// everywhere before returning.
	r, err := Dial(addrs, quorum.NewAll(5), WithWriter(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tag, err := r.ReadAtomic(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Val != "abd" {
		t.Fatalf("atomic read = %v", tag.Val)
	}
	// Any subsequent single-server read sees it: the write-back completed
	// before ReadAtomic returned.
	for srv := 0; srv < 5; srv++ {
		single, err := Dial(addrs, quorum.NewSingleton(5, srv), WithWriter(int32(3+srv)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := single.Read(0)
		single.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Val != "abd" {
			t.Fatalf("server %d missed the awaited write-back: %v", srv, got.Val)
		}
	}
}
