package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"probquorum/internal/metrics"
)

func TestRegistrySnapshotValues(t *testing.T) {
	reg := NewRegistry()

	var c metrics.Counter
	c.Register("demo.retries", reg)
	c.Add(7)

	var g metrics.Gauge
	g.Register("demo.inflight", reg)
	g.Add(3)
	g.Add(2)
	g.Add(-4)

	ih := metrics.NewIntHistogram().Register("demo.batch", reg)
	ih.Observe(1)
	ih.Observe(4)
	ih.Observe(4)

	var lh metrics.LatencyHist
	lh.Register("demo.lat", reg)
	lh.Observe(100 * time.Microsecond)
	lh.Observe(3 * time.Millisecond)

	tally := metrics.NewAccessTally(3).Register("demo.access", reg)
	tally.Touch([]int{0, 2})

	reg.RegisterHealth("demo.server.0", func() Health {
		return Health{Live: true, Sessions: 2, Reads: 10, Writes: 5}
	})

	s := reg.Snapshot()
	if got := s.Counters["demo.retries"]; got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	if gv := s.Gauges["demo.inflight"]; gv.Value != 1 || gv.Max != 5 {
		t.Errorf("gauge = %+v, want value 1 max 5", gv)
	}
	if hv := s.IntHists["demo.batch"]; hv.Total != 3 || hv.Counts[4] != 2 {
		t.Errorf("int hist = %+v, want total 3, counts[4] = 2", hv)
	}
	ls := s.Latencies["demo.lat"]
	if ls.Count != 2 {
		t.Errorf("latency count = %d, want 2", ls.Count)
	}
	if want := 100*time.Microsecond + 3*time.Millisecond; ls.Sum != want {
		t.Errorf("latency sum = %v, want %v", ls.Sum, want)
	}
	tv := s.Tallies["demo.access"]
	if tv.Total != 1 || tv.Counts[0] != 1 || tv.Counts[1] != 0 || tv.Counts[2] != 1 {
		t.Errorf("tally = %+v, want one op touching servers 0 and 2", tv)
	}
	h := s.Health["demo.server.0"]
	if !h.Live || h.Sessions != 2 || h.Reads != 10 {
		t.Errorf("health = %+v", h)
	}
	if !s.Live() {
		t.Error("Live() = false with one live probe")
	}

	// The snapshot is a copy: later increments must not leak into it.
	c.Add(100)
	if s.Counters["demo.retries"] != 7 {
		t.Error("snapshot counter tracked the live value")
	}
}

func TestRegistryCreateOrGet(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Error("Counter create-or-get returned distinct counters")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Error("Gauge create-or-get returned distinct gauges")
	}
	if reg.IntHistogram("h") != reg.IntHistogram("h") {
		t.Error("IntHistogram create-or-get returned distinct histograms")
	}
	if reg.LatencyHist("l") != reg.LatencyHist("l") {
		t.Error("LatencyHist create-or-get returned distinct histograms")
	}
	// An explicit registration replaces the implicit one.
	var c metrics.Counter
	c.Add(42)
	c.Register("x", reg)
	if got := reg.Snapshot().Counters["x"]; got != 42 {
		t.Errorf("after re-registration counter = %d, want 42", got)
	}
}

func TestSnapshotLiveReflectsProbes(t *testing.T) {
	reg := NewRegistry()
	if !reg.Snapshot().Live() {
		t.Error("empty registry should be live")
	}
	live := true
	reg.RegisterHealth("s0", func() Health { return Health{Live: live} })
	if !reg.Snapshot().Live() {
		t.Error("live probe should report live")
	}
	live = false
	if reg.Snapshot().Live() {
		t.Error("dead probe should report not live")
	}
}

// metricLine matches one Prometheus text-format sample line.
var metricLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// checkPrometheus validates the exposition-format invariants the scrapers we
// care about rely on: every line is a comment or a well-formed sample, every
// sample's metric family has a preceding # TYPE, histogram buckets are
// cumulative with a final +Inf bucket equal to _count.
func checkPrometheus(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}
	bucketLast := map[string]float64{} // histogram name -> last bucket count
	infSeen := map[string]float64{}
	counts := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var name, typ string
			if n, _ := fmt.Sscanf(line, "# TYPE %s %s", &name, &typ); n == 2 {
				types[name] = typ
			}
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count", "_max", "_total"} {
			fam = strings.TrimSuffix(fam, suffix)
		}
		if _, ok := types[name]; !ok {
			if _, ok := types[fam]; !ok {
				t.Errorf("sample %q has no # TYPE for %q or %q", line, name, fam)
			}
		}
		valStr := line[strings.LastIndex(line, " ")+1:]
		val, err := strconv.ParseFloat(strings.Replace(valStr, "Inf", "inf", 1), 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		switch {
		case strings.Contains(line, "_bucket{"):
			if val < bucketLast[fam] {
				t.Errorf("histogram %s buckets not cumulative at %q", fam, line)
			}
			bucketLast[fam] = val
			if strings.Contains(line, `le="+Inf"`) {
				infSeen[fam] = val
			}
		case strings.HasSuffix(name, "_count"):
			counts[fam] = val
		}
	}
	for fam, inf := range infSeen {
		if c, ok := counts[fam]; !ok || c != inf {
			t.Errorf("histogram %s: +Inf bucket %v != _count %v", fam, inf, c)
		}
	}
	if len(infSeen) == 0 {
		t.Error("no histogram with a +Inf bucket in output")
	}
}

func populatedRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("tcp.client.retries").Add(3)
	reg.Gauge("tcp.client.inflight").Add(2)
	reg.IntHistogram("tcp.client.batch_size").Observe(4)
	lh := reg.LatencyHist("tcp.client.ops")
	lh.Observe(250 * time.Microsecond)
	lh.Observe(2 * time.Millisecond)
	metrics.NewAccessTally(2).Register("tcp.client.access", reg).Touch([]int{1})
	reg.RegisterHealth("tcp.server.0", func() Health {
		return Health{Live: true, Sessions: 1, Reads: 4, Writes: 2, Addr: "127.0.0.1:1"}
	})
	return reg
}

func TestWritePrometheusParses(t *testing.T) {
	var b strings.Builder
	populatedRegistry().WritePrometheus(&b)
	out := b.String()
	checkPrometheus(t, out)
	for _, want := range []string{
		"tcp_client_retries 3",
		"tcp_client_inflight 2",
		"tcp_client_inflight_max 2",
		`tcp_client_access_total{server="1"} 1`,
		"tcp_client_ops_count 2",
		`tcp_server_0_up 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

// TestWritePrometheusGolden pins /metrics byte for byte: the latency
// histograms' le ladder is one bucket per power of two of nanoseconds, so
// testdata/prometheus.golden is also what a histogram with exactly those 64
// buckets exposes for the same observations, octave edges and the largest
// octave included.
func TestWritePrometheusGolden(t *testing.T) {
	reg := populatedRegistry()
	edges := reg.LatencyHist("golden.edges")
	for _, d := range []time.Duration{0, 1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 1023, 1024, 1025,
		250 * time.Microsecond, 2 * time.Millisecond, time.Second, 1 << 62} {
		edges.Observe(d)
	}
	spread := reg.LatencyHist("golden.spread")
	for i := 1; i <= 1000; i++ {
		spread.Observe(time.Duration(i*i) * time.Microsecond)
	}
	reg.LatencyHist("golden.empty")

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/prometheus.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("exposition differs from testdata/prometheus.golden:\n%s", got)
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := populatedRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	code, ctype, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ctype)
	}
	checkPrometheus(t, body)

	code, ctype, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d, body %s", code, body)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/healthz content-type = %q", ctype)
	}
	if !strings.Contains(body, `"live": true`) {
		t.Errorf("/healthz body = %s", body)
	}

	// A dead probe flips /healthz to 503.
	reg.RegisterHealth("tcp.server.1", func() Health { return Health{Live: false} })
	if code, _, body = get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz with dead server status = %d, body %s", code, body)
	}

	if code, _, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
}

// TestSnapshotDuringLoadIsRaceClean hammers every metric type from writer
// goroutines while scraping snapshots and Prometheus renderings; the race
// detector (tier-1 runs with -race) verifies the locking.
func TestSnapshotDuringLoadIsRaceClean(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("load.ops")
	g := reg.Gauge("load.inflight")
	ih := reg.IntHistogram("load.batch")
	lh := reg.LatencyHist("load.lat")
	tally := metrics.NewAccessTally(4).Register("load.access", reg)
	reg.RegisterHealth("load.s0", func() Health { return Health{Live: true} })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Add(1)
				ih.Observe(i % 16)
				lh.Observe(time.Duration(i%1000) * time.Microsecond)
				tally.Touch([]int{i % 4})
				g.Add(-1)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		s := reg.Snapshot()
		if s.Counters["load.ops"] < 0 {
			t.Fatal("impossible counter value")
		}
		var b strings.Builder
		reg.WritePrometheus(&b)
	}
	close(stop)
	wg.Wait()
	checkPrometheus(t, func() string {
		var b strings.Builder
		reg.WritePrometheus(&b)
		return b.String()
	}())
}
