package main

import (
	"time"

	"probquorum/internal/loadgen"
)

// loop is how a workload's load is generated.
type loop int

const (
	// openLoop issues slots on a fixed schedule whether or not earlier
	// operations completed; latency counts from the due instant.
	openLoop loop = iota
	// closedLoop keeps a fixed number of operations in flight from one
	// issuing goroutine; a slow stack receives less load.
	closedLoop
	// apspJobs runs the paper's §7 application back to back.
	apspJobs
)

// workload is one set of inputs the benchmark runs. Names are final: later
// issues cite them.
type workload struct {
	Name string
	Why  string // one line, mirrored in BENCHMARK.json
	Loop loop

	Rate     int // openLoop: offered operations per second
	InFlight int // closedLoop: operations in flight in total

	Servers int
	K       int  // quorum size; 0 selects a strict majority
	Links   bool // route every byte through a faults.Link proxy per server
	Mix     loadgen.Mix
	Keys    int
	Limit   time.Duration // latency limit behind loadgen.slo_miss_frac
	// Crash silences server 1 from 0.3 to 0.7 of every measured window.
	Crash bool
}

const (
	probN = 34 // the paper's Figure 2 replica count
	probK = 6
)

var (
	mixDefault = loadgen.DefaultMix // read=0.65,write=0.25,atomic=0.10
	mixProb    = loadgen.Mix{Read: 0.75, Write: 0.25}
)

var workloads = []workload{
	{
		Name: "steady-maj5", Loop: openLoop, Rate: 48000,
		Servers: 5, Mix: mixDefault, Keys: 10000, Limit: 5 * time.Millisecond,
		Why: "open loop at 40% CPU on a majority of 5: per-op wake-ups, goroutine hops and syscalls set latency, queueing does not",
	},
	{
		Name: "sat-keys10k", Loop: closedLoop, InFlight: 512,
		Servers: 5, Mix: mixDefault, Keys: 10000, Limit: 5 * time.Millisecond,
		Why: "closed loop, 512 in flight, CPU-bound: pipeline lock, encode/decode and reply coalescing set throughput",
	},
	{
		Name: "sat-keys1m", Loop: closedLoop, InFlight: 512,
		Servers: 5, Mix: mixDefault, Keys: 1000000, Limit: 5 * time.Millisecond,
		Why: "as sat-keys10k over 1M prefilled keys: working set beyond CPU caches and a GC-visible heap; a flat store moves only this",
	},
	{
		Name: "crash-maj5", Loop: openLoop, Rate: 8000,
		Servers: 5, Links: true, Mix: mixDefault, Keys: 10000, Limit: 10 * time.Millisecond, Crash: true,
		Why: "open loop through link proxies with one of five servers silent 40% of each window: timeouts and retries set the tail",
	},
	{
		Name: "prob-n34", Loop: openLoop, Rate: 12000,
		Servers: probN, K: probK, Mix: mixProb, Keys: 10000, Limit: 5 * time.Millisecond,
		Why: "the paper's system: k=6 of n=34, stale reads allowed; fan-out over 68 sockets and the pick over 34 dominate",
	},
	{
		Name: "apsp-n34", Loop: apspJobs,
		Servers: probN, K: probK,
		Why: "the paper's APSP job on chain(34) over TCP: 34-float row values, monotone cache, round barrier, per-job dial and teardown",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported number. Better is "lower" or "higher"; Bound
// is the share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression (per-layer metrics have none).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the register stack sees. Every workload reports
// every one; what an "op" is per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_us", "us", "lower", 0.25},
	// The tail, as a share rather than a quantile: a p99 is set by GC cycles
	// and host stalls on the healthy workloads, while the share of operations
	// inside the workload's limit is steady there and reads the outage on
	// crash-maj5. Never 0.
	{"within_limit_frac", "frac", "higher", 0.10},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.15},
}

// perLayer lists the single-layer metrics in layer order. A traced run
// prints all of them; one the workload's plant cannot observe reads 0.
var perLayer = []metricDef{
	// loadgen: the harness itself. Must not change between commits.
	{"loadgen.pacer_lag_us.p50", "us", "lower", 0},
	{"loadgen.pacer_lag_us.p99", "us", "lower", 0},
	{"loadgen.max_behind_slots", "count", "lower", 0},
	{"loadgen.shed", "count", "lower", 0},
	{"loadgen.p99_us", "us", "lower", 0},
	{"loadgen.slo_miss_frac", "frac", "lower", 0},
	{"loadgen.failed_frac", "frac", "lower", 0},
	// quorum
	{"quorum.pick_ns.maj5", "ns", "lower", 0},
	{"quorum.pick_ns.prob34k6", "ns", "lower", 0},
	{"quorum.max_load", "frac", "lower", 0},
	// msg
	{"msg.encode_ns.scalar", "ns", "lower", 0},
	{"msg.decode_ns.scalar", "ns", "lower", 0},
	{"msg.bytes_per_msg.scalar", "B", "lower", 0},
	{"msg.encode_ns.row34", "ns", "lower", 0},
	{"msg.decode_ns.row34", "ns", "lower", 0},
	{"msg.bytes_per_msg.row34", "B", "lower", 0},
	{"msg.allocs_per_msg", "count", "lower", 0},
	// replica
	{"replica.apply_read_ns.keys10k", "ns", "lower", 0},
	{"replica.apply_read_ns.keys1m", "ns", "lower", 0},
	{"replica.apply_write_ns.keys10k", "ns", "lower", 0},
	{"replica.apply_write_ns.keys1m", "ns", "lower", 0},
	// register
	{"register.mem_ops_per_s", "1/s", "higher", 0},
	{"register.mem_cpu_us_per_op", "us", "lower", 0},
	{"register.msgs_per_op", "count", "lower", 0},
	{"register.retries_per_kop", "count", "lower", 0},
	{"register.timeouts_per_kop", "count", "lower", 0},
	{"register.stale_drops_per_kop", "count", "lower", 0},
	{"register.fast_read_frac", "frac", "higher", 0},
	{"register.stale_read_frac", "frac", "lower", 0},
	{"register.phase.pick_us.mean", "us", "lower", 0},
	{"register.phase.pick_us.p99", "us", "lower", 0},
	{"register.phase.quorum_wait_us.mean", "us", "lower", 0},
	{"register.phase.quorum_wait_us.p99", "us", "lower", 0},
	{"register.phase.write_back_us.mean", "us", "lower", 0},
	{"register.phase.write_back_us.p99", "us", "lower", 0},
	{"register.phase.ops_us.mean", "us", "lower", 0},
	{"register.phase.ops_us.p99", "us", "lower", 0},
	// tcp
	{"tcp.rtt_us.single", "us", "lower", 0},
	{"tcp.submit_us.p50", "us", "lower", 0},
	{"tcp.submit_us.p99", "us", "lower", 0},
	{"tcp.req_batch_mean", "count", "higher", 0},
	{"tcp.reply_batch_mean", "count", "higher", 0},
	{"tcp.reply_queue_max", "count", "lower", 0},
	{"tcp.slow_conn_drops", "count", "lower", 0},
	{"tcp.reconnects", "count", "lower", 0},
	// faults
	{"faults.link_added_us", "us", "lower", 0},
	// aco / semiring / sim
	{"aco.converge_ms", "ms", "lower", 0},
	{"aco.job_ms", "ms", "lower", 0},
	{"aco.iters_per_job.p50", "count", "lower", 0},
	{"aco.fixedpoint_ms", "ms", "lower", 0},
	{"sim.fig2_rounds.k6", "count", "lower", 0},
	{"sim.fig2_msgs.k6", "count", "lower", 0},
	{"sim.fig2_wall_ms", "ms", "lower", 0},
	// runtime
	{"go.alloc_b_per_op", "B", "lower", 0},
	{"go.gc_per_s", "1/s", "lower", 0},
	{"go.gc_pause_ms_total", "ms", "lower", 0},
	// budget: hop costs against the end-to-end CPU number, from outside
	{"budget.attributed_us_per_op", "us", "lower", 0},
	{"budget.unattributed_frac", "frac", "lower", 0},
	// trace
	{"trace.overhead_frac", "frac", "lower", 0},
}
