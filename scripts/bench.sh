#!/usr/bin/env sh
# Runs the repo's benchmark suites and writes each one's results as a JSON
# file in the repo root:
#
#   BENCH_pipeline.json    pipelined-client throughput
#   BENCH_wire.json        wire-codec microbenchmark
#   BENCH_obs.json         observer overhead (paired on/off)
#   BENCH_fastread.json    atomic-read fast path (paired on/off)
#   BENCH_keyspace.json    sharded keyspace working-set sweep + paired ratio
#   BENCH_membership.json  epoch-stamp overhead + churn (paired)
#   BENCH_server.json      server reply coalescing + scaling curve
#   BENCH_loadgen.json     open-loop latency-vs-offered-load frontier
#
# Usage:
#
#   scripts/bench.sh [benchtime] [-short]
#
# benchtime defaults to 2s per sub-benchmark; pass e.g. "1x" for a smoke run.
# -short skips the loadgen frontier stage (the one stage whose cost is fixed
# wall-clock time — ~30s of paced load — rather than scaled by benchtime).
# Each stage converts `go test -bench` output with POSIX awk (no jq); the awk
# scripts exit nonzero when a stage produced no benchmark lines, and every
# JSON file is written via a temp file + mv so a failed stage never leaves a
# truncated or empty BENCH_*.json behind.
set -eu

cd "$(dirname "$0")/.."
benchtime="2s"
short=0
for arg in "$@"; do
    case "$arg" in
    -short) short=1 ;;
    *) benchtime="$arg" ;;
    esac
done
out="BENCH_pipeline.json"
raw="$(mktemp)"
json="$(mktemp)"
# mktemp creates 0600; later stages recreate $json via plain redirection
# (umask-default modes), so align the first stage's output file with them.
chmod 644 "$json"
trap 'rm -f "$raw" "$json"' EXIT

go test -bench=BenchmarkPipelineTCP -benchtime="$benchtime" -run XXX . | tee "$raw"

# Convert `BenchmarkPipelineTCP/<variant>-N  iters  ns/op  ops/s` lines into
# a JSON object keyed by variant, using only POSIX awk (no jq dependency).
BENCHTIME="$benchtime" awk '
BEGIN { n = 0 }
$1 ~ /^BenchmarkPipelineTCP\// {
    split($1, parts, "/")
    sub(/-[0-9]+$/, "", parts[2])
    name[n] = parts[2]
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ops/s")  rate[n] = $(i - 1)
        if ($(i) == "ns/op")  nsop[n] = $(i - 1)
    }
    n++
}
END {
    if (n == 0) { print "no benchmark lines found" > "/dev/stderr"; exit 1 }
    print "{"
    printf "  \"benchmark\": \"BenchmarkPipelineTCP\",\n"
    printf "  \"benchtime\": \"%s\",\n", ENVIRON["BENCHTIME"]
    printf "  \"results\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": {\"ops_per_sec\": %s, \"ns_per_op\": %s}%s\n", \
            name[i], rate[i], nsop[i], (i < n - 1 ? "," : "")
    }
    print "  }"
    print "}"
}' "$raw" > "$json" && mv "$json" "$out"

echo "wrote $out"

# Wire-codec microbenchmark: encode+decode per message kind, with allocation
# counts. `BenchmarkWireCodec/binary/<kind>-N  iters  ns/op  B/op  allocs/op`
# becomes a JSON object keyed by "binary/<kind>" (the key the file's history
# uses; its retired gob arm is recorded in CHANGES.md).
wireout="BENCH_wire.json"
go test -bench=BenchmarkWireCodec -benchtime="$benchtime" -benchmem -run XXX \
    ./internal/msg | tee "$raw"

BENCHTIME="$benchtime" awk '
BEGIN { n = 0 }
$1 ~ /^BenchmarkWireCodec\// {
    split($1, parts, "/")
    sub(/-[0-9]+$/, "", parts[3])
    name[n] = parts[2] "/" parts[3]
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     nsop[n] = $(i - 1)
        if ($(i) == "B/op")      bop[n] = $(i - 1)
        if ($(i) == "allocs/op") aop[n] = $(i - 1)
    }
    n++
}
END {
    if (n == 0) { print "no wire benchmark lines found" > "/dev/stderr"; exit 1 }
    print "{"
    printf "  \"benchmark\": \"BenchmarkWireCodec\",\n"
    printf "  \"benchtime\": \"%s\",\n", ENVIRON["BENCHTIME"]
    printf "  \"results\": {\n"
    for (i = 0; i < n; i++) {
        printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name[i], nsop[i], bop[i], aop[i], (i < n - 1 ? "," : "")
    }
    print "  }"
    print "}"
}' "$raw" > "$json" && mv "$json" "$wireout"

echo "wrote $wireout"

# Observer overhead: pipelined-batch16 throughput with phase tracing on
# versus off, measured PAIRED (both clients alternate inside one benchmark
# loop, so machine drift cancels out of the ratio; see bench_obs_test.go).
# The acceptance bar is the "observer-on" rate within 5% of "observer-off";
# overhead_pct records the measurement. "full-stack" adds every other
# opt-in metric and is informational.
obsout="BENCH_obs.json"
go test -bench=BenchmarkObserverTCP -benchtime="$benchtime" -count=5 -run XXX . | tee "$raw"

# Median of five runs per configuration: individual runs wobble with
# machine load even with the paired design, the median does not.
BENCHTIME="$benchtime" awk '
function median(a, m,  i, j, t) {
    for (i = 1; i <= m; i++)
        for (j = i + 1; j <= m; j++)
            if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
    return a[int((m + 1) / 2)]
}
$1 ~ /^BenchmarkObserverTCP/ {
    n++
    for (i = 2; i <= NF; i++) {
        if ($(i) == "off_ops/s")  offs[n] = $(i - 1)
        if ($(i) == "on_ops/s")   ons[n] = $(i - 1)
        if ($(i) == "full_ops/s") fulls[n] = $(i - 1)
    }
}
END {
    if (n != 5) {
        print "expected 5 observer benchmark runs, got " n > "/dev/stderr"; exit 1
    }
    off = median(offs, n); on = median(ons, n); full = median(fulls, n)
    print "{"
    printf "  \"benchmark\": \"BenchmarkObserverTCP\",\n"
    printf "  \"benchtime\": \"%s\",\n", ENVIRON["BENCHTIME"]
    printf "  \"workload\": \"pipelined-batch16 (paired, median of 5)\",\n"
    printf "  \"results\": {\n"
    printf "    \"observer-off\": {\"ops_per_sec\": %s},\n", off
    printf "    \"observer-on\": {\"ops_per_sec\": %s},\n", on
    printf "    \"full-stack\": {\"ops_per_sec\": %s}\n", full
    print "  },"
    printf "  \"observer_overhead_pct\": %.2f,\n", (off - on) / off * 100
    printf "  \"full_stack_overhead_pct\": %.2f\n", (off - full) / off * 100
    print "}"
}' "$raw" > "$json" && mv "$json" "$obsout"

echo "wrote $obsout"

# Atomic-read fast path: pipelined atomic-read throughput with write-back
# elision on versus off, paired per transport (see bench_fastread_test.go).
# The acceptance bar is fast-on at least 1.5x fast-off on every transport;
# speedup records the measurement, median of five runs.
fastout="BENCH_fastread.json"
go test -bench=BenchmarkFastRead -benchtime="$benchtime" -count=5 -run XXX . | tee "$raw"

BENCHTIME="$benchtime" awk '
function median(a, m,  i, j, t) {
    for (i = 1; i <= m; i++)
        for (j = i + 1; j <= m; j++)
            if (a[j] + 0 < a[i] + 0) { t = a[i]; a[i] = a[j]; a[j] = t }
    return a[int((m + 1) / 2)]
}
$1 ~ /^BenchmarkFastRead\// {
    split($1, parts, "/")
    sub(/-[0-9]+$/, "", parts[2])
    tr = parts[2]
    if (!(tr in cnt)) order[++m] = tr
    cnt[tr]++
    for (i = 2; i <= NF; i++) {
        if ($(i) == "on_ops/s")  ons[tr, cnt[tr]] = $(i - 1)
        if ($(i) == "off_ops/s") offs[tr, cnt[tr]] = $(i - 1)
    }
}
END {
    if (m == 0) { print "no fast-read benchmark lines found" > "/dev/stderr"; exit 1 }
    print "{"
    printf "  \"benchmark\": \"BenchmarkFastRead\",\n"
    printf "  \"benchtime\": \"%s\",\n", ENVIRON["BENCHTIME"]
    printf "  \"workload\": \"pipelined atomic-read rounds (paired fast-path on/off, median of 5)\",\n"
    printf "  \"results\": {\n"
    for (t = 1; t <= m; t++) {
        tr = order[t]
        for (i = 1; i <= cnt[tr]; i++) { a[i] = ons[tr, i]; b[i] = offs[tr, i] }
        on = median(a, cnt[tr]); off = median(b, cnt[tr])
        printf "    \"%s\": {\"fast_on_ops_per_sec\": %s, \"fast_off_ops_per_sec\": %s, \"speedup\": %.2f}%s\n", \
            tr, on, off, on / off, (t < m ? "," : "")
    }
    print "  }"
    print "}"
}' "$raw" > "$json" && mv "$json" "$fastout"

echo "wrote $fastout"

# Sharded keyspace throughput: the working-set sweep (1 key, 10k keys, a
# zipf-skewed 1M keys) plus 8 goroutines on distinct keys, median of five
# runs (see bench_keyspace_test.go). The acceptance bars are keys10k within
# 10% of the single-register pipelined client and conc8 at least 2x keys1.
# The keys10k ratio comes from BenchmarkKeyspaceVsPipelineTCP, which runs
# both clients interleaved against one server set with separate busy timers
# — a paired measurement, because on a shared machine loopback throughput
# drifts between separate benchmark executions by more than the 10% margin
# under test. idle_bytes_per_key comes from TestKeyspaceIdleKeyBytes's
# 1M-key measurement.
ksout="BENCH_keyspace.json"
go test -bench='BenchmarkKeyspace(TCP|VsPipelineTCP)' -benchtime="$benchtime" -count=5 -run XXX . | tee "$raw"

idle="$(go test -run TestKeyspaceIdleKeyBytes -v ./internal/register \
    | awk '/idle-key cost:/ { for (i = 1; i <= NF; i++) if ($(i) == "B/key") print $(i - 1) }')"
[ -n "$idle" ] || { echo "no idle-key measurement (did TestKeyspaceIdleKeyBytes skip?)" >&2; exit 1; }

BENCHTIME="$benchtime" IDLE="$idle" awk '
function median(a, m,  i, j, t) {
    for (i = 1; i <= m; i++)
        for (j = i + 1; j <= m; j++)
            if (a[j] + 0 < a[i] + 0) { t = a[i]; a[i] = a[j]; a[j] = t }
    return a[int((m + 1) / 2)]
}
$1 ~ /^BenchmarkKeyspaceTCP\// {
    split($1, parts, "/")
    sub(/-[0-9]+$/, "", parts[2])
    v = parts[2]
    if (!(v in cnt)) order[++m] = v
    cnt[v]++
    for (i = 2; i <= NF; i++)
        if ($(i) == "ops/s") rate[v, cnt[v]] = $(i - 1)
}
$1 ~ /^BenchmarkKeyspaceVsPipelineTCP/ {
    np++
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ratio")        ratios[np] = $(i - 1)
        if ($(i) == "pipe_ops/s")   prate[np] = $(i - 1)
        if ($(i) == "ks10k_ops/s")  krate[np] = $(i - 1)
    }
}
END {
    if (m == 0) { print "no keyspace benchmark lines found" > "/dev/stderr"; exit 1 }
    if (np == 0) { print "no paired keyspace-vs-pipeline lines found" > "/dev/stderr"; exit 1 }
    print "{"
    printf "  \"benchmark\": \"BenchmarkKeyspaceTCP + BenchmarkKeyspaceVsPipelineTCP\",\n"
    printf "  \"benchtime\": \"%s\",\n", ENVIRON["BENCHTIME"]
    printf "  \"workload\": \"pipelined write+read rounds over the keyspace (median of 5)\",\n"
    printf "  \"results\": {\n"
    for (t = 1; t <= m; t++) {
        v = order[t]
        for (i = 1; i <= cnt[v]; i++) a[i] = rate[v, i]
        med[v] = median(a, cnt[v])
        printf "    \"%s\": {\"ops_per_sec\": %s}%s\n", v, med[v], (t < m ? "," : "")
    }
    print "  },"
    printf "  \"paired\": {\"pipeline_batch16_ops_per_sec\": %s, \"keyspace_10k_ops_per_sec\": %s},\n", \
        median(prate, np), median(krate, np)
    printf "  \"idle_bytes_per_key\": %s,\n", ENVIRON["IDLE"]
    printf "  \"keys10k_vs_pipeline_batch16\": %.3f,\n", median(ratios, np)
    printf "  \"conc8_vs_keys1\": %.2f\n", med["conc8"] / med["keys1"]
    print "}"
}' "$raw" > "$json" && mv "$json" "$ksout"

echo "wrote $ksout"

# Membership overhead: static-mode vs view-stamped steady state, paired
# inside one benchmark loop (see bench_membership_test.go), plus the same
# workload under continuous crash/recover churn (informational — that rate
# is timeout-bound). The acceptance bar is the view-stamped rate within 5%
# of static, median of five runs.
memout="BENCH_membership.json"
go test -bench=BenchmarkMembershipTCP -benchtime="$benchtime" -count=5 -run XXX . | tee "$raw"

BENCHTIME="$benchtime" awk '
function median(a, m,  i, j, t) {
    for (i = 1; i <= m; i++)
        for (j = i + 1; j <= m; j++)
            if (a[j] + 0 < a[i] + 0) { t = a[i]; a[i] = a[j]; a[j] = t }
    return a[int((m + 1) / 2)]
}
$1 ~ /^BenchmarkMembershipTCP/ {
    n++
    for (i = 2; i <= NF; i++) {
        if ($(i) == "static_ops/s") statics[n] = $(i - 1)
        if ($(i) == "view_ops/s")   views[n] = $(i - 1)
        if ($(i) == "churn_ops/s")  churns[n] = $(i - 1)
    }
}
END {
    if (n != 5) {
        print "expected 5 membership benchmark runs, got " n > "/dev/stderr"; exit 1
    }
    st = median(statics, n); vw = median(views, n); ch = median(churns, n)
    print "{"
    printf "  \"benchmark\": \"BenchmarkMembershipTCP\",\n"
    printf "  \"benchtime\": \"%s\",\n", ENVIRON["BENCHTIME"]
    printf "  \"workload\": \"pipelined-batch16 rounds (paired static/view-stamped, median of 5)\",\n"
    printf "  \"results\": {\n"
    printf "    \"static\": {\"ops_per_sec\": %s},\n", st
    printf "    \"view-stamped\": {\"ops_per_sec\": %s},\n", vw
    printf "    \"rolling-churn\": {\"ops_per_sec\": %s}\n", ch
    print "  },"
    printf "  \"view_vs_static\": %.3f,\n", vw / st
    printf "  \"epoch_overhead_pct\": %.2f\n", (st - vw) / st * 100
    print "}"
}' "$raw" > "$json" && mv "$json" "$memout"

echo "wrote $memout"

# Server hot path: the two deep-pipeline reply-coalescing workloads (see
# bench_server_test.go) plus the conns x GOMAXPROCS scaling curve, median of
# five runs. The paired inline-reply arm these workloads were once measured
# against (1.33x / 1.38x) is retired with the inline serve loop; CHANGES.md
# keeps the record.
svrout="BENCH_server.json"
go test -bench=BenchmarkServer -benchtime="$benchtime" -count=5 -run XXX . | tee "$raw"

BENCHTIME="$benchtime" awk '
function median(a, m,  i, j, t) {
    for (i = 1; i <= m; i++)
        for (j = i + 1; j <= m; j++)
            if (a[j] + 0 < a[i] + 0) { t = a[i]; a[i] = a[j]; a[j] = t }
    return a[int((m + 1) / 2)]
}
$1 ~ /^BenchmarkServerScaling\// {
    split($1, parts, "/")
    sub(/-[0-9]+$/, "", parts[3])
    v = parts[2] "/" parts[3]
    if (!(v in scnt)) sorder[++sm] = v
    scnt[v]++
    for (i = 2; i <= NF; i++)
        if ($(i) == "ops/s") srate[v, scnt[v]] = $(i - 1)
}
$1 ~ /^BenchmarkServerCoalescing\// {
    split($1, parts, "/")
    sub(/-[0-9]+$/, "", parts[2])
    v = parts[2]
    if (!(v in ccnt)) corder[++cm] = v
    ccnt[v]++
    for (i = 2; i <= NF; i++)
        if ($(i) == "coalesced_ops/s") coa[v, ccnt[v]] = $(i - 1)
}
END {
    if (sm == 0) { print "no server scaling benchmark lines found" > "/dev/stderr"; exit 1 }
    if (cm == 0) { print "no server coalescing benchmark lines found" > "/dev/stderr"; exit 1 }
    print "{"
    printf "  \"benchmark\": \"BenchmarkServerScaling + BenchmarkServerCoalescing\",\n"
    printf "  \"benchtime\": \"%s\",\n", ENVIRON["BENCHTIME"]
    printf "  \"workload\": \"pipelined write+read rounds (median of 5)\",\n"
    printf "  \"scaling\": {\n"
    for (t = 1; t <= sm; t++) {
        v = sorder[t]
        for (i = 1; i <= scnt[v]; i++) a[i] = srate[v, i]
        printf "    \"%s\": {\"ops_per_sec\": %s}%s\n", v, median(a, scnt[v]), (t < sm ? "," : "")
    }
    print "  },"
    printf "  \"coalescing\": {\n"
    for (t = 1; t <= cm; t++) {
        v = corder[t]
        for (i = 1; i <= ccnt[v]; i++) a[i] = coa[v, i]
        printf "    \"%s\": {\"coalesced_ops_per_sec\": %s}%s\n", \
            v, median(a, ccnt[v]), (t < cm ? "," : "")
    }
    print "  }"
    print "}"
}' "$raw" > "$json" && mv "$json" "$svrout"

echo "wrote $svrout"

# Open-loop load frontier: p50/p99 latency versus offered rate, one healthy
# arm and one crash/recover fault arm, four load points each on a fresh
# in-process TCP cluster (see cmd/loadgen). Unlike the go-test stages this
# one's cost is fixed wall-clock time — each point offers paced load for a
# set duration regardless of benchtime — so -short skips it rather than
# shrinking it into meaninglessness. The frontier command emits the complete
# JSON document itself; the temp-file + mv discipline still applies.
lgout="BENCH_loadgen.json"
if [ "$short" -eq 1 ]; then
    echo "skipping $lgout (-short)"
else
    go run ./cmd/loadgen frontier -rates 400,800,1600,3200 -duration 3s -o "$json"
    mv "$json" "$lgout"
    echo "wrote $lgout"
fi
