#!/usr/bin/env sh
# Static-quality gate: formatting, vet, build, and the full test suite.
# Usage:
#
#   scripts/check.sh          # gofmt + vet + build + test
#   scripts/check.sh -race    # same, with the race detector on the tests
#
# Exits non-zero on the first failure; the gofmt check lists offending
# files instead of rewriting them.
set -eu

cd "$(dirname "$0")/.."

race=""
if [ "${1:-}" = "-race" ]; then
    race="-race"
fi

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test $race ./...

echo "== paper fidelity =="
# Every committed paper number regenerates byte for byte: the simulator and
# analytic experiments are deterministic in their seed, so a cell of
# docs/csv that moves is a behaviour change to decide on (regenerate the
# file and say why), never a drift to discover later. E16 runs on real
# sockets and has no committed CSV.
fidelity="$(mktemp -d)"
trap 'rm -rf "$fidelity"' EXIT
go run ./cmd/reproduce -o "$fidelity" > "$fidelity/report.txt"
fidelity_fail=0
for f in docs/csv/*.csv; do
    if ! cmp -s "$f" "$fidelity/$(basename "$f")"; then
        echo "check.sh: $f does not regenerate:" >&2
        diff "$f" "$fidelity/$(basename "$f")" >&2 || true
        fidelity_fail=1
    fi
done
# -only runs a subset and writes only its CSVs: E7 has no quick form, so
# -quick -only E7 writes exactly the committed E07-bounds.csv. An unknown ID
# is an error, not an empty run.
mkdir "$fidelity/e7"
go run ./cmd/reproduce -quick -only E7 -o "$fidelity/e7" > /dev/null
if [ "$(ls "$fidelity/e7")" != "E07-bounds.csv" ] || ! cmp -s docs/csv/E07-bounds.csv "$fidelity/e7/E07-bounds.csv"; then
    echo "check.sh: -quick -only E7 did not write exactly docs/csv/E07-bounds.csv:" >&2
    ls "$fidelity/e7" >&2
    fidelity_fail=1
fi
if go run ./cmd/reproduce -only E99 > /dev/null 2>&1; then
    echo "check.sh: -only E99 exited 0" >&2
    fidelity_fail=1
fi
if [ "$fidelity_fail" -ne 0 ]; then
    exit 1
fi

echo "== allocation gates =="
# The testing.AllocsPerRun pins run as ordinary tests (and self-skip under
# -race, where the instrumentation inflates counts); naming them here keeps
# hot-path allocation regressions loud even if the full suite's output
# scrolls past. The observer and fast-read gates measure a pipeline driven
# one blocking call at a time — phase marks live in the operation's
# PendingOp — so attaching an observer, or eliding a write-back, must add no
# allocation there; the keyspace gate holds the shard hop to the pipeline's
# cost and a one-shard client's reply frames to none. The two retention
# gates ride along: a closed tcp.Client (one shard with blocking or async
# calls, or sharded) is collectable at once, and a whole APSP job over TCP
# leaves (and allocates) what its traffic cost, not what worst-case
# connections would. So do the store's memory gates:
# bytes of live heap per stored register, and the stripe layout that keeps
# neighbouring locks off one cache line. The client's per-layer benchmark
# (512 operations in flight on a sharded keyspace over the in-memory network)
# runs once per size, so it keeps compiling and completing.
go test $race -run 'TestWireAllocGates|TestPickIntoAllocs|TestObserverAllocGate|TestFastReadAllocGate|TestKeyspaceAllocGate|TestKeyspaceIdleKeyBytes|TestServeAllocGate|TestClientDecodeAllocGate|TestClosedClientIsCollectable|TestRunTCPLeavesLittleReachable|TestStoreBytesPerKey|TestStoreLayout' \
    ./internal/msg ./internal/quorum ./internal/register ./internal/replica ./internal/transport/tcp ./internal/aco
go test -run '^$' -bench KeyspaceDeep -benchtime 1x ./internal/register

echo "== membership churn smoke =="
# The membership conformance suite (rolling restarts, grow/shrink across
# epochs, crash-join) always runs under the race detector here, whatever the
# flag: reconfiguration is where client goroutines, the transport's conn
# swaps, and the replica's view installs all meet, and a data race in that
# seam would otherwise only surface under churn in production. -cpu 2,8
# replays it at two parallelism levels: reconfiguration races shift with
# scheduler pressure.
go test -race -cpu 2,8 -run 'TestMembership|TestSetView|TestStaleFor|TestSnapshotInstall|TestViewStats' \
    ./internal/register ./internal/replica

echo "== fault-aware fan-out and the serve loop under the race detector =="
# The same treatment for the fault path: the transport's error sink, the
# keyspace's shard locks, the deadline timer and the probe path all meet in a
# top-up, and they meet on goroutines the healthy path never crosses. A loss
# without a deadline that no member can replace must fail the operation, not
# hang it, and neither may closing the client under it. The serve-loop tests
# ride along: when the one goroutine per connection writes, a reader that
# never drains (a loop parked in Write), and Server.Close unblocking it
# without leaking a goroutine. So do the connection-set rows, where several
# engines share those sockets: separate caches and retry budgets, replies
# demultiplexed to the engine that issued them, an engine closed under the
# others, and a crash suspected once for the set. So do the Alg. 1 runs over
# sockets and the monitor they report to: a process's completions arrive on
# the connections' reader goroutines and on deadline timers, and each one
# reports to the one monitor.
go test -race -cpu 2,8 \
    -run 'TestFlappingServerNoLivelock|TestSilentServerCostsOneDeadline|TestLossWithoutDeadline|TestCloseFailsPendingRead|TestConformance/crash-topup|TestHealth|TestCrashCostsOneRoundTrip|TestKilledListenerIsNotSilent|TestPartitionCostsOneDeadline|TestServeWritesOncePerRead|TestSlowReaderStallsOnlyItself|TestServerCloseNoGoroutineLeak|TestConnSet|TestRunTCP|TestMonitor' \
    ./internal/register ./internal/transport ./internal/transport/tcp ./internal/aco

echo "== load harness smoke soak =="
# A 30-second open-loop soak against an in-process TCP server set, always
# under the race detector: the harness's callback completions, the fault
# links' pipe goroutines, and the keyspace client's delivery goroutines all
# meet here. Every read is judged as it completes by the online checker
# (internal/trace): plain reads must be regular, atomic reads free of new-old
# inversions, and every read must return an issued write of its own key. The
# command's exit status is the verdict: CI's proof that a random sustained
# workload keeps each register class end to end. The crash arm is a fault the
# transport signals (top-up on error); the partition arm is a silent one
# (top-up on deadline), and the slow link is where a write reaches one member
# of its quorum up to 2ms before the other, the window in which an atomic read
# that skipped its write-back shows as an inversion. Eight clients, four keys,
# an atomic-heavy mix and 3500 op/s keep several atomic readers of each key
# inside that window: an atomic read without write-back fails this stage.
go run -race ./cmd/loadgen -duration 30s -rate 3500 -servers 3 -clients 8 -keys 4 \
    -mix read=0.2,write=0.2,atomic=0.6 \
    -schedule '@5s crash 1; @10s recover 1; @15s slow 2 2ms; @20s slow 2 0s; @22s partition 1; @26s heal'

echo "== fuzz corpora =="
# Replay every checked-in fuzz corpus entry (plus the f.Add seeds) as
# ordinary tests: the wire codec's round-trip and malformed-input fuzzers,
# the striped store's mixed-key batch and map-model fuzzers, and the online
# checker's agreement with the offline ones must stay green on the
# regression inputs without needing -fuzz time.
go test $race -run 'Fuzz' ./internal/msg ./internal/replica ./internal/trace

echo "== API hygiene =="
# The deprecated aliases (tcp.ErrQuorumUnavailable, cluster.ErrTooManyRetries,
# cluster.WithTimeout) were deleted outright; the blessed surface is
# register.ErrQuorumUnavailable + register.Settings everywhere (tcp's With*
# options each set one of its fields). No exemptions: a definition
# reappearing anywhere fails this gate too.
hygiene_fail=0
deprecated_uses="$(grep -rn \
    -e 'tcp\.ErrQuorumUnavailable' \
    -e 'ErrQuorumUnavailable = register\.' \
    -e 'ErrTooManyRetries' \
    -e 'WithTimeout(' \
    --include='*.go' . \
    || true)"
if [ -n "$deprecated_uses" ]; then
    echo "check.sh: new uses of deprecated identifiers (migrate to register.ErrQuorumUnavailable / WithOpTimeout+WithRetries):" >&2
    echo "$deprecated_uses" >&2
    hygiene_fail=1
fi
# The TCP transport carries an op along one route (binary frames, one serve
# loop, whole-frame reply delivery); the gob wire, the inline serve loop and
# the per-element reply leg were deleted with the options that selected them.
# One operation engine drives every client: the serial client's option list
# and translator, its phase timer, retry backoff and latency option went
# with its event queue. Each transport binds one client type over a
# keyspace: the blocking and pipelined facades, register.Client, Detach and
# the unused clock option went with them. The facade names match as whole
# identifiers only: tests that checked the facades kept their names, and
# the retention gate keeps the row named after the pipelined one. The
# Pipeline is the Operation's only driver, the simulator included: the
# exported operation constructors and the hand-driven sim nodes are gone.
# register.Settings is the one client configuration: cluster's option twins,
# register's variant and instrument options, and the batch-size and
# fast-read ablation knobs went with the translations between them. Write
# timestamps come from one counter per engine: the per-register map went.
# Two harnesses run the protocol, the simulator and loopback TCP: the
# in-memory goroutine runtime and the Alg. 1 runner over it went. Both run
# one Alg. 1 process and one monitor: the blocking worker, its convergence
# tracker and the iteration cap (MaxRounds replaced it) went. One command
# reproduces the paper, a loop over one experiment registry: the five
# per-experiment front ends, their list parser and the per-result CSV
# renderers went. A reply enters a register client one way, through the
# typed ReplySink calls, and a frame is decoded one way, by msg's visitor: the
# boxed Deliver, the test-only transport constructor, tcp's boxing reply
# adapter and reply-epoch probe, the second batch decoder, and the unused
# send-to-all helper with its error type went. One latency histogram,
# metrics.LatencyHist, is log-linear: loadgen's single-owner copy went (a
# comment may still name it; bench/stats.go says why it keeps raw samples).
# The operation transition table is the one driver of a quorum round, and
# the compiler says so: the exported read and write sessions went, and so
# did the engine's message counter, next to the two the transports keep. A
# carrier counts the messages it carries: the counting wrapper went. A joiner
# merges a read quorum: the single-source join went. Every load run checks
# its register class online: the soak mode, its trace and the offline replay
# of it went. There is one client type, register.Keyspace, on every runtime,
# and its operations are declared once, on it: the exported Pipeline, its
# constructor and Keyspace.Shard went (the simulator builds a one-shard
# NewKeyspace), and so did tcp.Client's forwarders — it embeds the keyspace —
# the no-callback async variants (an …AsyncFunc with a nil callback is the
# same operation) and aco's client interface. The value check is msg's
# CheckValue, called in the one submission path: tcp's copy of it and the
# throwaway closed client its refusals completed through went, so no write
# entry of any client can skip it again. An operation's FIFO link and
# deadline entry are fields of its PendingOp, found through two flat tables:
# the per-register queue entries, the deadline-list nodes and the free lists
# that recycled both went, so the submit and reply paths stay free of Go maps
# and side allocations.
retired_uses="$({ grep -rnE '\.Deliver\(|boxedReplies|decodeBatch|\bReplyEpoch\b|\bSendAll\b|\bMultiError\b|NewPipelineOver|cmd/(figure2|msgtable|decay|loadavail|quorumtool)|\bParseIntList\b|csvRenderable|\.RenderCSV\(|internal/cluster|\bRunConcurrent\b|convergenceTracker|\bnewWorker\b|\bMaxIterations\b|\bConcurrentConfig\b|\.wts\b|WireGob|WithWire|WithInlineReplies|RegisterValueType|BatchReplySink|WithRetryBackoff|WithLatency|register\.Apply\(|register\.ClientOption|phaseTimer|\bDialPipelined\b|\bPipelinedClient\b|\bPipeClient\b|register\.NewClient|\.Detach\(|\bWithClock\b|\bNew(Atomic)?(Read|Write)Op\b|\bprocNode\b|confSimNode|memSimNode|cluster\.With|cluster\.ClientOption|WithMaxBatch|WithoutFastRead|register\.Monotone\(|register\.(With(Tally|ReadRepair|Masking|View|WriteSystem)|Pipe(Trace|Gauge|Counters|Observer))\(|\bWithMessageCounter\b|\b(Read|Write)Session\b|transport\.Instrument\b|^func Instrument\(|\btcp\.Join\b|^func Join\(|\bCheckSoak\b|\bRetiredKeys\b|\bDeflected\b|\bSoak:|-soak\b|register\.NewPipeline\b|register\.Pipeline\b|\.Shard\(|\bcheckValue\b|\brejectWrite\b|\basyncClient\b|\.(Read|Write|ReadAtomic)Async\(|^func \(c \*Client\) (Read|Write)|\bregQueue\b|\bqfree(Max)?\b|\bpipeTimer\b|\btfree(Max)?\b' \
    --include='*.go' . | grep -v '"PipelinedClient"'
    grep -rnE 'loadgen\.Hist\b|histBucketOf' --include='*.go' . | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'
} || true)"
gob_imports="$(grep -rn '"encoding/gob"' --include='*.go' --exclude='*_test.go' . || true)"
if [ -n "$retired_uses$gob_imports" ]; then
    echo "check.sh: retired identifiers reappeared (gob wire, inline replies, per-element reply sink, serial-client options, client facades, hand-driven operations, the goroutine runtime, the blocking Alg. 1 worker, the per-experiment front ends, the boxed reply path, the second latency histogram, the exported sessions, the counting wrapper, the single-source join, the soak mode, the second client surface, the pipeline's side structures):" >&2
    echo "$retired_uses$gob_imports" >&2
    hygiene_fail=1
fi
# Client per-key state: the engine may hold one map keyed by register, the
# monotone cache (which only the monotone variant fills). Anything else the
# engine keeps per register costs every client a map entry per key written.
regmaps="$(grep -nE '^[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]+map\[msg\.RegisterID\]' internal/register/engine.go || true)"
if [ "$(echo "$regmaps" | sed 's/^[0-9]*:[[:space:]]*//; s/[[:space:]].*//')" != "cache" ]; then
    echo "check.sh: client per-key state: internal/register/engine.go must declare exactly one map[msg.RegisterID] field, the monotone cache:" >&2
    echo "$regmaps" >&2
    hygiene_fail=1
fi
# Every exported With*/Pipe* option must carry a doc comment: the options
# are the public surface, and an undocumented option is an unreviewed one.
undocumented="$(find . -name '*.go' ! -name '*_test.go' -not -path './related/*' -exec awk '
    /^func (With|Pipe)[A-Z]/ { if (prev !~ /^\/\//) print FILENAME ":" FNR ": " $0 }
    { prev = $0 }
' {} +)"
if [ -n "$undocumented" ]; then
    echo "check.sh: exported With*/Pipe* options missing doc comments:" >&2
    echo "$undocumented" >&2
    hygiene_fail=1
fi
# The option count only goes down: a new setting is a Settings field, not
# another option function.
max_options=18
options="$(grep -rE '^func (With|Pipe)[A-Z]' internal | wc -l)"
if [ "$options" -gt "$max_options" ]; then
    echo "check.sh: $options exported With*/Pipe* option functions in internal/, the gate is $max_options:" >&2
    grep -rnE '^func (With|Pipe)[A-Z]' internal >&2
    hygiene_fail=1
fi
if [ "$hygiene_fail" -ne 0 ]; then
    exit 1
fi

echo "== examples =="
# Every example is a program a reader runs first, so each must fail loudly:
# the Alg. 1 examples exit non-zero when their run does not converge or
# their own check of the result fails, and quickstart when its monotone
# reader regresses.
for ex in examples/*/; do
    if ! go run "./$ex" > /dev/null; then
        echo "check.sh: $ex failed" >&2
        exit 1
    fi
done

echo "== bench module =="
# bench/ is a nested module, so the ./... patterns above never compile it; an
# API deletion in the main module could break the benchmark unnoticed. It runs
# last: under set -e a failure in bench/'s own tests (which changes outside
# bench/ cannot repair) must not hide the gates above.
(cd bench && go vet ./... && go test $race ./...)

echo "check.sh: all gates passed"
