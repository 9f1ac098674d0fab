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
# neighbouring locks off one cache line.
go test $race -run 'TestWireAllocGates|TestPickIntoAllocs|TestObserverAllocGate|TestFastReadAllocGate|TestKeyspaceAllocGate|TestKeyspaceIdleKeyBytes|TestServeAllocGate|TestClientDecodeAllocGate|TestClosedClientIsCollectable|TestRunTCPLeavesLittleReachable|TestStoreBytesPerKey|TestStoreLayout' \
    ./internal/msg ./internal/quorum ./internal/register ./internal/replica ./internal/transport/tcp ./internal/aco

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
# others, and a crash suspected once for the set.
go test -race -cpu 2,8 \
    -run 'TestFlappingServerNoLivelock|TestSilentServerCostsOneDeadline|TestLossWithoutDeadline|TestCloseFailsPendingRead|TestConformance/crash-topup|TestHealth|TestCrashCostsOneRoundTrip|TestKilledListenerIsNotSilent|TestPartitionCostsOneDeadline|TestServeWritesOncePerRead|TestSlowReaderStallsOnlyItself|TestServerCloseNoGoroutineLeak|TestConnSet' \
    ./internal/register ./internal/cluster ./internal/transport ./internal/transport/tcp

echo "== load harness smoke soak =="
# A 30-second open-loop soak against an in-process TCP server set, always
# under the race detector: the harness's callback completions, the fault
# links' pipe goroutines, and the keyspace client's delivery goroutines all
# meet here, and the run replays the trace checkers (well-formedness,
# reads-from, atomicity, per-key isolation) as its exit criterion — CI's
# proof that a random sustained workload stays linearizable end to end. The
# crash arm is a fault the transport signals (top-up on error); the partition
# arm is a silent one (top-up on deadline), so the atomicity checker runs
# across both.
go run -race ./cmd/loadgen -soak -duration 30s -rate 250 -servers 3 \
    -schedule '@5s crash 1; @10s recover 1; @15s slow 2 2ms; @20s slow 2 0s; @22s partition 1; @26s heal'

echo "== fuzz corpora =="
# Replay every checked-in fuzz corpus entry (plus the f.Add seeds) as
# ordinary tests: the wire codec's round-trip and malformed-input fuzzers
# and the striped store's mixed-key batch and map-model fuzzers must stay
# green on the regression inputs without needing -fuzz time.
go test $race -run 'Fuzz' ./internal/msg ./internal/replica

echo "== API hygiene =="
# The deprecated aliases (tcp.ErrQuorumUnavailable, cluster.ErrTooManyRetries,
# cluster.WithTimeout) were deleted outright; the blessed surface is
# register.ErrQuorumUnavailable + register.Settings/With* everywhere. No
# exemptions: a definition reappearing anywhere fails this gate too.
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
retired_uses="$(grep -rnE 'WireGob|WithWire|WithInlineReplies|RegisterValueType|BatchReplySink|WithRetryBackoff|WithLatency|register\.Apply\(|register\.ClientOption|phaseTimer|\bDialPipelined\b|\bPipelinedClient\b|\bPipeClient\b|register\.NewClient|\.Detach\(|\bWithClock\b|\bNew(Atomic)?(Read|Write)Op\b|\bprocNode\b|confSimNode|memSimNode' \
    --include='*.go' . | grep -v '"PipelinedClient"' || true)"
gob_imports="$(grep -rn '"encoding/gob"' --include='*.go' --exclude='*_test.go' . || true)"
if [ -n "$retired_uses$gob_imports" ]; then
    echo "check.sh: retired identifiers reappeared (gob wire, inline replies, per-element reply sink, serial-client options, client facades, hand-driven operations):" >&2
    echo "$retired_uses$gob_imports" >&2
    hygiene_fail=1
fi
# Every exported With* option must carry a doc comment: the unified options
# API is the public surface, and an undocumented option is an unreviewed one.
undocumented="$(find . -name '*.go' ! -name '*_test.go' -not -path './related/*' -exec awk '
    /^func With[A-Z]/ { if (prev !~ /^\/\//) print FILENAME ":" FNR ": " $0 }
    { prev = $0 }
' {} +)"
if [ -n "$undocumented" ]; then
    echo "check.sh: exported With* options missing doc comments:" >&2
    echo "$undocumented" >&2
    hygiene_fail=1
fi
if [ "$hygiene_fail" -ne 0 ]; then
    exit 1
fi

echo "== bench module =="
# bench/ is a nested module, so the ./... patterns above never compile it; an
# API deletion in the main module could break the benchmark unnoticed. It runs
# last: under set -e a failure in bench/'s own tests (which changes outside
# bench/ cannot repair) must not hide the gates above.
(cd bench && go vet ./... && go test $race ./...)

echo "check.sh: all gates passed"
