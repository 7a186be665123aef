#!/usr/bin/env bash
# Repository health check: formatting, vet, the invariant analyzers,
# build, race-enabled tests, exact allocation budgets, fuzz and tool
# smokes, and one performance gate (benchmark -selfcheck). Run from
# anywhere; it operates on the repository that contains it.
set -euo pipefail
cd "$(dirname "$0")/.."

# Any chaos invariant violation or conformance failure during the test
# phases auto-dumps the flight recorder (black box) here as JSON; CI
# uploads the directory as a post-mortem artifact.
export XK_FLIGHT_DIR="${XK_FLIGHT_DIR:-$PWD/flight-dumps}"
mkdir -p "$XK_FLIGHT_DIR"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== xkvet (invariant analyzers, see DESIGN.md §7 and §11) =="
# The three xkvet invocations below share one `go list` of the module
# through a per-run metadata cache; the second writes the findings
# document CI uploads, the third fails the run on stale suppressions.
XKVET_LISTCACHE="$(mktemp -d)"
export XKVET_LISTCACHE
trap 'rm -rf "$XKVET_LISTCACHE"' EXIT
go run ./cmd/xkvet ./...
go run ./cmd/xkvet -json ./... > xkvet.json

echo "== xkvet -allows (suppression audit) =="
go run ./cmd/xkvet -allows ./...

echo "== go test -race (with coverage profile) =="
go test -race -covermode=atomic -coverprofile=coverage.out ./...

echo "== coverage floor =="
# The profile doubles as a CI artifact; the floor catches a PR that
# adds a subsystem without tests, not day-to-day noise.
total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
floor=65
if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t < f) }'; then
    echo "total coverage ${total}% is below the ${floor}% floor" >&2
    exit 1
fi
echo "total coverage ${total}% (floor ${floor}%)"

echo "== chaos + load together under the race detector (quiescence, -count=3) =="
# The two packages that drive chaos.Execute, in ONE invocation so their
# test binaries compete for the processors: that pairing is what starved
# the chaos worker and let the driver advance the virtual clock past work
# not yet done. The driver now reads the worker's state from the runtime
# (settle.Watch); byte-identical wire logs and exact replay counts must
# hold however little processor the worker gets. The wire-equivalence
# tests run beside them (a second go test, since -run is per invocation):
# they compare two runs frame by frame, and under exactly this contention
# N.RPC's wall-clock crash probe used to put two frames more on the slower
# run's wire until the workloads moved to a fake clock.
go test -race -count=3 ./internal/chaos ./internal/load &
loaded=$!
equiv=0
go test -race -count=3 ./internal/bench -run 'TestInterpositionTransparency|TestAllTelemetryWireEquivalence' || equiv=$?
wait "$loaded"
[ "$equiv" -eq 0 ]

echo "== message handoff under the race detector (one wire, two paths) =="
# The suite above already ran these; naming them makes a break in the
# copy-free driver seam its own failed stage. The property test holds the
# simulator's message path and byte path to one behaviour; the stress
# test runs L_RPC and M_RPC over an async segment that loses and
# duplicates messages, where a layer touching a message it has pushed is
# a data race between two hosts.
go test -race -count=1 ./internal/sim/ -run 'TestFastPathAndCapturedPathAreOneWire|TestReceiverFormsConvert|TestBroadcastMsg'
go test -race -count=1 ./internal/bench/ -run 'TestHandoffUnderLossAndDup'
go test -race -count=1 ./internal/load/ -run 'TestConformanceCaptureOnOff'
# FRAGMENT's per-session bookkeeping: the one gap event chasing every
# collection at its own due, records reused while it is pending, Close
# leaving no timer, and the send hold kept in send order. Then the resend
# paths, whose fragments are cut from slabs (msg.Cutter): FRAGMENT
# honouring a request for scattered fragments and M.RPC retransmitting a
# partial mask must both deliver the message byte for byte.
go test -race -count=3 ./internal/rpc/fragment/ -run 'TestAsyncOneAndMultiFragmentInterleaved|TestOneFragmentFrameContradictingCollection|TestOneGapEvent|TestRecordReusedWhileGapEventPending|TestCloseLeavesNoTimersPending|TestHold|TestScatteredResendIsByteIdentical'
go test -race -count=3 ./internal/rpc/mrpc/ -run 'TestPartialMaskRetransmissionIsByteIdentical'
# The at-most-once core: the call machine over every bounded sequence of
# acks and expiries and the call slot all three client engines run,
# admission's table on a real ledger, the one ack rule recovering a reply
# lost after an explicit ack in each engine, a late handler's reply never
# reaching the next call (bare, and under SELECT), an execution that fails
# before its reply freeing its channel, and REQUEST_REPLY on the shared
# slot.
go test -race -count=3 ./internal/rpc/amo/
go test -race -count=3 ./internal/rpc/channel/ ./internal/rpc/mrpc/ -run 'TestReplyLostAfterAckIsReplayed|TestLateHandlerNeverAnswersTheNextCall|TestRefusedOpenFailsOnlyItsCall|TestUnframeableReplyFailsOnlyItsCall'
go test -race -count=3 ./internal/rpc/sunrpc/
go test -race -count=3 ./internal/rpc/selectp/ -run 'TestLateHandlerOverChannel'
# The publication points of the lock-free per-message path (DESIGN.md §4
# "Locking discipline"): a session's up/lower/closed read with atomic
# loads while open, re-open and close write them, and the map tool's
# last-key cache, which must never answer with a binding that Unbind or a
# rebind has already replaced.
go test -race -count=3 ./internal/xk/ -run 'TestBaseSessionPublicationRace|TestMarkClosedExactlyOnce|TestSetUnchangedPublishesNothing'
go test -race -count=3 ./internal/pmap/ -run 'TestResolveAfterUnbindNeverStale|TestLastKeyCacheSequences|TestConcurrentMapVsModel|TestResolveAllocatesNothing'

echo "== allocation budgets (exact allocs per round trip, no race detector) =="
# internal/bench/allocs_test.go and internal/wire/udp/allocs_test.go are
# built only without -race (the detector instruments allocation), so the
# suite above skipped them. The budgets are exact: one allocation more OR
# fewer per round trip on any gated stack fails here until the committed
# constant is changed on purpose; the UDP row holds SendMsg to the one
# allocation that is the message itself. The msg rows hold the fragment
# cutter to its slab rule: a slab per four fragments, and exactly the
# bytes one object per fragment would take (a Msg is 312 bytes, 320 with
# its size class); FRAGMENT's resend of k fragments costs those slabs.
go test -count=1 ./internal/bench/ -run 'TestAllocBudgets'
go test -count=1 ./internal/wire/udp/ -run 'TestSendMsgAllocations'
go test -count=1 ./internal/msg/ -run 'TestMsgIs312Bytes|TestCutterIsByteNeutral'
go test -count=1 ./internal/rpc/fragment/ -run 'TestResendAllocatesItsSlabs'

echo "== chaos smoke (partition+reboot per stack family) =="
# The -short sweep runs one canned scenario set per reliability stack;
# the acceptance tests cover partition+reboot against both the layered
# and the monolithic family. chaos.Execute's shutdown invariant fails
# the run if goroutines leak or timers stay pending.
go test -short ./internal/chaos/ -run 'TestPartitionReboot|TestScenarioLibrarySoak'

echo "== msg fuzz smoke (op sequences vs naive model) =="
go test ./internal/msg/ -fuzz FuzzPushPopFragmentJoin -fuzztime 5s

echo "== demux fuzz smoke (arbitrary frames through CHANNEL, FRAGMENT and M.RPC) =="
# The seed corpora carry the num_frags = 17 and num_frags = 0xffff frames
# (a full mask with a fragment no bit can name; a collection sized from
# the wire) as named regression inputs.
go test ./internal/rpc/channel/ -run '^$' -fuzz FuzzChannelPop -fuzztime 5s
go test ./internal/rpc/fragment/ -run '^$' -fuzz FuzzFragmentPop -fuzztime 5s
go test ./internal/rpc/mrpc/ -run '^$' -fuzz FuzzMRPCDemux -fuzztime 5s

echo "== udp frame fuzz smoke (hostile datagrams at the socket boundary) =="
# The UDP backend's decode path faces raw bytes from the network; any
# datagram must be either delivered intact or counted as garbage,
# never panic or misframe.
go test ./internal/wire/udp/ -run '^$' -fuzz FuzzUDPFrame -fuzztime 5s

echo "== udp loopback smoke (real sockets under the load engine) =="
# One quick sweep over the real UDP wire: proves the seam end-to-end
# off-simulator and that the report is well-formed. (grep reads the whole
# stream here and in the two smokes below: under pipefail, grep -q leaving
# at the first match kills the producer with SIGPIPE on its next write and
# fails a stage whose output was right.)
go run ./cmd/xkload -wire udp -stacks L_RPC-VIP -clients 1 -duration 100ms -json - | grep '"kind": "load"' > /dev/null

echo "== allow-grammar fuzz smoke (xkvet suppression parser) =="
# The //xk:allow parser gates what the analyzers silence; it must never
# panic or accept a suppression without a pass list and a reason.
go test ./internal/analysis/xkanalysis/ -run '^$' -fuzz FuzzAllowParse -fuzztime 5s

echo "== ledger fuzz smoke (arbitrary segment bytes through recovery replay) =="
# Replay must recover the longest valid prefix of any byte soup without
# panicking — the torn-write tolerance the crash scenarios depend on.
go test ./internal/ledger/ -run '^$' -fuzz FuzzLedgerReplay -fuzztime 5s

echo "== round-trip benchmark smoke (every stack's profiling entry, 1 iteration each) =="
go test . -run '^$' -bench 'RoundTrip' -benchtime 1x

echo "== anatomy smoke (causal spans + compositional invariant) =="
# Drives the Table I configurations with span capture on and fails if
# any RPC's cause tree breaks the Σ-layer-costs = end-to-end invariant.
go run ./cmd/xkanatomy -quick > /dev/null

echo "== xkgraph smoke (every figure composes, Figure 3 from the stack table's specs) =="
go run ./cmd/xkgraph > /dev/null

echo "== xkmon smoke (gauge sweep + saturation-knee render) =="
# A minimal live sweep must render the knee summary and the per-level
# gauge table; the flight-dump path is exercised by the chaos flight
# tests in the race suite above.
go run ./cmd/xkmon -live -stacks L_RPC-VIP -clients 1,8 -duration 100ms | grep "saturation knees" > /dev/null

echo "== xkprof smoke (profile capture -> stdlib decode -> layer table) =="
# Captures real CPU/heap/mutex/block profiles by driving the default
# stack, decodes them with the stdlib-only pprof reader, and requires
# a non-empty per-layer resource table.
profdir="$(mktemp -d)"
go run ./cmd/xkprof -capture "$profdir" -json "$profdir/xkprof.json" | grep "total: cpu" > /dev/null
rm -rf "$profdir"

echo "== performance gate (benchmark -selfcheck: every workload twice, against its own bounds) =="
# The one timing gate. Both stacks run all four workloads twice back to
# back — byte-correct, exactly-once, zero failed calls — and the second
# run must sit within the bounds BENCHMARK.json publishes (25 % timings,
# 1 % counts, derived from the instrument's ten-seed spread, not picked).
# Everything else this script gates is an exact count: allocations per
# round trip, fsyncs per call, frames per call, wire digests.
# -seconds 10 is the shortest run that held ten in a row on the 2-vCPU
# box this stage was added on (worst back-to-back difference per run
# 6.7-18.6 %, ~93 s each); at 5 s, 3 of 20 runs breached (setup_s 27.7 %
# and 25.9 %, bulk_16k mrpc_calls_per_s 45.5 %). If it breaches, lengthen
# the run; no retry, and the exit status is the stage's.
go run ./benchmark -selfcheck -seconds 10

echo "== size (Go lines; the non-test count is the one ROADMAP aim 2 tracks) =="
echo "non-test: $(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"
echo "test:     $(find . -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l)"

echo "OK"
