#!/bin/sh
# Tier-1 gate plus the engine smoke benchmark. Run from the repo root:
#   sh dev/check.sh
set -e

# One cleanup hook for every temp dir the smokes below allocate (a
# second `trap ... EXIT` would silently replace the first).
CLEANUP_DIRS=""
cleanup() { [ -n "$CLEANUP_DIRS" ] && rm -rf $CLEANUP_DIRS; }
trap cleanup EXIT

dune build
dune runtest

# Typed lint over the .cmt/.cmti files (`@check` writes the ones of
# executable modules with an .mli, e.g. perfbench's Sut). Six checks:
# every val of lib/*/*.mli has a caller outside its module; every
# record label declared in lib/ is read (judged by record type); every
# optional argument is passed by some caller, and not always with one
# constant; every constructor is built outside test/; every built
# constructor is matched by name; no mutable or Atomic.t field is only
# written. An item that only test/ uses says why with "Test-only:".
dune build @check
LINT=$(./_build/default/dev/lint.exe) || { echo "$LINT"; exit 1; }

# The examples must run, not only build.
./_build/default/examples/quickstart.exe > /dev/null
./_build/default/examples/consent_service.exe > /dev/null

# Repository benchmark smoke: every BENCHMARK.json workload at 1% size,
# untraced and traced, with repeated-run digest equality and the
# recovered state equal to the served one (about 2 s).
./_build/default/perfbench/cdw_bench.exe --smoke BENCHMARK.json

# Representation-differential gate: the five solving algorithms must be
# bit-identical on the mutable builder vs the frozen copy-free view
# (also part of `dune runtest`; named here so a failure is unmissable).
dune exec test/main.exe -- test 'graph/frozen-view' > /dev/null

# Crash-recovery smoke: journal a serving run, tear the last append,
# prove the ledger recovers and compacts back to a clean state.
STORE_DIR=$(mktemp -d)
CLEANUP_DIRS="$CLEANUP_DIRS $STORE_DIR"
dune exec bin/cdw.exe -- serve-bench --quick --trials 1 \
  --journal "$STORE_DIR" --fsync never > /dev/null
dune exec bin/cdw.exe -- store fault "$STORE_DIR/shard-0" --truncate-tail 7
dune exec bin/cdw.exe -- store verify "$STORE_DIR" > /dev/null  # damaged but scannable
dune exec bin/cdw.exe -- store replay "$STORE_DIR"              # prefix-consistent rebuild
dune exec bin/cdw.exe -- store compact "$STORE_DIR"
dune exec bin/cdw.exe -- store verify "$STORE_DIR" --strict     # clean after compaction

# Sharded crash-recovery smoke: the same story through a 4-shard group
# — journal (one WAL per shard under the root), tear one shard's tail,
# prove replay confines the damage to that shard and the whole group
# compacts back to strict-clean.
SHARD_DIR=$(mktemp -d)
CLEANUP_DIRS="$CLEANUP_DIRS $SHARD_DIR"
dune exec bin/cdw.exe -- serve-bench --quick --trials 1 --shards 4 \
  --journal "$SHARD_DIR" --fsync never > /dev/null
dune exec bin/cdw.exe -- store fault "$SHARD_DIR/shard-2" --truncate-tail 7
dune exec bin/cdw.exe -- store replay "$SHARD_DIR"              # damage confined to shard-2
dune exec bin/cdw.exe -- store compact "$SHARD_DIR"
dune exec bin/cdw.exe -- store verify "$SHARD_DIR" --strict     # clean after compaction

# Observability smoke: trace a serving run, prove the trace decomposes
# the drain into named phases and the Prometheus exposition round-trips
# through its own parser. The coverage floor is 80%: the --quick drain
# is sub-millisecond, so fixed per-span overhead makes the measured
# coverage swing ~86-92% run to run — the floor catches structural
# regressions (missing phases), not timing noise.
OBS_DIR=$(mktemp -d)
CLEANUP_DIRS="$CLEANUP_DIRS $OBS_DIR"
dune exec bin/cdw.exe -- serve-bench --quick --trials 1 \
  --trace-out "$OBS_DIR/trace.json" --prom-out "$OBS_DIR/metrics.prom" \
  --stats-out "$OBS_DIR/stats.jsonl" --stats-interval 0.2 > /dev/null
dune exec bin/cdw.exe -- trace summarize "$OBS_DIR/trace.json" \
  --min-drain-coverage 0.8
# prom-lint now also enforces histogram exposition conformance:
# cumulative le buckets, a closing +Inf, matching _count/_sum.
dune exec bin/cdw.exe -- trace prom-lint "$OBS_DIR/metrics.prom"
test -s "$OBS_DIR/stats.jsonl"                                  # time series written
# The same lint on a 2-shard exposition: shard labels and the
# per-domain cdw_domain_* series only appear there.
dune exec bin/cdw.exe -- serve-bench --quick --trials 1 --shards 2 \
  --prom-out "$OBS_DIR/metrics-2.prom" > /dev/null
grep -q '^cdw_domain_busy_us{shard="1"}' "$OBS_DIR/metrics-2.prom"
dune exec bin/cdw.exe -- trace prom-lint "$OBS_DIR/metrics-2.prom"

# Cross-process tracing + flight-recorder smoke: a traced 2-shard
# networked server, driven by a traced client. The merged trace must
# hold the stitched client -> server -> shard timeline and attribute
# (>=80% of) every shard's drain wall to named phases; SIGUSR1 must
# make the live server dump its flight rings as a summarizable trace.
# Coverage floor 0.8, same rationale as the drain-coverage floor above.
# Six trials give each shard six drains of ~0.2 ms: with two, one drain
# the host preempted between two phases decided a shard's ratio.
FLIGHT_DIR=$(mktemp -d)
CLEANUP_DIRS="$CLEANUP_DIRS $FLIGHT_DIR"
FSOCK="$FLIGHT_DIR/cdw.sock"
CDW=./_build/default/bin/cdw.exe   # direct binary: SIGUSR1 must hit the
                                   # server itself, not a dune wrapper
"$CDW" serve --listen "$FSOCK" --shards 2 --trace \
  --flight-out "$FLIGHT_DIR/flight.json" > /dev/null &
FLIGHT_SERVER=$!
"$CDW" serve-bench --quick --trials 6 --connect "$FSOCK" \
  --trace-out "$FLIGHT_DIR/trace.json" > /dev/null
kill -USR1 "$FLIGHT_SERVER"                  # dump the flight rings
sleep 0.5
test -s "$FLIGHT_DIR/flight.json"            # SIGUSR1 dump written
dune exec bin/cdw.exe -- trace summarize "$FLIGHT_DIR/flight.json" > /dev/null
dune exec bin/cdw.exe -- trace summarize --scaling "$FLIGHT_DIR/flight.json" \
  | grep -q '^1 '                            # both shards in the dump
# the merged client+server trace attributes each shard's drain wall
dune exec bin/cdw.exe -- trace summarize --scaling \
  --min-drain-coverage 0.8 "$FLIGHT_DIR/trace.json"
grep -q 'client.drain' "$FLIGHT_DIR/trace.json"   # client half present
grep -q 'net.request'  "$FLIGHT_DIR/trace.json"   # server half merged in
kill "$FLIGHT_SERVER"
wait "$FLIGHT_SERVER" 2> /dev/null || true

# Tiering smoke: a 100k-user Zipf stream under a 2 MB cap — far below
# the population's resident footprint — must actually exercise the
# cold/warm machinery (hydrations visible in the telemetry stream),
# and a kill -9 mid-run must leave a ledger that replays, compacts,
# and verifies strict-clean: eviction is a cache decision, never a
# durability one.
TIER_DIR=$(mktemp -d)
CLEANUP_DIRS="$CLEANUP_DIRS $TIER_DIR"
dune exec bin/cdw.exe -- serve-bench \
  --traffic zipf:1.1,users:100000,churn:0.05,requests:60000 \
  --mem-cap-bytes 2000000 --stats-out "$TIER_DIR/stats.jsonl" > /dev/null
grep -q '"tier.hydrations": *[1-9]' "$TIER_DIR/stats.jsonl"      # cold path ran
CDW=./_build/default/bin/cdw.exe   # direct binary: kill -9 must hit the
                                   # run itself, not a dune wrapper
"$CDW" serve-bench --traffic zipf:1.1,users:100000,requests:400000 \
  --mem-cap-bytes 2000000 --journal "$TIER_DIR/ledger" --fsync never \
  > /dev/null 2>&1 &
TIER_PID=$!
sleep 0.5
kill -9 "$TIER_PID"
wait "$TIER_PID" 2> /dev/null || true
"$CDW" store replay "$TIER_DIR/ledger"       # torn tail confined + replayed
"$CDW" store compact "$TIER_DIR/ledger"
"$CDW" store verify "$TIER_DIR/ledger" --strict

# Network smoke: a journaled 2-shard server on a Unix socket serves two
# concurrent clients in disjoint session namespaces (--user-prefix),
# then gets kill -9'd mid-stream under a third client. The client must
# fail fast (not hang), and the ledger the server left behind — torn
# tail and all — must replay, compact, and verify strict-clean.
NET_DIR=$(mktemp -d)
CLEANUP_DIRS="$CLEANUP_DIRS $NET_DIR"
SOCK="$NET_DIR/cdw.sock"
CDW=./_build/default/bin/cdw.exe   # direct binary: kill -9 must hit the
                                   # server itself, not a dune wrapper
"$CDW" serve --listen "$SOCK" --shards 2 \
  --journal "$NET_DIR/ledger" --fsync never > /dev/null &
SERVER_PID=$!
"$CDW" serve-bench --quick --trials 1 --connect "$SOCK" \
  --user-prefix a > /dev/null &
CLIENT_A=$!
"$CDW" serve-bench --quick --trials 1 --connect "$SOCK" \
  --user-prefix b > /dev/null                                   # client B
wait $CLIENT_A                                                  # client A
"$CDW" serve-bench --quick --trials 500 --connect "$SOCK" \
  --user-prefix c > /dev/null 2>&1 &
CLIENT_C=$!
sleep 0.2
kill -9 "$SERVER_PID"
wait $CLIENT_C || true                       # fails fast on EPIPE; must not hang
wait "$SERVER_PID" 2> /dev/null || true
"$CDW" store replay "$NET_DIR/ledger"        # torn tail confined + replayed
"$CDW" store compact "$NET_DIR/ledger"
"$CDW" store verify "$NET_DIR/ledger" --strict

# Epoch-evolution network smoke: a journaled 2-shard server serves an
# open-loop traffic stream while the client installs two new base
# epochs over the wire mid-stream (--evolve). The server is then
# kill -9'd under a second stream, and the ledgers it left — epoch
# installs journaled among the submits, torn tail and all — must
# replay, compact, and verify strict-clean with BOTH shards landing on
# the post-migration epoch (2): a migration is as durable as consent.
EPOCH_DIR=$(mktemp -d)
CLEANUP_DIRS="$CLEANUP_DIRS $EPOCH_DIR"
ESOCK="$EPOCH_DIR/cdw.sock"
CDW=./_build/default/bin/cdw.exe   # direct binary: kill -9 must hit the
                                   # server itself, not a dune wrapper
"$CDW" serve --listen "$ESOCK" --shards 2 \
  --journal "$EPOCH_DIR/ledger" --fsync never > /dev/null &
EPOCH_SERVER=$!
"$CDW" serve-bench --traffic requests:20000,users:2000 --connect "$ESOCK" \
  --evolve 'at:100,drop:1,add:2,reprice:2,seed:7;at:250,purposes:1,seed:8' \
  | grep -q '2 epoch install(s)'               # installs happened mid-stream
"$CDW" serve-bench --traffic requests:400000,users:2000 --connect "$ESOCK" \
  > /dev/null 2>&1 &
EPOCH_CLIENT=$!
sleep 0.3
kill -9 "$EPOCH_SERVER"
wait "$EPOCH_CLIENT" || true                 # fails fast on EPIPE; must not hang
wait "$EPOCH_SERVER" 2> /dev/null || true
"$CDW" store replay "$EPOCH_DIR/ledger"      # torn tail confined + replayed
"$CDW" store compact "$EPOCH_DIR/ledger"
test "$("$CDW" store verify "$EPOCH_DIR/ledger" --strict \
  | grep -c '^epoch  *2$')" -eq 2            # both shards on epoch 2

# Oracle smoke: the exact ILP tier solves the default generated
# workflow (seed 42) to its pinned optimum — and RemoveMinMC lands on
# the same total, the 0% gap the oracle gate (test/test_oracle.ml)
# pins across 155 instances. A drift in either line means a solver
# (or the generator) changed behaviour.
ORACLE_DIR=$(mktemp -d)
CLEANUP_DIRS="$CLEANUP_DIRS $ORACLE_DIR"
dune exec bin/cdw.exe -- generate --seed 42 -o "$ORACLE_DIR/wf.json" > /dev/null
dune exec bin/cdw.exe -- solve -a exact-ilp "$ORACLE_DIR/wf.json" \
  | grep -qF 'total: 3545.00 → 3030.00'      # pinned optimum
dune exec bin/cdw.exe -- solve -a remove-min-mc "$ORACLE_DIR/wf.json" \
  | grep -qF 'total: 3545.00 → 3030.00'      # heuristic matches the oracle

# Old-ledger smoke: test/fixtures/refined-ledger was journaled by a
# build that still ran the anytime refiner, so it holds Cut_refined
# records (2 shards, most refined users parked). A copy must replay to
# the state that build recorded, compact without changing it, and
# verify strict-clean: ledgers written before the refiner's removal
# stay recoverable.
OLD_DIR=$(mktemp -d)
CLEANUP_DIRS="$CLEANUP_DIRS $OLD_DIR"
cp -R test/fixtures/refined-ledger "$OLD_DIR/ledger"
CDW=./_build/default/bin/cdw.exe
"$CDW" store replay "$OLD_DIR/ledger" --state | sed -n '/^{/,$p' \
  | cmp - test/fixtures/refined-ledger.state     # the recorded state
"$CDW" store compact "$OLD_DIR/ledger"
"$CDW" store replay "$OLD_DIR/ledger" --state | sed -n '/^{/,$p' \
  | cmp - test/fixtures/refined-ledger.state     # compaction keeps it
"$CDW" store verify "$OLD_DIR/ledger" --strict

# Bench guard on the acceptance workload (100 vertices, 50 sessions),
# last so that a guard failure (host drift can trip it; compare with a
# parent checkout on the same host) hides none of the smokes above:
# fails if the median of 11 engine trials' sessions-per-second regresses
# >10% against the committed BENCH_engine.json's, then refreshes it so
# the perf trajectory stays current PR over PR. The file also records
# the rows the repository benchmark (perfbench/) cannot produce: the
# 1/2/4-shard scaling rows (200 sessions; speedups are core-count
# bound, so a one-core CI host records ~1x — the rows document, they
# do not gate), the same workload served over a Unix socket (the
# wire-protocol overhead against the in-process number), and the
# utility-retained table (RemoveMinMC vs the exact ILP on the paper
# datasets 1a/1b/1c/2/3, with the reclaimable gap).
# Direct binary (dune build above already produced it): running under
# `dune exec` adds enough scheduler noise on the 250-request guard
# workload to trip the 10% gate on an unchanged engine.
./_build/default/bench/engine.exe --baseline BENCH_engine.json --out BENCH_engine.json

echo "check.sh: ok"
