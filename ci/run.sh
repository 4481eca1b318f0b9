#!/usr/bin/env sh
# CI entry point: full build, test suite, and a bench smoke run.
# Assumes an opam switch with OCaml >= 5.1 and the repo's dependencies
# (fmt, cmdliner, alcotest, qcheck(-alcotest,-core), bechamel)
# already installed — see README "Install & run".
#
# The test and smoke steps run under `timeout`: a hung search must fail
# the build loudly, not eat the CI time budget.  The limits are far above
# any healthy run (tests ~1 min, smokes a few seconds).
set -eu

cd "$(dirname "$0")/.."

# every temporary file lives in one private directory, removed on exit
CI_TMP=$(mktemp -d "${TMPDIR:-/tmp}/tightspace-ci.XXXXXX")
trap 'rm -rf "$CI_TMP"' EXIT
trap 'exit 1' HUP INT TERM

# await_port OUT WHAT PID...: poll OUT for the "listening on" banner that
# `tightspace serve` and `tightspace chaos proxy` print, and echo its port.
# After 100 polls (~20 s) it reports WHAT, dumps OUT, kills every PID and
# fails; call it as PORT=$(await_port ...) so `set -e` stops the script.
await_port() {
  out=$1; what=$2; shift 2
  port=""
  i=0
  while [ -z "$port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "ci: $what did not announce a port" >&2; cat "$out" >&2
      kill "$@" 2> /dev/null || true; exit 1
    fi
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$out")
    [ -n "$port" ] || sleep 0.2
  done
  echo "$port"
}

echo "== dune build =="
dune build @all

echo "== dune runtest (20 min cap) =="
timeout 1200 dune runtest

echo "== bench smoke (experiment tables = bench/expected.txt; 5 min cap) =="
# the tables print no timings, so every run prints the same bytes; a
# change that moves a table regenerates the file on purpose with
# `dune exec bench/main.exe > bench/expected.txt`
timeout 300 dune exec bench/main.exe > "$CI_TMP/bench.out"
if ! cmp -s bench/expected.txt "$CI_TMP/bench.out"; then
  echo "ci: bench/main.exe no longer prints bench/expected.txt:" >&2
  diff bench/expected.txt "$CI_TMP/bench.out" >&2 || true
  exit 1
fi

echo "== examples (each must exit 0; 5 min cap each) =="
for ex in quickstart space_witness mutex_showdown perturbation multicore_race \
          valency_atlas crash_storm; do
  timeout 300 dune exec "examples/$ex.exe" > "$CI_TMP/example.out" || {
    echo "ci: examples/$ex.exe failed" >&2; cat "$CI_TMP/example.out" >&2; exit 1; }
done

echo "== fault-injection smoke (t-resilience; 5 min cap) =="
timeout 300 dune exec bin/tightspace.exe -- resilient --protocol racing -n 3 -t 2 \
  --max-configs 2000 --max-depth 12 > /dev/null
# the non-resilient control must be caught (exit 1) and its witness replay
if timeout 300 dune exec bin/tightspace.exe -- resilient --protocol broken-wait -n 3 -t 1 \
     > "$CI_TMP/resilient-broken.out" 2>&1; then
  echo "ci: broken-wait unexpectedly passed the resilience check" >&2
  exit 1
fi
grep -q "witness replayed independently: confirmed" "$CI_TMP/resilient-broken.out"

echo "== trace smoke (span tracing + Chrome export; 5 min cap) =="
# the Theorem-1 trace must export well-formed Chrome trace_event JSON with
# at least one span per lemma phase (the names CI greps for are the stable
# span vocabulary documented in docs/OBSERVABILITY.md)
timeout 300 dune exec bin/tightspace.exe -- trace racing -n 3 \
  --out "$CI_TMP/trace.json" --metrics > "$CI_TMP/trace.out"
if command -v python3 > /dev/null 2>&1; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$CI_TMP/trace.json"
fi
for span in theorem1 lemma1 lemma2 lemma3 lemma4 valency.search; do
  grep -q "\"name\":\"$span\"" "$CI_TMP/trace.json" || {
    echo "ci: trace.json is missing span '$span'" >&2; exit 1; }
done
grep -q "engine metrics:" "$CI_TMP/trace.out"

echo "== odoc (skipped unless odoc is installed) =="
if command -v odoc > /dev/null 2>&1; then
  dune build @doc 2> "$CI_TMP/odoc.err"
  # odoc warnings (broken references, missing comments) land on stderr;
  # the docs satellite requires a warning-clean render
  if [ -s "$CI_TMP/odoc.err" ]; then
    echo "ci: dune build @doc produced warnings:" >&2
    cat "$CI_TMP/odoc.err" >&2
    exit 1
  fi
else
  echo "odoc not installed; skipping doc build"
fi

echo "== serve smoke (daemon + mixed batch + cache hit + drain; 5 min cap) =="
# the daemon must start on an ephemeral port, answer a mixed batch
# (including one deliberately malformed frame), serve the repeated query
# from cache, and drain cleanly on SIGTERM — all the E21 plumbing
TS=_build/default/bin/tightspace.exe
"$TS" serve --port 0 --workers 2 > "$CI_TMP/serve.out" 2>&1 &
SERVE_PID=$!
PORT=$(await_port "$CI_TMP/serve.out" serve "$SERVE_PID")
timeout 60 "$TS" query ping --port "$PORT" > "$CI_TMP/q-ping.json"
grep -q '"pong": true' "$CI_TMP/q-ping.json"
timeout 300 "$TS" query witness --port "$PORT" --protocol racing -n 2 > "$CI_TMP/q-cold.json"
grep -q '"provenance": "fresh"' "$CI_TMP/q-cold.json"
# the repeat must come back from the cache
timeout 60 "$TS" query witness --port "$PORT" --protocol racing -n 2 > "$CI_TMP/q-warm.json"
grep -q '"provenance": "cached"' "$CI_TMP/q-warm.json"
# a malformed frame gets a typed error answer and must not kill the daemon
timeout 60 "$TS" query ping --port "$PORT" --raw 'garbage#frame' > "$CI_TMP/q-raw.json"
grep -q '"bad-frame"' "$CI_TMP/q-raw.json"
kill -0 "$SERVE_PID" || { echo "ci: daemon died on malformed frame" >&2; exit 1; }
timeout 60 "$TS" query stats --port "$PORT" > "$CI_TMP/q-stats.json"
grep -q '"hits": 1' "$CI_TMP/q-stats.json"
# graceful drain: SIGTERM, bounded wait, daemon must exit 0 with a summary
kill -TERM "$SERVE_PID"
i=0
while kill -0 "$SERVE_PID" 2> /dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "ci: serve did not drain after SIGTERM" >&2
    kill -9 "$SERVE_PID" 2> /dev/null || true; exit 1
  fi
  sleep 0.2
done
wait "$SERVE_PID"
grep -q "served .* request" "$CI_TMP/serve.out"

echo "== persistence smoke (store-backed serve + restart recovery; 5 min cap) =="
# the E22 story end to end: a store-backed daemon persists its answers,
# and a NEW process on the same log serves the repeat from disk — same
# provenance discipline, byte-identical result — without recomputing
STORE="$CI_TMP/witlog.log"
rm -f "$STORE"
serve_on_store() {
  # $1: output file.  Starts a store-backed daemon, echoes its port.
  "$TS" serve --port 0 --workers 2 --store "$STORE" > "$1" 2>&1 &
  SERVE_PID=$!
  PORT=$(await_port "$1" "store-backed serve" "$SERVE_PID")
}
drain() {
  kill -TERM "$SERVE_PID"
  i=0
  while kill -0 "$SERVE_PID" 2> /dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "ci: store-backed serve did not drain after SIGTERM" >&2
      kill -9 "$SERVE_PID" 2> /dev/null || true; exit 1
    fi
    sleep 0.2
  done
  wait "$SERVE_PID"
}
serve_on_store "$CI_TMP/serve-store1.out"
timeout 300 "$TS" query witness --port "$PORT" --protocol racing -n 2 > "$CI_TMP/q-persist1.json"
grep -q '"provenance": "fresh"' "$CI_TMP/q-persist1.json"
drain
# the log must exist and carry the one answer
"$TS" store "$STORE" > "$CI_TMP/store-inspect.out"
grep -q "1 record" "$CI_TMP/store-inspect.out"
# restart on the same log: the repeat is served from disk, not recomputed
serve_on_store "$CI_TMP/serve-store2.out"
timeout 60 "$TS" query witness --port "$PORT" --protocol racing -n 2 > "$CI_TMP/q-persist2.json"
grep -q '"provenance": "recovered"' "$CI_TMP/q-persist2.json"
# ...and a second repeat from the re-warmed memory tier
timeout 60 "$TS" query witness --port "$PORT" --protocol racing -n 2 > "$CI_TMP/q-persist3.json"
grep -q '"provenance": "cached"' "$CI_TMP/q-persist3.json"
if command -v python3 > /dev/null 2>&1; then
  # the differential guarantee: all three tiers return the same result bytes
  python3 - "$CI_TMP/q-persist1.json" "$CI_TMP/q-persist2.json" "$CI_TMP/q-persist3.json" <<'EOF'
import json, sys
fresh, recovered, cached = (
    json.dumps(json.load(open(f))["result"], sort_keys=True) for f in sys.argv[1:])
assert fresh == recovered == cached, "fresh/recovered/cached results differ"
EOF
fi
# a torn tail through the CLI: persist two more answers, then cut the log
# inside its last record.  The inspector must repair it and say so (exit
# 1, one truncation, one record fewer), and a daemon restarted on the cut
# log must still serve the surviving answer from disk, byte-identical.
timeout 300 "$TS" query check --port "$PORT" --protocol racing -n 2 > "$CI_TMP/q-persist4.json"
grep -q '"provenance": "fresh"' "$CI_TMP/q-persist4.json"
timeout 300 "$TS" query witness --port "$PORT" --protocol swap -n 2 > "$CI_TMP/q-persist5.json"
grep -q '"provenance": "fresh"' "$CI_TMP/q-persist5.json"
drain
"$TS" store "$STORE" --json > "$CI_TMP/store-whole.json"
grep -q '"records": 3,' "$CI_TMP/store-whole.json"
truncate -s $(($(wc -c < "$STORE") - 5)) "$STORE"
rc=0
"$TS" store "$STORE" --json > "$CI_TMP/store-torn.json" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "ci: the inspector exited $rc on a torn log, want 1" >&2; exit 1
fi
grep -q '"torn_truncations": 1,' "$CI_TMP/store-torn.json"
grep -q '"records": 2,' "$CI_TMP/store-torn.json"
serve_on_store "$CI_TMP/serve-store3.out"
timeout 60 "$TS" query witness --port "$PORT" --protocol racing -n 2 > "$CI_TMP/q-persist6.json"
grep -q '"provenance": "recovered"' "$CI_TMP/q-persist6.json"
if command -v python3 > /dev/null 2>&1; then
  python3 - "$CI_TMP/q-persist1.json" "$CI_TMP/q-persist6.json" <<'EOF'
import json, sys
fresh, recovered = (
    json.dumps(json.load(open(f))["result"], sort_keys=True) for f in sys.argv[1:])
assert fresh == recovered, "the answer recovered from a cut log differs"
EOF
fi
drain
rm -f "$STORE"

echo "== chaos smoke (fault proxy + resilient client + crash torture; 10 min cap) =="
# the E23 bar, part 1: the standalone proxy CLI, fault probability 1.0
# (every connection draws a faulty plan), with the query client's retry
# budget absorbing whatever the schedule deals.  The mixed-request bar
# (witness, check and valency from concurrent resilient clients, answers
# byte-identical to a fault-free baseline) runs under `dune runtest`, in
# suite_service's "e2e: resilient client through the chaos proxy".
"$TS" serve --port 0 --workers 2 > "$CI_TMP/serve-chaos.out" 2>&1 &
SERVE_PID=$!
PORT=$(await_port "$CI_TMP/serve-chaos.out" serve "$SERVE_PID")
"$TS" chaos proxy --upstream-port "$PORT" --seed 7 --fault-prob 1.0 \
  > "$CI_TMP/chaos-proxy.out" 2>&1 &
PROXY_PID=$!
PPORT=$(await_port "$CI_TMP/chaos-proxy.out" "chaos proxy" "$PROXY_PID" "$SERVE_PID")
timeout 300 "$TS" query witness --port "$PPORT" --protocol racing -n 2 \
  --retries 10 > "$CI_TMP/q-chaos1.json"
timeout 300 "$TS" query witness --port "$PPORT" --protocol racing -n 2 \
  --retries 10 > "$CI_TMP/q-chaos2.json"
if command -v python3 > /dev/null 2>&1; then
  # byte-equal result bodies through the faulty path
  python3 - "$CI_TMP/q-chaos1.json" "$CI_TMP/q-chaos2.json" <<'EOF'
import json, sys
a, b = (json.dumps(json.load(open(f))["result"], sort_keys=True) for f in sys.argv[1:])
assert a == b, "results through the chaos proxy differ"
EOF
fi
kill -INT "$PROXY_PID"
wait "$PROXY_PID"
grep -q "connections" "$CI_TMP/chaos-proxy.out"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
# part 2: the store crash-torture bar — 300 seeded append/crash/reopen
# cycles, recovery invariants checked sharply at every reopen
TORTURE_LOG="$CI_TMP/torture.log"
timeout 600 "$TS" chaos torture --iterations 300 --seed 2026 \
  --path "$TORTURE_LOG" --json > "$CI_TMP/torture.json"
grep -q '"iterations":300' "$CI_TMP/torture.json"
rm -f "$TORTURE_LOG"

echo "== registry gate (analyzers, engine comparison, certificates; 10 min cap) =="
# the one gate, each entry's checks run once: every legitimate protocol
# clean and every Broken.* control flagged, every expected engine
# agreement held and the planted broken-scribbler divergence caught, every
# registry witness certified (micro-checker AND engine replay) with every
# tampered variant rejected, the parallel engine certified race-free and
# the planted race caught
timeout 600 dune exec bin/tightspace.exe -- analyze --all --json \
  > "$CI_TMP/analyze-all.json"
grep -q '^  "ok": true' "$CI_TMP/analyze-all.json"
grep -q '"planted_race_caught": true' "$CI_TMP/analyze-all.json"
# the gate proves it can catch a divergence: the first verdict after the
# broken-scribbler entry opens is its comparison's
sed -n '/^      "protocol": "broken-scribbler"/,/"status"/p' "$CI_TMP/analyze-all.json" \
  | grep -q '"status": "diverged"' || {
  echo "ci: analyze --all did not catch the planted broken-scribbler divergence" >&2
  exit 1; }
# single-protocol mode gates on the protocol itself: a broken control must
# exit non-zero even though the registry expects it to be flagged
if timeout 300 dune exec bin/tightspace.exe -- analyze --protocol broken-lww \
     > /dev/null 2>&1; then
  echo "ci: analyze did not flag broken-lww" >&2
  exit 1
fi
timeout 300 dune exec bin/tightspace.exe -- analyze --protocol racing > /dev/null
# the trust base must stay minimal: the micro-checker's dune stanza may
# never grow a (libraries ...) field — stdlib only, enforced here
if grep -q "(libraries" lib/cert/microcheck/dune; then
  echo "ci: lib/cert/microcheck must not depend on any library" >&2
  exit 1
fi
# a small on-disk corpus through the standalone checker
CERTDIR="$CI_TMP/certs"
mkdir -p "$CERTDIR"
timeout 300 "$TS" witness --protocol racing -n 2 \
  --certificate "$CERTDIR/racing.cert" > /dev/null
# n = 4 witnesses: Lemmas 1, 3 and 4 all run, unlike the n = 2 base case
timeout 300 "$TS" witness --protocol racing -n 4 \
  --certificate "$CERTDIR/racing-4.cert" > /dev/null
timeout 300 "$TS" witness --protocol racing-rand -n 4 \
  --certificate "$CERTDIR/racing-rand-4.cert" > /dev/null
# the second engine's n = 4 witness, through the same certificate builder
timeout 300 "$TS" witness --protocol racing -n 4 --engine revisionist \
  --certificate "$CERTDIR/racing-4-revisionist.cert" > /dev/null
# the violation subcommands exit 1 when they find what they are sent to
# find; the certificate is the point here, not the exit code
timeout 300 "$TS" check --protocol broken-lww -n 2 \
  --certificate "$CERTDIR/broken-lww.cert" > /dev/null || true
timeout 300 "$TS" resilient --protocol broken-wait -n 2 -t 1 \
  --certificate "$CERTDIR/broken-wait.cert" > /dev/null || true
for f in racing racing-4 racing-rand-4 racing-4-revisionist broken-lww broken-wait; do
  [ -s "$CERTDIR/$f.cert" ] || {
    echo "ci: no certificate was written for $f" >&2; exit 1; }
done
timeout 60 "$TS" certify "$CERTDIR"/*.cert
# flip one byte mid-certificate: the checker must reject with exit 3
if command -v python3 > /dev/null 2>&1; then
  python3 - "$CERTDIR/racing.cert" "$CERTDIR/tampered.cert" <<'PYFLIP'
import sys
b = bytearray(open(sys.argv[1], "rb").read())
b[len(b) // 2] ^= 0x01
open(sys.argv[2], "wb").write(bytes(b))
PYFLIP
  set +e
  timeout 60 "$TS" certify "$CERTDIR/tampered.cert" > /dev/null
  RC=$?
  set -e
  if [ "$RC" -ne 3 ]; then
    echo "ci: tampered certificate exited $RC, want 3" >&2
    exit 1
  fi
fi
# certified answers survive the store: persist one, then audit the log
AUDIT_STORE="$CI_TMP/auditlog.log"
rm -f "$AUDIT_STORE"
"$TS" serve --port 0 --workers 2 --store "$AUDIT_STORE" > "$CI_TMP/serve-audit.out" 2>&1 &
SERVE_PID=$!
PORT=$(await_port "$CI_TMP/serve-audit.out" "audit serve" "$SERVE_PID")
timeout 300 "$TS" query witness --port "$PORT" --protocol racing -n 2 \
  --certificate > "$CI_TMP/q-certified.json"
grep -q '"certificate"' "$CI_TMP/q-certified.json"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
timeout 60 "$TS" store "$AUDIT_STORE" --audit > "$CI_TMP/store-audit.out"
grep -q "certificate pass" "$CI_TMP/store-audit.out"
rm -rf "$CERTDIR" "$AUDIT_STORE"
# the two-engine witness path runs the gate's comparison: it agrees end
# to end on the CLI too, and calls the planted fixture a divergence (exit 1)
timeout 300 "$TS" witness --protocol racing -n 2 --engine both \
  > "$CI_TMP/witness-both.out"
grep -q "engines agree: space bound 1" "$CI_TMP/witness-both.out"
# at n = 3 and 4 Theorem 1 runs Lemmas 1, 3 and 4, which the n = 2 base
# case skips: the engines must agree there too, on the bound n - 1
for p in racing racing-rand; do
  for n in 3 4; do
    timeout 300 "$TS" witness --protocol "$p" -n "$n" --engine both \
      > "$CI_TMP/witness-both.out"
    grep -q "engines agree: space bound $((n - 1))" "$CI_TMP/witness-both.out" || {
      echo "ci: witness --engine both on $p at n = $n did not agree" >&2
      cat "$CI_TMP/witness-both.out" >&2; exit 1; }
  done
done
set +e
timeout 300 "$TS" witness --protocol broken-scribbler -n 2 --engine both \
  > /dev/null
RC=$?
set -e
if [ "$RC" -ne 1 ]; then
  echo "ci: witness --engine both on broken-scribbler exited $RC, want 1" >&2
  exit 1
fi
# a second-engine certificate round-trips through the micro-checker
timeout 300 "$TS" witness --protocol racing -n 2 --engine revisionist \
  --certificate "$CI_TMP/rev.cert" > /dev/null
timeout 60 "$TS" certify "$CI_TMP/rev.cert"
rm -f "$CI_TMP/rev.cert"

echo "== check --json and exit-code smoke (5 min cap) =="
# scripts branch on these: a clean bounded check exits 0, a violation 1,
# and the JSON document carries the matching verdict
timeout 300 "$TS" check --protocol racing -n 2 --max-configs 400 --max-depth 12 \
  --json > "$CI_TMP/check-clean.json"
grep -q '"verdict": "clean"' "$CI_TMP/check-clean.json"
set +e
timeout 300 "$TS" check --protocol broken-lww -n 2 --max-configs 400 --max-depth 12 \
  --json > "$CI_TMP/check-broken.json"
RC=$?
set -e
if [ "$RC" -ne 1 ]; then
  echo "ci: check on broken-lww exited $RC, want 1" >&2
  exit 1
fi
grep -q '"verdict": "violation"' "$CI_TMP/check-broken.json"
# an engine refusing its arguments reaches the CLI's own handler: exit 2
# with a hint, not cmdliner's internal-error exit
set +e
timeout 60 "$TS" witness --protocol racing -n 1 > /dev/null 2>&1
RC=$?
set -e
if [ "$RC" -ne 2 ]; then
  echo "ci: witness at n = 1 exited $RC, want 2" >&2
  exit 1
fi
# check and resilient refuse an n above the checker's limit before they
# build its 2^n input vectors: exit 2 at once, naming the limit 16
refuses_large_n() {
  set +e
  timeout 20 "$TS" "$@" > /dev/null 2> "$CI_TMP/large-n.err"
  RC=$?
  set -e
  if [ "$RC" -ne 2 ]; then
    echo "ci: $* exited $RC, want 2" >&2
    exit 1
  fi
  grep -q "limit of 16" "$CI_TMP/large-n.err" || {
    echo "ci: $* did not name the limit 16" >&2; cat "$CI_TMP/large-n.err" >&2; exit 1; }
}
refuses_large_n check --protocol racing -n 24
refuses_large_n resilient --protocol racing -n 24 -t 1

# a negative count is refused as the daemon's decoder refuses it: exit 2,
# naming the field
set +e
timeout 60 "$TS" check --protocol racing -n 2 --solo-budget=-3 \
  > /dev/null 2> "$CI_TMP/negative.err"
RC=$?
set -e
if [ "$RC" -ne 2 ]; then
  echo "ci: check with a negative --solo-budget exited $RC, want 2" >&2
  exit 1
fi
grep -q "solo_budget" "$CI_TMP/negative.err" || {
  echo "ci: the negative-count refusal did not name solo_budget" >&2; exit 1; }
# a --json refusal prints the served error document, same exit code
set +e
timeout 60 "$TS" witness --protocol racing -n 1 --json > "$CI_TMP/refusal.json"
RC=$?
set -e
if [ "$RC" -ne 2 ]; then
  echo "ci: witness --json at n = 1 exited $RC, want 2" >&2
  exit 1
fi
grep -q '"invalid-argument"' "$CI_TMP/refusal.json"

echo "== stopped-construction smoke (partial witnesses, unknown protocol; 1 min cap) =="
# exits_with WANT OUT ARGS...: run tightspace ARGS, stdout and stderr to
# OUT, and fail unless it exits WANT
exits_with() {
  want=$1; out=$2; shift 2
  set +e
  timeout 60 "$TS" "$@" > "$out" 2>&1
  RC=$?
  set -e
  if [ "$RC" -ne "$want" ]; then
    echo "ci: $* exited $RC, want $want" >&2; cat "$out" >&2; exit 1
  fi
}
# a construction that stops short is a partial result (exit 2): the
# default policy escalates broken-const's horizon from 20 to 320, and the
# revisionist engine reports its wall as the same "horizon" stop
exits_with 2 "$CI_TMP/partial.out" witness --protocol broken-const -n 2
grep -q "hint: raise --horizon beyond 320" "$CI_TMP/partial.out"
exits_with 2 "$CI_TMP/partial-rev.json" witness --protocol broken-const -n 2 \
  --engine revisionist --json
grep -q '"reason": "horizon"' "$CI_TMP/partial-rev.json"
# an unknown registry name is refused as every unknown protocol is: exit
# 1, and under --json the served error document
exits_with 1 "$CI_TMP/analyze-nosuch.out" analyze --protocol nosuch
exits_with 1 "$CI_TMP/analyze-nosuch.json" analyze --protocol nosuch --json
grep -q '"unknown-protocol"' "$CI_TMP/analyze-nosuch.json"

echo "== CLI = daemon smoke (one call path per engine op; 5 min cap) =="
# witness, check and resilient answer in-process through the daemon's own
# handler, so each --json document must equal the result member of the
# same query, certificate included
"$TS" serve --port 0 --workers 2 > "$CI_TMP/serve-cli.out" 2>&1 &
SERVE_PID=$!
PORT=$(await_port "$CI_TMP/serve-cli.out" serve "$SERVE_PID")
# cli_json OUT ARGS...: the CLI's --json document; exit 1 (a violation) is
# what the check and resilient lines are sent to find
cli_json() {
  out=$1; shift
  set +e
  timeout 300 "$TS" "$@" --json > "$out"
  RC=$?
  set -e
  if [ "$RC" -gt 1 ]; then
    echo "ci: $* --json exited $RC" >&2
    kill "$SERVE_PID" 2> /dev/null || true; exit 1
  fi
}
cli_json "$CI_TMP/cli-w3.json" witness --protocol racing -n 3
timeout 300 "$TS" query witness --port "$PORT" --protocol racing -n 3 \
  > "$CI_TMP/q-w3.json"
cli_json "$CI_TMP/cli-w3c.json" witness --protocol racing -n 3 \
  --certificate "$CI_TMP/cli.cert"
timeout 300 "$TS" query witness --port "$PORT" --protocol racing -n 3 \
  --certificate > "$CI_TMP/q-w3c.json"
cli_json "$CI_TMP/cli-lww.json" check --protocol broken-lww -n 2 \
  --max-configs 400 --max-depth 12
timeout 300 "$TS" query check --port "$PORT" --protocol broken-lww -n 2 \
  --max-configs 400 --max-depth 12 > "$CI_TMP/q-lww.json"
cli_json "$CI_TMP/cli-bw.json" resilient --protocol broken-wait -n 2 -t 1
timeout 300 "$TS" query resilient --port "$PORT" --protocol broken-wait -n 2 \
  -t 1 > "$CI_TMP/q-bw.json"
# the served valency answer behind the ledger's slowest witness-miss shape
timeout 300 "$TS" query valency --port "$PORT" --protocol racing -n 3 \
  --horizon 60 > "$CI_TMP/q-val3.json"
# a served n = 3 check: the outer search skips commuting steps and most
# solo probes end at their root, yet every stat is the unpruned search's
timeout 300 "$TS" query check --port "$PORT" --protocol racing-rand -n 3 \
  --max-configs 400 > "$CI_TMP/q-check3.json"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
grep -q '"certificate"' "$CI_TMP/cli-w3c.json"
rm -f "$CI_TMP/cli.cert"
if command -v python3 > /dev/null 2>&1; then
  python3 - "$CI_TMP" <<'EOF'
import json, os, sys
def load(name):
    return json.load(open(os.path.join(sys.argv[1], name)))
for name in ("w3", "w3c", "lww", "bw"):
    cli = json.dumps(load("cli-%s.json" % name), sort_keys=True)
    served = json.dumps(load("q-%s.json" % name)["result"], sort_keys=True)
    assert cli == served, "CLI --json differs from the served result: " + name
val = load("q-val3.json")["result"]
got = (val["class"], val["witness0_length"], val["witness1_length"],
       val["stats"]["nodes_expanded"], val["stats"]["peak_frontier"])
assert got == ("bivalent", 28, 28, 17391, 3714), "racing-3 valency answer moved: %r" % (got,)
chk = load("q-check3.json")["result"]
st = chk["stats"]
got = (chk["verdict"], st["configs_explored"], st["table_hits"], st["table_misses"],
       st["peak_frontier"], st["solo_cache_misses"])
assert got == ("clean", 4230, 5354, 4230, 150, 12690), \
    "racing-rand-3 check answer moved: %r" % (got,)
EOF
fi

echo "== dot smoke (valency graph export; 1 min cap) =="
DOT="$CI_TMP/valency.dot"
timeout 60 "$TS" dot -n 2 -o "$DOT" > "$CI_TMP/dot.out"
head -n 1 "$DOT" | grep -q "^digraph valency"
grep -q "75 configurations" "$CI_TMP/dot.out"
rm -f "$DOT"

echo "== ledger smoke (every benchmark workload, 1 s each; 5 min cap) =="
# every served answer the benchmark ledger draws is checked (witnesses,
# certificates, verdicts, byte-identical repeats); any failed check
# withholds the final line
timeout 300 sh ledger/run.sh --seconds 1 > "$CI_TMP/ledger-smoke.out"
grep -q "^ledger: every workload correct$" "$CI_TMP/ledger-smoke.out"

echo "== docs link check (every relative link in a tracked .md must resolve) =="
if command -v python3 > /dev/null 2>&1 && command -v git > /dev/null 2>&1; then
  python3 - <<'EOF'
import os, re, subprocess, sys
listed = subprocess.run(["git", "ls-files", "-z", "--", "*.md"],
                        capture_output=True, check=True).stdout.decode()
files = [f for f in listed.split("\0") if f]
bad = []
for path in files:
    text = open(path, encoding="utf-8").read()
    for m in re.finditer(r"\[[^\]]*\]\(([^)\s]+)\)", text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), rel))
        if not os.path.exists(resolved):
            bad.append("%s: dangling link -> %s" % (path, target))
for b in bad:
    print("ci: " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
else
  echo "python3 or git not installed; skipping docs link check"
fi

echo "ci: ok"
