#!/usr/bin/env sh
# CI entry point: full build, test suite, and a bench smoke run.
# Assumes an opam switch with OCaml >= 5.1 and the repo's dependencies
# (fmt, logs, cmdliner, alcotest, qcheck(-alcotest,-core), bechamel)
# already installed — see README "Install & run".
#
# The test and smoke steps run under `timeout`: a hung search must fail
# the build loudly, not eat the CI time budget.  The limits are far above
# any healthy run (tests ~1 min, smokes a few seconds).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dune runtest (20 min cap) =="
timeout 1200 dune runtest

echo "== bench smoke (tables only, no timings; 5 min cap) =="
timeout 300 dune exec bench/main.exe -- --tables-only > /dev/null

echo "== fault-injection smoke (crash storm + t-resilience; 5 min cap) =="
timeout 300 dune exec examples/crash_storm.exe > /dev/null
timeout 300 dune exec bin/tightspace.exe -- resilient --protocol racing -n 3 -t 2 \
  --max-configs 2000 --max-depth 12 > /dev/null
# the non-resilient control must be caught (exit 1) and its witness replay
if timeout 300 dune exec bin/tightspace.exe -- resilient --protocol broken-wait -n 3 -t 1 \
     > /tmp/resilient-broken.out 2>&1; then
  echo "ci: broken-wait unexpectedly passed the resilience check" >&2
  exit 1
fi
grep -q "witness replayed independently: confirmed" /tmp/resilient-broken.out

echo "== trace smoke (span tracing + Chrome export; 5 min cap) =="
# the Theorem-1 trace must export well-formed Chrome trace_event JSON with
# at least one span per lemma phase (the names CI greps for are the stable
# span vocabulary documented in docs/OBSERVABILITY.md)
timeout 300 dune exec bin/tightspace.exe -- trace racing -n 3 \
  --out /tmp/trace.json --metrics > /tmp/trace.out
if command -v python3 > /dev/null 2>&1; then
  python3 -c 'import json; json.load(open("/tmp/trace.json"))'
fi
for span in theorem1 lemma1 lemma2 lemma3 lemma4 valency.search; do
  grep -q "\"name\":\"$span\"" /tmp/trace.json || {
    echo "ci: trace.json is missing span '$span'" >&2; exit 1; }
done
grep -q "engine metrics:" /tmp/trace.out

echo "== odoc (skipped unless odoc is installed) =="
if command -v odoc > /dev/null 2>&1; then
  dune build @doc 2> /tmp/odoc.err
  # odoc warnings (broken references, missing comments) land on stderr;
  # the docs satellite requires a warning-clean render
  if [ -s /tmp/odoc.err ]; then
    echo "ci: dune build @doc produced warnings:" >&2
    cat /tmp/odoc.err >&2
    exit 1
  fi
else
  echo "odoc not installed; skipping doc build"
fi

echo "== static analysis gate (5 min cap) =="
# the full gate: every legitimate protocol clean, every Broken.* control
# flagged, the parallel engine certified race-free, the planted race caught
timeout 300 dune exec bin/tightspace.exe -- analyze --all --json \
  > /tmp/analyze-all.json
grep -q '"ok": true' /tmp/analyze-all.json
grep -q '"planted_race_caught": true' /tmp/analyze-all.json
# single-protocol mode gates on the protocol itself: a broken control must
# exit non-zero even though the registry expects it to be flagged
if timeout 300 dune exec bin/tightspace.exe -- analyze --protocol broken-lww \
     > /dev/null 2>&1; then
  echo "ci: analyze did not flag broken-lww" >&2
  exit 1
fi
timeout 300 dune exec bin/tightspace.exe -- analyze --protocol racing > /dev/null

echo "== serve smoke (daemon + mixed batch + cache hit + drain; 5 min cap) =="
# the daemon must start on an ephemeral port, answer a mixed batch
# (including one deliberately malformed frame), serve the repeated query
# from cache, and drain cleanly on SIGTERM — all the E21 plumbing
TS=_build/default/bin/tightspace.exe
"$TS" serve --port 0 --workers 2 > /tmp/serve.out 2>&1 &
SERVE_PID=$!
PORT=""
i=0
while [ -z "$PORT" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "ci: serve did not announce a port" >&2; cat /tmp/serve.out >&2
    kill "$SERVE_PID" 2> /dev/null || true; exit 1
  fi
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' /tmp/serve.out)
  [ -n "$PORT" ] || sleep 0.2
done
timeout 60 "$TS" query ping --port "$PORT" > /tmp/q-ping.json
grep -q '"pong": true' /tmp/q-ping.json
timeout 300 "$TS" query witness --port "$PORT" --protocol racing -n 2 > /tmp/q-cold.json
grep -q '"provenance": "fresh"' /tmp/q-cold.json
# the repeat must come back from the cache
timeout 60 "$TS" query witness --port "$PORT" --protocol racing -n 2 > /tmp/q-warm.json
grep -q '"provenance": "cached"' /tmp/q-warm.json
# a malformed frame gets a typed error answer and must not kill the daemon
timeout 60 "$TS" query ping --port "$PORT" --raw 'garbage#frame' > /tmp/q-raw.json
grep -q '"bad-frame"' /tmp/q-raw.json
kill -0 "$SERVE_PID" || { echo "ci: daemon died on malformed frame" >&2; exit 1; }
timeout 60 "$TS" query stats --port "$PORT" > /tmp/q-stats.json
grep -q '"hits": 1' /tmp/q-stats.json
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
grep -q "served .* request" /tmp/serve.out

echo "== persistence smoke (store-backed serve + restart recovery; 5 min cap) =="
# the E22 story end to end: a store-backed daemon persists its answers,
# and a NEW process on the same log serves the repeat from disk — same
# provenance discipline, byte-identical result — without recomputing
STORE=/tmp/ci-witlog-$$.log
rm -f "$STORE"
serve_on_store() {
  # $1: output file.  Starts a store-backed daemon, echoes its port.
  "$TS" serve --port 0 --workers 2 --store "$STORE" > "$1" 2>&1 &
  SERVE_PID=$!
  PORT=""
  i=0
  while [ -z "$PORT" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "ci: store-backed serve did not announce a port" >&2; cat "$1" >&2
      kill "$SERVE_PID" 2> /dev/null || true; exit 1
    fi
    PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$1")
    [ -n "$PORT" ] || sleep 0.2
  done
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
serve_on_store /tmp/serve-store1.out
timeout 300 "$TS" query witness --port "$PORT" --protocol racing -n 2 > /tmp/q-persist1.json
grep -q '"provenance": "fresh"' /tmp/q-persist1.json
drain
# the log must exist and carry the one answer
"$TS" store "$STORE" > /tmp/store-inspect.out
grep -q "1 record" /tmp/store-inspect.out
# restart on the same log: the repeat is served from disk, not recomputed
serve_on_store /tmp/serve-store2.out
timeout 60 "$TS" query witness --port "$PORT" --protocol racing -n 2 > /tmp/q-persist2.json
grep -q '"provenance": "recovered"' /tmp/q-persist2.json
# ...and a second repeat from the re-warmed memory tier
timeout 60 "$TS" query witness --port "$PORT" --protocol racing -n 2 > /tmp/q-persist3.json
grep -q '"provenance": "cached"' /tmp/q-persist3.json
if command -v python3 > /dev/null 2>&1; then
  # the differential guarantee: all three tiers return the same result bytes
  python3 - /tmp/q-persist1.json /tmp/q-persist2.json /tmp/q-persist3.json <<'EOF'
import json, sys
fresh, recovered, cached = (
    json.dumps(json.load(open(f))["result"], sort_keys=True) for f in sys.argv[1:])
assert fresh == recovered == cached, "fresh/recovered/cached results differ"
EOF
fi
drain
rm -f "$STORE"

echo "== chaos smoke (fault proxy + resilient client + crash torture; 10 min cap) =="
# the E23 bar, part 1: the full loadgen mix through an in-process chaos
# proxy injecting resets, truncations, corruption, latency and throttling
# — every call must eventually succeed with answers byte-identical to the
# fault-free baseline, replayable from the printed seed
timeout 600 dune exec bench/loadgen.exe -- --chaos --clients 4 --rounds 10 \
  --chaos-seed 2026 > /tmp/chaos-loadgen.out
grep -q "100% eventual success" /tmp/chaos-loadgen.out
# part 2: the standalone proxy CLI, fault probability 1.0 (every
# connection draws a faulty plan), with the query client's retry budget
# absorbing whatever the schedule deals
"$TS" serve --port 0 --workers 2 > /tmp/serve-chaos.out 2>&1 &
SERVE_PID=$!
PORT=""
i=0
while [ -z "$PORT" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "ci: serve did not announce a port" >&2; cat /tmp/serve-chaos.out >&2
    kill "$SERVE_PID" 2> /dev/null || true; exit 1
  fi
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' /tmp/serve-chaos.out)
  [ -n "$PORT" ] || sleep 0.2
done
"$TS" chaos proxy --upstream-port "$PORT" --seed 7 --fault-prob 1.0 \
  > /tmp/chaos-proxy.out 2>&1 &
PROXY_PID=$!
PPORT=""
i=0
while [ -z "$PPORT" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "ci: chaos proxy did not announce a port" >&2; cat /tmp/chaos-proxy.out >&2
    kill "$PROXY_PID" "$SERVE_PID" 2> /dev/null || true; exit 1
  fi
  PPORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' /tmp/chaos-proxy.out)
  [ -n "$PPORT" ] || sleep 0.2
done
timeout 300 "$TS" query witness --port "$PPORT" --protocol racing -n 2 \
  --retries 10 > /tmp/q-chaos1.json
timeout 300 "$TS" query witness --port "$PPORT" --protocol racing -n 2 \
  --retries 10 > /tmp/q-chaos2.json
if command -v python3 > /dev/null 2>&1; then
  # byte-equal result bodies through the faulty path
  python3 - /tmp/q-chaos1.json /tmp/q-chaos2.json <<'EOF'
import json, sys
a, b = (json.dumps(json.load(open(f))["result"], sort_keys=True) for f in sys.argv[1:])
assert a == b, "results through the chaos proxy differ"
EOF
fi
kill -INT "$PROXY_PID"
wait "$PROXY_PID"
grep -q "connections" /tmp/chaos-proxy.out
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
# part 3: the store crash-torture bar — 300 seeded append/crash/reopen
# cycles, recovery invariants checked sharply at every reopen
TORTURE_LOG=/tmp/ci-torture-$$.log
timeout 600 "$TS" chaos torture --iterations 300 --seed 2026 \
  --path "$TORTURE_LOG" --json > /tmp/torture.json
grep -q '"iterations":300' /tmp/torture.json
rm -f "$TORTURE_LOG"

echo "== certificate gate (witness corpus + micro-checker + tamper rejection; 10 min cap) =="
# the trust base must stay minimal: the micro-checker's dune stanza may
# never grow a (libraries ...) field — stdlib only, enforced here
if grep -q "(libraries" lib/cert/microcheck/dune; then
  echo "ci: lib/cert/microcheck must not depend on any library" >&2
  exit 1
fi
# the gating pass: every registry witness certifies (micro-checker AND
# engine replay), every tampered variant is rejected
timeout 600 dune exec bin/tightspace.exe -- analyze --certify --json \
  > /tmp/certify-gate.json
grep -q '"ok": true' /tmp/certify-gate.json
# a small on-disk corpus through the standalone checker
CERTDIR=/tmp/ci-certs-$$
mkdir -p "$CERTDIR"
timeout 300 "$TS" witness --protocol racing -n 2 \
  --certificate "$CERTDIR/racing.cert" > /dev/null
# the violation subcommands exit 1 when they find what they are sent to
# find; the certificate is the point here, not the exit code
timeout 300 "$TS" check --protocol broken-lww -n 2 \
  --certificate "$CERTDIR/broken-lww.cert" > /dev/null || true
timeout 300 "$TS" resilient --protocol broken-wait -n 2 -t 1 \
  --certificate "$CERTDIR/broken-wait.cert" > /dev/null || true
for f in racing broken-lww broken-wait; do
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
AUDIT_STORE=/tmp/ci-auditlog-$$.log
rm -f "$AUDIT_STORE"
"$TS" serve --port 0 --workers 2 --store "$AUDIT_STORE" > /tmp/serve-audit.out 2>&1 &
SERVE_PID=$!
PORT=""
i=0
while [ -z "$PORT" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "ci: audit serve did not announce a port" >&2; cat /tmp/serve-audit.out >&2
    kill "$SERVE_PID" 2> /dev/null || true; exit 1
  fi
  PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' /tmp/serve-audit.out)
  [ -n "$PORT" ] || sleep 0.2
done
timeout 300 "$TS" query witness --port "$PORT" --protocol racing -n 2 \
  --certificate > /tmp/q-certified.json
grep -q '"certificate"' /tmp/q-certified.json
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
timeout 60 "$TS" store "$AUDIT_STORE" --audit > /tmp/store-audit.out
grep -q "certificate pass" /tmp/store-audit.out
rm -rf "$CERTDIR" "$AUDIT_STORE"

echo "== crosscheck gate (two lower-bound engines, full registry; 10 min cap) =="
# both engines over every registry protocol: identical bounds and accepted
# witnesses wherever agreement is expected, and at least one agreement
timeout 600 dune exec bin/tightspace.exe -- crosscheck --json \
  > /tmp/crosscheck-gate.json
grep -q '"ok": true' /tmp/crosscheck-gate.json
# the gate must prove it can catch a divergence: the planted
# broken-scribbler fixture (revisionist claims a bound, Lemmas refuses)
# exits non-zero in single-protocol mode
if timeout 300 dune exec bin/tightspace.exe -- crosscheck \
     --protocol broken-scribbler > /dev/null 2>&1; then
  echo "ci: crosscheck did not catch the planted broken-scribbler divergence" >&2
  exit 1
fi
# ...and a genuine agreement exits zero
timeout 300 dune exec bin/tightspace.exe -- crosscheck --protocol racing \
  > /dev/null
# the two-engine witness path agrees end to end on the CLI too
timeout 300 "$TS" witness --protocol racing -n 2 --engine both \
  > /tmp/witness-both.out
grep -q "engines agree: space bound 1" /tmp/witness-both.out
# a second-engine certificate round-trips through the micro-checker
timeout 300 "$TS" witness --protocol racing -n 2 --engine revisionist \
  --certificate /tmp/ci-rev-$$.cert > /dev/null
timeout 60 "$TS" certify /tmp/ci-rev-$$.cert
rm -f /tmp/ci-rev-$$.cert

echo "== cluster smoke (2 TCP workers + coordinator, byte-identical to serial; 10 min cap) =="
# the PR 9 bar: a two-worker cluster over real TCP returns the exact
# bytes the serial engine prints — verdicts, violations, visit counts,
# queue peak — and workers drain cleanly on SIGTERM
wait_cluster_port() {
  # $1: worker log file.  Sets PORT from the worker's announcement line.
  PORT=""
  i=0
  while [ -z "$PORT" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "ci: cluster worker did not announce a port" >&2; cat "$1" >&2
      kill "$W1_PID" "$W2_PID" 2> /dev/null || true; exit 1
    fi
    PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$1")
    [ -n "$PORT" ] || sleep 0.2
  done
}
"$TS" cluster worker --port 0 > /tmp/ci-cluster-w1.out 2>&1 &
W1_PID=$!
"$TS" cluster worker --port 0 > /tmp/ci-cluster-w2.out 2>&1 &
W2_PID=$!
wait_cluster_port /tmp/ci-cluster-w1.out; P1=$PORT
wait_cluster_port /tmp/ci-cluster-w2.out; P2=$PORT
# clean run: same bytes as the serial engine, exit 0
timeout 300 "$TS" cluster coordinate check --protocol racing -n 2 \
  --max-configs 400 --max-depth 12 \
  --worker 127.0.0.1:"$P1" --worker 127.0.0.1:"$P2" \
  --json > /tmp/ci-cluster-clean.json
timeout 300 "$TS" check --protocol racing -n 2 --max-configs 400 --max-depth 12 \
  --json > /tmp/ci-serial-clean.json
cmp /tmp/ci-cluster-clean.json /tmp/ci-serial-clean.json
# violation run: same bytes AND the same exit code (1) as the serial engine
set +e
timeout 300 "$TS" cluster coordinate check --protocol broken-lww -n 2 \
  --max-configs 400 --max-depth 12 \
  --worker 127.0.0.1:"$P1" --worker 127.0.0.1:"$P2" \
  --json > /tmp/ci-cluster-broken.json
CRC=$?
timeout 300 "$TS" check --protocol broken-lww -n 2 \
  --max-configs 400 --max-depth 12 \
  --json > /tmp/ci-serial-broken.json
SRC=$?
set -e
if [ "$CRC" -ne 1 ] || [ "$SRC" -ne 1 ]; then
  echo "ci: broken-lww exits: cluster $CRC serial $SRC, want 1/1" >&2
  exit 1
fi
cmp /tmp/ci-cluster-broken.json /tmp/ci-serial-broken.json
if command -v python3 > /dev/null 2>&1; then
  # structural double-check on top of the literal byte diff
  python3 - /tmp/ci-cluster-clean.json /tmp/ci-serial-clean.json <<'EOF'
import json, sys
cluster, serial = (json.load(open(f)) for f in sys.argv[1:])
assert cluster == serial, "cluster/serial result documents differ"
assert cluster["stats"]["configs_explored"] == serial["stats"]["configs_explored"]
EOF
fi
# graceful drain: SIGTERM, bounded wait, both workers exit 0
kill -TERM "$W1_PID" "$W2_PID"
for PID in "$W1_PID" "$W2_PID"; do
  i=0
  while kill -0 "$PID" 2> /dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "ci: cluster worker did not drain after SIGTERM" >&2
      kill -9 "$W1_PID" "$W2_PID" 2> /dev/null || true; exit 1
    fi
    sleep 0.2
  done
done
wait "$W1_PID"
wait "$W2_PID"

echo "== cluster walkthrough (docs/CLUSTER.md fence, verbatim; 10 min cap) =="
# the operator's handbook is a contract: the quick-start fence must run
# exactly as printed, from the repo root, after dune build
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF' > /tmp/ci-cluster-walkthrough.sh
import re
text = open("docs/CLUSTER.md", encoding="utf-8").read()
m = re.search(r'<!-- ci:cluster-walkthrough -->\n```sh\n(.*?)\n```', text, re.S)
assert m, "docs/CLUSTER.md lost its ci:cluster-walkthrough fence"
print(m.group(1))
EOF
  timeout 600 sh -eu /tmp/ci-cluster-walkthrough.sh
else
  echo "python3 not installed; skipping walkthrough run"
fi

echo "== ledger smoke (every benchmark workload, 1 s each; 5 min cap) =="
# every served answer the benchmark ledger draws is checked (witnesses,
# certificates, verdicts, byte-identical repeats); any failed check
# withholds the final line
timeout 300 sh ledger/run.sh --seconds 1 > /tmp/ci-ledger-smoke.out
grep -q "^ledger: every workload correct$" /tmp/ci-ledger-smoke.out

echo "== docs link check (every relative link must resolve) =="
if command -v python3 > /dev/null 2>&1; then
  python3 - <<'EOF'
import os, re, sys
files = ["README.md"] + sorted(
    os.path.join("docs", f) for f in os.listdir("docs") if f.endswith(".md"))
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
  echo "python3 not installed; skipping docs link check"
fi

echo "ci: ok"
