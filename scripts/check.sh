#!/usr/bin/env bash
# Tier-1 gate: plain build + tests, then the same suite under
# AddressSanitizer + UndefinedBehaviorSanitizer (SHIELD_SANITIZE).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
# Keep the bench harness's machine-readable BENCH_<name>.json out of the
# source tree.
export SHIELD_BENCH_JSON_DIR=build

echo "== tier-1: plain build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== benchmark self-test (builds the perfbench driver against src/) =="
# A src/ interface change that breaks the benchmark fails here, not in the
# next performance change.
python3 perfbench/test_perfbench.py

echo "== tier-1 under ASan/UBSan =="
cmake -B build-asan -S . -DSHIELD_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== concurrency battery under TSan =="
cmake -B build-tsan -S . -DSHIELD_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target concurrency_test selfheal_test reactor_test persist_heap_test
ctest --test-dir build-tsan --output-on-failure -R 'ConcurrencyTest|SelfHealNetTest|ReactorTorture|PersistHeapTest'

echo "== WAL scaling bench (smoke) =="
# Exit code enforces the acceptance gate: sharded >= 3x single-log at 8
# simulated writers, equal durability discipline.
./build/bench/bench_wal_scaling --smoke --out build/BENCH_wal.json

echo "== restart bench: persistent-arena attach vs snapshot replay at 1M entries =="
# Exit code enforces the acceptance gate: mmap-backed arena attach >= 10x
# faster than sealed-snapshot replay at the largest size (1M entries). The
# arena-commit crash matrix itself runs under ASan/UBSan in the full-suite
# pass above (PersistentArenaTest + PersistHeapTest) and under TSan in the
# concurrency battery.
./build/bench/bench_restart

echo "== batch throughput bench (smoke) =="
# Exit code enforces the acceptance gate: kBatch depth 16 >= 2x depth 1
# against a durable-ack (group-commit window) server.
./build/bench/bench_batch_throughput --smoke --out build/BENCH_batch.json

echo "== crypto backend equivalence: forced-soft pass on the default build =="
# The same test binaries, with the hardware backend disabled at runtime: the
# table path must pass everything (and the cross-backend equivalence tests
# skip themselves, proving the env override reaches dispatch). The session
# channel and sealing known-answer tests pin the wire and blob bytes here too.
SHIELD_FORCE_SOFT_AES=1 ./build/tests/crypto_test --gtest_brief=1
SHIELD_FORCE_SOFT_AES=1 ./build/tests/kv_test --gtest_brief=1
SHIELD_FORCE_SOFT_AES=1 ./build/tests/net_test --gtest_brief=1 --gtest_filter='SessionCryptoTest.*'
SHIELD_FORCE_SOFT_AES=1 ./build/tests/sgx_test --gtest_brief=1 --gtest_filter='SealingTest.*'

echo "== crypto backend equivalence: -DSHIELD_DISABLE_AESNI build =="
# Compile-time gate: a build without the AES-NI TU at all must still pass
# the crypto, kv, and store suites, the session channel and sealing on the
# table backend.
cmake -B build-softaes -S . -DSHIELD_DISABLE_AESNI=ON >/dev/null
cmake --build build-softaes -j "$JOBS" --target crypto_test kv_test shieldstore_test net_test \
  sgx_test
ctest --test-dir build-softaes --output-on-failure -j "$JOBS" \
  -R 'Aes128Test|AesCtrTest|CmacTest|BackendTest|BackendEquivalenceTest|EntryTest|ShieldStoreTest|SessionCryptoTest|SealingTest'

echo "== micro crypto bench (smoke): AES-NI speedup gate =="
# Exit code enforces the tentpole target: hardware CTR and CMAC >= 2x the
# table backend at 4 KiB (skipped automatically where AES-NI is absent).
./build/bench/bench_micro_crypto --smoke --out build/BENCH_crypto.json

echo "== stats pipeline: live server -> kStats -> invariant check =="
# End-to-end: real daemon (WAL + self-heal mode), real CLI workload over
# encrypted sessions, then `stats --check` validates the cross-metric
# invariants and the Prometheus rendering carries the WAL/stage metrics.
STATS_DIR="$(mktemp -d)"
FO_DIR="$(mktemp -d)"
NL_DIR="$(mktemp -d)"
OBS_DIR="$(mktemp -d)"
FO_PIDS=""
OBS_PIDS=""
trap 'kill ${SERVER_PID:-} ${FO_PIDS:-} ${NL_PID:-} ${OBS_PIDS:-} 2>/dev/null || true; rm -rf "$STATS_DIR" "$FO_DIR" "$NL_DIR" "$OBS_DIR"' EXIT
./build/tools/shieldstore_server --port 0 --partitions 2 --heal-dir "$STATS_DIR/heal" \
  --stats-interval-s 1 > "$STATS_DIR/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  grep -q 'listening on' "$STATS_DIR/server.log" 2>/dev/null && break
  sleep 0.1
done
PORT="$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$STATS_DIR/server.log")"
MEAS="$(sed -n 's/.*measurement (give to clients): \([0-9a-f]*\).*/\1/p' "$STATS_DIR/server.log")"
CLI="./build/tools/shieldstore_cli --port $PORT --measurement $MEAS"
for i in $(seq 1 20); do $CLI set "key$i" "value$i" > /dev/null; done
for i in $(seq 1 20); do $CLI get "key$i" > /dev/null; done
$CLI get missing > /dev/null 2>&1 || true
$CLI mset b1 v1 b2 v2 b3 v3 > /dev/null
$CLI mget b1 b2 b3 > /dev/null
$CLI set ctr 1 > /dev/null
$CLI incr ctr 5 > /dev/null
$CLI stats --check > "$STATS_DIR/stats.txt"
grep -q 'stats check OK' "$STATS_DIR/stats.txt"
$CLI stats --prometheus > "$STATS_DIR/prom.txt"
for metric in shield_net_ops_get shield_net_latency_get_count shield_stage_search_decrypt_count \
              shield_sgx_epc_touches shield_wal_records shield_wal_group_commits \
              shield_wal_counter_bump_ns_count shield_store_partitions shield_crypto_backend shield_store_crypto_ctr_bytes \
              shield_store_crypto_cmac_bytes; do
  grep -q "^$metric" "$STATS_DIR/prom.txt" || { echo "missing $metric"; exit 1; }
done
kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true
echo "stats pipeline OK"

echo "== multi-process failover smoke: 2 primaries + warm standbys, kill one mid-traffic =="
# Two shards behind the CLI's consistent-hash cluster mode, each primary
# shipping its WAL to a warm standby. One primary is SIGKILL'd mid-traffic;
# the gate is zero lost acked writes and recovery under 5 seconds.
fo_start() { # fo_start NAME [extra server flags...]
  local name="$1"; shift
  ./build/tools/shieldstore_server --port 0 --partitions 2 --buckets 4096 \
    --heal-dir "$FO_DIR/$name" --stats-interval-s 0 --wal-window-us 100 \
    --wal-group-ops 8 "$@" > "$FO_DIR/$name.log" 2>&1 &
  FO_LAST_PID=$!
  FO_PIDS="$FO_PIDS $FO_LAST_PID"
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$FO_DIR/$name.log" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "failover smoke: $name did not come up"; cat "$FO_DIR/$name.log"; exit 1
}
fo_port() { sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$FO_DIR/$1.log"; }
# Followers first (the primaries' attach needs them listening); the
# --replica-of port is informational in the push model, so 0 is fine here.
fo_start fa --replica-of 0
fo_start fb --replica-of 0
FA_PORT="$(fo_port fa)"; FB_PORT="$(fo_port fb)"
fo_start pa --replicate-to "$FA_PORT"
PA_PID=$FO_LAST_PID
fo_start pb --replicate-to "$FB_PORT"
PA_PORT="$(fo_port pa)"; PB_PORT="$(fo_port pb)"
FO_MEAS="$(sed -n 's/.*clients): \([0-9a-f]*\).*/\1/p' "$FO_DIR/pa.log")"
FO_CLI="./build/tools/shieldstore_cli --measurement $FO_MEAS --cluster $PA_PORT:$FA_PORT,$PB_PORT:$FB_PORT"
declare -A FO_ACKED
for i in $(seq 1 40); do
  if $FO_CLI set "fo-key$i" "fo-val$i" > /dev/null; then FO_ACKED[fo-key$i]="fo-val$i"; fi
done
[ "${#FO_ACKED[@]}" -ge 40 ] || { echo "failover smoke: load never got going"; exit 1; }
# A key owned by the doomed primary, so the recovery probe exercises it.
PA_KEY=""
for i in $(seq 1 40); do
  if $FO_CLI nodefor "fo-key$i" | grep -q '^node0 '; then PA_KEY="fo-key$i"; break; fi
done
[ -n "$PA_KEY" ] || { echo "failover smoke: no key routed to node0"; exit 1; }
kill -9 "$PA_PID"
FO_T0="$(date +%s%N)"
$FO_CLI get "$PA_KEY" > /dev/null || { echo "failover smoke: read after kill failed"; exit 1; }
FO_MS=$(( ($(date +%s%N) - FO_T0) / 1000000 ))
[ "$FO_MS" -lt 5000 ] || { echo "failover smoke: recovery took ${FO_MS}ms (gate 5000)"; exit 1; }
# Traffic keeps flowing through the transition (each CLI run re-promotes
# idempotently); acked writes keep accumulating.
for i in $(seq 41 50); do
  if $FO_CLI set "fo-key$i" "fo-val$i" > /dev/null 2>&1; then FO_ACKED[fo-key$i]="fo-val$i"; fi
done
# Zero acked-write loss across the whole run, byte for byte.
for key in "${!FO_ACKED[@]}"; do
  got="$($FO_CLI get "$key")" || { echo "failover smoke: lost acked write $key"; exit 1; }
  [ "$got" = "${FO_ACKED[$key]}" ] || { echo "failover smoke: $key read '$got'"; exit 1; }
done
# Counter-level cross-check on the promoted standby via the JSON stats dump.
./build/tools/shieldstore_cli --port "$FA_PORT" --measurement "$FO_MEAS" stats --json \
  > "$FO_DIR/fa-stats.json"
grep -q '"repl.role":{"type":"gauge","value":2}' "$FO_DIR/fa-stats.json" \
  || { echo "failover smoke: standby never promoted"; exit 1; }
grep -q '"repl.rejected_frames":{"type":"counter","value":0}' "$FO_DIR/fa-stats.json" \
  || { echo "failover smoke: replication stream saw rejected frames"; exit 1; }
kill $FO_PIDS 2>/dev/null || true
echo "failover smoke OK (recovery ${FO_MS}ms, ${#FO_ACKED[@]} acked writes verified)"

echo "== observability smoke: traced failover, hash-chained audit, tracing overhead gate =="
# Two primaries + warm standbys, every process tracing at 1/1 with an audit
# log. A traced mset rides the router; the merged Chrome trace must hold
# client-, server- and WAL-side spans. Then one primary dies by SIGKILL and
# every surviving audit chain must verify bit for bit — while a flipped byte
# or a truncation must be rejected.
obs_start() { # obs_start NAME [extra server flags...]
  local name="$1"; shift
  ./build/tools/shieldstore_server --port 0 --partitions 2 --buckets 4096 \
    --heal-dir "$OBS_DIR/$name" --stats-interval-s 0 --wal-window-us 100 \
    --wal-group-ops 8 --trace-sample 1 --audit-log "$OBS_DIR/$name.audit" \
    "$@" > "$OBS_DIR/$name.log" 2>&1 &
  OBS_LAST_PID=$!
  OBS_PIDS="$OBS_PIDS $OBS_LAST_PID"
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$OBS_DIR/$name.log" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "obs smoke: $name did not come up"; cat "$OBS_DIR/$name.log"; exit 1
}
obs_port() { sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$OBS_DIR/$1.log"; }
obs_start ofa --replica-of 0
obs_start ofb --replica-of 0
OFA_PORT="$(obs_port ofa)"; OFB_PORT="$(obs_port ofb)"
obs_start opa --replicate-to "$OFA_PORT"
OPA_PID=$OBS_LAST_PID
obs_start opb --replicate-to "$OFB_PORT"
OPA_PORT="$(obs_port opa)"; OPB_PORT="$(obs_port opb)"
OBS_MEAS="$(sed -n 's/.*clients): \([0-9a-f]*\).*/\1/p' "$OBS_DIR/opa.log")"
OBS_CLI="./build/tools/shieldstore_cli --measurement $OBS_MEAS --cluster $OPA_PORT:$OFA_PORT,$OPB_PORT:$OFB_PORT"
# A sampled MSet through the router, then the merged per-node trace dump.
$OBS_CLI trace --json mset tr-k1 tr-v1 tr-k2 tr-v2 tr-k3 tr-v3 tr-k4 tr-v4 \
  > "$OBS_DIR/trace.json"
python3 - "$OBS_DIR/trace.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no spans in the trace dump"
# One root op: every complete span must share its trace id.
ids = {s["args"]["trace_id"] for s in spans}
assert len(ids) == 1, f"expected one trace id, got {ids}"
names = {s["name"] for s in spans}
for want in ("cli.op", "client.batch", "server.batch", "wal.append"):
    assert want in names, f"missing span {want!r} (have {sorted(names)})"
# Client (pid 0) and server (pid >= 1) both contributed.
pids = {s["pid"] for s in spans}
assert 0 in pids and any(p >= 1 for p in pids), f"single-process trace: {pids}"
print(f"trace OK: {len(spans)} spans, {len(names)} stages, one trace id")
PYEOF
# Kill one primary mid-service; its standby serves, and every audit chain
# written so far — including the dead primary's — must still verify.
for i in $(seq 1 10); do $OBS_CLI set "obs-key$i" "obs-val$i" > /dev/null; done
kill -9 "$OPA_PID"
$OBS_CLI get obs-key1 > /dev/null || { echo "obs smoke: read after kill failed"; exit 1; }
./build/tools/audit_verify --quiet "$OBS_DIR"/opa.audit "$OBS_DIR"/opb.audit \
  "$OBS_DIR"/ofa.audit "$OBS_DIR"/ofb.audit \
  || { echo "obs smoke: audit chain broke across kill -9"; exit 1; }
# Tamper demo: any single flipped byte and any truncation must be rejected.
cp "$OBS_DIR/opb.audit" "$OBS_DIR/tampered.audit"
AUD_SIZE="$(stat -c%s "$OBS_DIR/tampered.audit")"
printf '\xff' | dd of="$OBS_DIR/tampered.audit" bs=1 seek="$((AUD_SIZE / 2))" \
  conv=notrunc status=none
./build/tools/audit_verify --quiet "$OBS_DIR/tampered.audit" > /dev/null 2>&1 \
  && { echo "obs smoke: flipped byte went undetected"; exit 1; }
head -c "$((AUD_SIZE - 7))" "$OBS_DIR/opb.audit" > "$OBS_DIR/truncated.audit"
./build/tools/audit_verify --quiet "$OBS_DIR/truncated.audit" > /dev/null 2>&1 \
  && { echo "obs smoke: truncation went undetected"; exit 1; }
kill $OBS_PIDS 2>/dev/null || true
echo "observability smoke OK"

echo "== tracing overhead gate (< 3% at default 1/256 sampling) =="
# Interleaved A/B windows over one live session pool inside bench_netload:
# sampling off vs the default 1/256, same sessions, same process — machine
# drift hits both sides of every pair. The bench's exit code enforces the
# >= 0.97 throughput ratio.
./build/bench/bench_netload --sessions 1,64 --seconds 1.0 --no-gates \
  --trace-overhead 3 --out "$OBS_DIR/nl-trace.json"

echo "== reactor netload: 10k sessions against a live daemon =="
# One epoll generator process ramps to 10k attested sessions against the
# real daemon (reactor + durable-ack WAL). The bench's exit code enforces:
# zero acked-op loss / protocol errors at every point, implicit batching
# engaged (coalesced-batch counter advanced), no throughput collapse from
# 100 to 1k sessions, and pipelined >= 2x singleton throughput.
# SHIELD_NETLOAD_SESSIONS trims the curve for sanitizer or constrained runs.
NL_SESSIONS="${SHIELD_NETLOAD_SESSIONS:-1,100,1000,10000}"
./build/tools/shieldstore_server --port 0 --partitions 2 --buckets 8192 \
  --io-threads 2 --max-sessions 16384 --heal-dir "$NL_DIR/heal" \
  --wal-window-us 100 --wal-group-ops 64 --stats-interval-s 1 \
  --stats-json "$NL_DIR/stats.json" > "$NL_DIR/server.log" 2>&1 &
NL_PID=$!
for _ in $(seq 1 100); do
  grep -q 'listening on' "$NL_DIR/server.log" 2>/dev/null && break
  sleep 0.1
done
NL_PORT="$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' "$NL_DIR/server.log")"
NL_MEAS="$(sed -n 's/.*measurement (give to clients): \([0-9a-f]*\).*/\1/p' "$NL_DIR/server.log")"
./build/bench/bench_netload --port "$NL_PORT" --measurement "$NL_MEAS" \
  --sessions "$NL_SESSIONS" --seconds 0.5 --out "$NL_DIR/BENCH_netload.json"
# The periodic --stats-json dump must carry the reactor series.
sleep 1.5
for series in '"net.sessions_opened"' '"net.coalesced.batches"' '"net.sessions"'; do
  grep -q "$series" "$NL_DIR/stats.json" || { echo "stats-json missing $series"; exit 1; }
done
kill "$NL_PID"; wait "$NL_PID" 2>/dev/null || true
echo "reactor netload OK"

echo "== metrics overhead gate (< 3% vs no-op build) =="
# Same bench compiled twice: metrics recording always-on (default) vs
# compiled to no-ops (-DSHIELD_METRICS=OFF). Recording must keep >= 97% of
# the no-op throughput.
cmake -B build-noobs -S . -DSHIELD_METRICS=OFF >/dev/null
cmake --build build-noobs -j "$JOBS" --target bench_metrics_overhead
ON_KOPS="$(./build/bench/bench_metrics_overhead --smoke | awk '/^RESULT kops/ {print $3}')"
OFF_KOPS="$(SHIELD_BENCH_JSON_DIR=build-noobs ./build-noobs/bench/bench_metrics_overhead --smoke | awk '/^RESULT kops/ {print $3}')"
echo "metrics on: $ON_KOPS Kop/s, metrics off: $OFF_KOPS Kop/s"
awk -v on="$ON_KOPS" -v off="$OFF_KOPS" 'BEGIN {
  ratio = off > 0 ? on / off : 0;
  printf "overhead ratio: %.3f (gate: >= 0.97)\n", ratio;
  exit ratio >= 0.97 ? 0 : 1;
}'

echo "All checks passed."
