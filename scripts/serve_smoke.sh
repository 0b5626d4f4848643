#!/usr/bin/env bash
# Server smoke test: boot tegserve on a random port, exercise the API
# end to end with a real HTTP client (a short WLTC/EHTR run streamed
# over SSE must terminate with a summary event), check the metrics
# endpoint, verify SIGTERM drains the process cleanly (exit 0), and
# prove a digital-twin session survives the process: create -> step ->
# checkpoint -> kill -> restart -> restore -> step must land on the
# same summary an uninterrupted twin reaches.
#
# Then the distributed tier: a coordinator sharding a scenario matrix
# across two worker processes must produce bytes identical to a single
# process, keep doing so after a worker is killed -9 mid-sweep (local
# shard retry), and a sweep computed into a -store-dir must survive a
# SIGTERM restart as a disk hit with zero recomputation, with the
# cells of a matrix answered just before the SIGTERM flushed to disk.
#
# Run from the repo root: ./scripts/serve_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
cleanup() {
  [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
  for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
pids=()
trap cleanup EXIT

# boot <logfile> [flags...] — start tegserve on a random port (extra
# flags passed through) and set the $pid and $base globals once the
# listen line appears. Called directly (not in a command substitution)
# so the globals survive. JSON logs so the access-log assertions can
# grep structured fields.
boot() {
  local log=$1; shift
  # Create the log before the child opens it: the poll below may run
  # first, and a missing file would fail sed and, under pipefail, the
  # whole script.
  : >"$log"
  "$workdir/tegserve" -addr 127.0.0.1:0 -log-format json "$@" >>"$log" 2>&1 &
  pid=$!
  pids+=("$pid")
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*"msg":"listening".*"addr":"\([^"]*\)".*/\1/p' "$log" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "tegserve died:" >&2; cat "$log" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "never saw listen line:" >&2; cat "$log" >&2; exit 1; }
  base="http://$addr"
}

# metric <base> <name> — read one gauge/counter value off /metrics.
metric() {
  curl -fsS "$1/metrics" | sed -n "s/^$2 //p"
}

# strip_volatile — drop the fields that legitimately differ between a
# restored twin and the original (session id, wall-clock age).
strip_volatile() {
  sed -E 's/"id":"[^"]*",?//g; s/,?"age_s":[0-9.eE+-]+//g'
}

echo "== building tegserve"
go build -o "$workdir/tegserve" ./cmd/tegserve

echo "== booting on a random port"
boot "$workdir/serve.log"
echo "   up at $base"

echo "== healthz"
curl -fsS "$base/healthz"; echo

echo "== registries"
curl -fsS "$base/v1/schemes" | grep -q '"DNOR"' || { echo "schemes missing DNOR"; exit 1; }
curl -fsS "$base/v1/cycles" | grep -q '"wltc"' || { echo "cycles missing wltc"; exit 1; }

echo "== short WLTC/EHTR run over SSE"
sse=$(curl -fsS -N -H 'Content-Type: application/json' \
  -d '{"cycle":"wltc","scheme":"ehtr","duration_s":10,"modules":40,"stream":true}' \
  "$base/v1/runs")
echo "$sse" | grep -q '^event: tick$' || { echo "no tick events:"; echo "$sse" | head -5; exit 1; }
echo "$sse" | grep -q '^event: summary$' || { echo "stream did not terminate with a summary event"; exit 1; }
echo "$sse" | grep -q '"version":1' || { echo "summary is not the versioned result schema"; exit 1; }
echo "   $(echo "$sse" | grep -c '^event: tick$') ticks + summary"

echo "== repeat run is a cache hit"
hit=$(curl -fsS -D - -o /dev/null -H 'Content-Type: application/json' \
  -d '{"cycle":"wltc","scheme":"ehtr","duration_s":10,"modules":40}' \
  "$base/v1/runs" | tr -d '\r' | sed -n 's/^X-Cache: //p')
[ "$hit" = "hit" ] || { echo "expected cache hit, got '$hit'"; exit 1; }

echo "== metrics"
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep '^tegserve_ticks_total ' || { echo "no tick counter"; exit 1; }
echo "$metrics" | grep '^tegserve_cache_hits_total 1$' >/dev/null || { echo "cache hit not counted"; exit 1; }

echo "== request-ID correlation: header echo + access log"
rid=$(curl -fsS -D - -o /dev/null -H 'X-Request-ID: test-123' "$base/healthz" \
  | tr -d '\r' | sed -n 's/^X-Request-Id: //Ip')
[ "$rid" = "test-123" ] || { echo "X-Request-ID echoed as '$rid', want test-123"; exit 1; }
grep -q '"request_id":"test-123"' "$workdir/serve.log" \
  || { echo "access log missing request_id test-123"; grep '"msg":"request"' "$workdir/serve.log" | tail -3; exit 1; }
echo "   test-123 on the response header and in the JSON access log"

echo "== phase timings"
curl -fsS "$base/v1/debug/phases" | grep -q '"sample_every"' || { echo "/v1/debug/phases missing sample_every"; exit 1; }

echo "== digital twin: create -> step -> checkpoint"
twin=$(curl -fsS -H 'Content-Type: application/json' \
  -d '{"scheme":"dnor","modules":40,"seed":3,"battery":true}' "$base/v1/sessions")
id=$(echo "$twin" | sed -n 's/.*"id":"\(tw-[^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "no session id in: $twin"; exit 1; }
curl -fsS -H 'Content-Type: application/json' \
  -d '{"cycle":"delivery","ticks":40}' "$base/v1/sessions/$id/step" >/dev/null
curl -fsS "$base/v1/sessions/$id/checkpoint" -o "$workdir/ck.json"
grep -q '"version":1' "$workdir/ck.json" || { echo "checkpoint is not the versioned schema"; exit 1; }
echo "   twin $id checkpointed at step 40 ($(wc -c <"$workdir/ck.json") bytes)"

# Run the original twin to step 60 before the server dies: this is the
# uninterrupted reference the restored twin must match.
curl -fsS -H 'Content-Type: application/json' \
  -d '{"cycle":"delivery","ticks":20}' "$base/v1/sessions/$id/step" >/dev/null
ref=$(curl -fsS "$base/v1/sessions/$id" | strip_volatile)

echo "== graceful drain on SIGTERM"
kill -TERM "$pid"
wait "$pid" || { echo "tegserve exited nonzero"; cat "$workdir/serve.log"; exit 1; }
grep -q "drained cleanly" "$workdir/serve.log" || { echo "no clean-drain log line"; cat "$workdir/serve.log"; exit 1; }
pid=""

echo "== restart: restore the twin from its checkpoint"
boot "$workdir/serve2.log"
echo "   replacement up at $base"
restored=$(curl -fsS -H 'Content-Type: application/json' \
  -d "{\"from_checkpoint\": $(cat "$workdir/ck.json")}" "$base/v1/sessions")
id2=$(echo "$restored" | sed -n 's/.*"id":"\(tw-[^"]*\)".*/\1/p')
[ -n "$id2" ] || { echo "restore failed: $restored"; exit 1; }
echo "$restored" | grep -q '"steps":40' || { echo "restored twin not at step 40: $restored"; exit 1; }

curl -fsS -H 'Content-Type: application/json' \
  -d '{"cycle":"delivery","ticks":20}' "$base/v1/sessions/$id2/step" >/dev/null
got=$(curl -fsS "$base/v1/sessions/$id2" | strip_volatile)
if [ "$got" != "$ref" ]; then
  echo "restored twin diverged from the uninterrupted reference:"
  echo "  want: $ref"
  echo "  got:  $got"
  exit 1
fi
echo "   restored twin replayed to step 60: summary identical"

kill -TERM "$pid"
wait "$pid" || { echo "second tegserve exited nonzero"; cat "$workdir/serve2.log"; exit 1; }
pid=""

echo "== distributed tier: coordinator + two workers"
matrix='{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],"schemes":["INOR","DNOR"],"ambients":[{"ambient_c":15},{"ambient_c":25},{"ambient_c":35}],"array_sizes":[20],"max_duration_s":6}'
boot "$workdir/worker1.log"; w1_pid=$pid; w1_base=$base
boot "$workdir/worker2.log"; w2_pid=$pid; w2_base=$base
boot "$workdir/coord.log" -worker-peers "$w1_base,$w2_base"
coord_pid=$pid; coord_base=$base
pid=""
echo "   workers $w1_base $w2_base, coordinator $coord_base"

curl -fsS -H 'Content-Type: application/json' -d "$matrix" \
  "$coord_base/v1/matrix" -o "$workdir/sharded.json"
dispatched=$(metric "$coord_base" tegserve_shards_dispatched_total)
[ "${dispatched:-0}" -ge 2 ] || { echo "coordinator dispatched $dispatched shards, want >= 2"; exit 1; }
coord_ticks=$(metric "$coord_base" tegserve_ticks_total)
[ "$coord_ticks" = "0" ] || { echo "coordinator simulated $coord_ticks ticks itself"; exit 1; }

boot "$workdir/single.log"; single_pid=$pid; single_base=$base; pid=""
curl -fsS -H 'Content-Type: application/json' -d "$matrix" \
  "$single_base/v1/matrix" -o "$workdir/single.json"
cmp "$workdir/sharded.json" "$workdir/single.json" \
  || { echo "sharded matrix differs from the single-process bytes"; exit 1; }
echo "   $dispatched shards across 2 workers: bytes identical to a single process"

echo "== kill one worker -9: coordinator retries the shard locally"
kill -9 "$w2_pid"
wait "$w2_pid" 2>/dev/null || true
matrix2='{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],"schemes":["INOR","DNOR"],"ambients":[{"ambient_c":10},{"ambient_c":20}],"array_sizes":[20],"max_duration_s":60}'
# The surviving worker is killed -9 a beat later, while its shard is
# (plausibly) still in flight; the dead-peer shard guarantees at least
# one local retry either way, and the bytes must not change.
( sleep 0.1; kill -9 "$w1_pid" ) &
killer=$!
curl -fsS -H 'Content-Type: application/json' -d "$matrix2" \
  "$coord_base/v1/matrix" -o "$workdir/sharded2.json"
wait "$killer"
wait "$w1_pid" 2>/dev/null || true
retries=$(metric "$coord_base" tegserve_shard_retries_total)
[ "${retries:-0}" -ge 1 ] || { echo "no local shard retries after killing a worker"; exit 1; }
curl -fsS -H 'Content-Type: application/json' -d "$matrix2" \
  "$single_base/v1/matrix" -o "$workdir/single2.json"
cmp "$workdir/sharded2.json" "$workdir/single2.json" \
  || { echo "post-kill sharded matrix differs from the single-process bytes"; exit 1; }
echo "   $retries shard(s) recomputed locally: bytes still identical"
kill -TERM "$coord_pid" "$single_pid" 2>/dev/null || true
wait "$coord_pid" "$single_pid" 2>/dev/null || true

echo "== persistent store: sweep and matrix cells survive a cold restart"
sweep='{"cycles":["delivery","nedc"],"schemes":["inor","dnor"],"max_duration_s":10,"modules":40}'
grid='{"cycles":[{"name":"delivery"},{"name":"nedc"}],"schemes":["INOR","DNOR"],"ambients":[{"ambient_c":15},{"ambient_c":25}],"array_sizes":[40],"max_duration_s":10}'
boot "$workdir/store1.log" -store-dir "$workdir/store"
store_pid=$pid
state=$(curl -fsS -D - -H 'Content-Type: application/json' -d "$sweep" \
  "$base/v1/sweeps" -o "$workdir/sweep1.json" | tr -d '\r' | sed -n 's/^X-Cache: //p')
[ "$state" = "miss" ] || { echo "first store sweep was '$state', want miss"; exit 1; }
# Matrix cells reach the store behind the response. SIGTERM follows
# the matrix response at once, while its cells are still queued: the
# drain must write them out.
curl -fsS -o /dev/null -H 'Content-Type: application/json' -d "$grid" "$base/v1/matrix"
kill -TERM "$store_pid"
wait "$store_pid" || { echo "store tegserve exited nonzero"; cat "$workdir/store1.log"; exit 1; }

boot "$workdir/store2.log" -store-dir "$workdir/store"
store_pid=$pid; pid=""
state=$(curl -fsS -D - -H 'Content-Type: application/json' -d "$sweep" \
  "$base/v1/sweeps" -o "$workdir/sweep2.json" | tr -d '\r' | sed -n 's/^X-Cache: //p')
[ "$state" = "hit" ] || { echo "post-restart sweep was '$state', want hit"; exit 1; }
cmp "$workdir/sweep1.json" "$workdir/sweep2.json" \
  || { echo "sweep bytes changed across the restart"; exit 1; }
computed=$(metric "$base" tegserve_computations_total)
[ "$computed" = "0" ] || { echo "restarted server recomputed $computed jobs, want 0"; exit 1; }
disk_hits=$(metric "$base" tegserve_cache_disk_hits_total)
[ "${disk_hits:-0}" -ge 1 ] || { echo "no disk-tier hits after restart"; exit 1; }
echo "   cold restart served the sweep from disk: byte-identical, zero recomputation"

# A one-cycle subset of the stored matrix is a new request whose every
# cell the first process computed: all four must come from disk.
subset='{"cycles":[{"name":"delivery"}],"schemes":["INOR","DNOR"],"ambients":[{"ambient_c":15},{"ambient_c":25}],"array_sizes":[40],"max_duration_s":10}'
recalled=$(curl -fsS -D - -o /dev/null -H 'Content-Type: application/json' -d "$subset" \
  "$base/v1/matrix" | tr -d '\r' | sed -n 's/^X-Matrix-Cells-Cached: //p')
cells=$(metric "$base" tegserve_matrix_cells_total)
[ "$recalled" = "4" ] && [ "$cells" = "0" ] \
  || { echo "subset matrix recalled '$recalled' cells and simulated $cells, want 4 and 0 (queued cells lost on drain)"; exit 1; }
echo "   a one-cycle subset of the stored matrix recalled all 4 cells from disk"
kill -TERM "$store_pid" 2>/dev/null || true
wait "$store_pid" 2>/dev/null || true

echo "== smoke OK"
