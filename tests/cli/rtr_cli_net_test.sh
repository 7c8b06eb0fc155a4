#!/usr/bin/env bash
# End-to-end test of the networked tier CLI (DESIGN.md §12):
# three `rtr_cli gp-serve` shards on ephemeral localhost ports (one of them
# mapping its snapshot with --mmap), a `rtr_cli serve --gps` front that
# ranks through them over TCP, `serve --mmap`, the --mmap and --graph usage
# errors, then a SIGTERM shutdown check — clean exit message, exit code 0,
# no orphan processes, and the listening port actually released. Registered with
# ctest by the root CMakeLists; $1 is the path to the rtr_cli binary.
set -u

CLI="${1:?usage: rtr_cli_net_test.sh <path-to-rtr_cli>}"
TMP="$(mktemp -d)"
GP_PIDS=""
cleanup() {
  for pid in $GP_PIDS; do kill -9 "$pid" 2>/dev/null; done
  rm -rf "$TMP"
}
trap cleanup EXIT

fails=0
check() {  # check <description> <expected-exit> <actual-exit>
  if [ "$2" -ne "$3" ]; then
    echo "FAIL: $1 (expected exit $2, got $3)"
    fails=$((fails + 1))
  else
    echo "ok: $1"
  fi
}

# A small deterministic graph (text format of graph/io.h): a 12-node ring
# with chords, enough structure for topk queries to touch every shard.
{
  echo "rtr-graph 1"
  echo "1"
  echo "untyped"
  echo "12"
  for _ in $(seq 12); do echo "0"; done
  echo "24"
  for u in $(seq 0 11); do
    echo "$u $(( (u + 1) % 12 )) 1.5"
    echo "$u $(( (u + 5) % 12 )) 0.5"
  done
} > "$TMP/g.txt"

"$CLI" convert "$TMP/g.txt" "$TMP/g.rtrsnap" > /dev/null
check "convert text graph to snapshot" 0 $?

# --- bring up three shards on ephemeral ports ----------------------------

# Shard 0 maps the snapshot (--mmap); shards 1 and 2 bulk-read it, so the
# front below ranks over both backings at once.
NUM_GPS=3
for shard in 0 1 2; do
  mmap_flag=""
  [ "$shard" -eq 0 ] && mmap_flag="--mmap"
  "$CLI" gp-serve --graph "$TMP/g.rtrsnap" --shard "$shard/$NUM_GPS" \
    --port 0 $mmap_flag > "$TMP/gp$shard.out" 2> "$TMP/gp$shard.err" &
  GP_PIDS="$GP_PIDS $!"
done

# Each shard prints "... listening on port NNN" once bound; poll for it.
ports=""
for shard in 0 1 2; do
  port=""
  for _ in $(seq 100); do
    port=$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' \
             "$TMP/gp$shard.out" 2>/dev/null | head -1)
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "FAIL: shard $shard never reported its port"
    cat "$TMP/gp$shard.err"
    fails=$((fails + 1))
    port=1  # keep going so the summary below still prints
  else
    echo "ok: shard $shard listening on port $port"
  fi
  ports="$ports$port,"
done
GPS="127.0.0.1:${ports%,}"
GPS="${GPS//,/,127.0.0.1:}"

# --- serve through the remote shards -------------------------------------

"$CLI" serve --graph "$TMP/g.rtrsnap" --gps "$GPS" --queries 20 \
  > "$TMP/serve.out" 2> "$TMP/serve.err"
check "serve --gps over three remote shards" 0 $?

grep -q "\[gp\] connected to" "$TMP/serve.out"
check "serve reports connected shards" 0 $?

grep -q "net: sent" "$TMP/serve.out"
check "serve prints the wire-traffic summary" 0 $?

# The wire summary must show real traffic and a quiet network.
grep -q "0 retries, 0 reconnects, 0 timeouts, 0 sheds" "$TMP/serve.out"
check "wire summary shows no faults on localhost" 0 $?

# Remote backend must surface the rtr_net_* counters in the exposition.
grep -q "rtr_net_frames_sent_total" "$TMP/serve.out"
check "exposition covers rtr_net_frames_sent_total" 0 $?

# --mmap on a snapshot maps it: a fallback would print a note on stderr.
grep -q "fell back" "$TMP/gp0.err"
check "gp-serve --mmap shard mapped its snapshot (no fallback note)" 1 $?

"$CLI" serve --graph "$TMP/g.rtrsnap" --mmap --queries 20 \
  > /dev/null 2> "$TMP/serve_mmap.err"
check "serve --graph snapshot --mmap" 0 $?
grep -q "fell back" "$TMP/serve_mmap.err"
check "serve --mmap mapped its snapshot (no fallback note)" 1 $?

# --- error paths ---------------------------------------------------------

"$CLI" serve --graph "$TMP/g.rtrsnap" --gps "127.0.0.1:1" --queries 5 \
  > /dev/null 2> "$TMP/badgp.err"
rc=$?
[ "$rc" -ne 0 ]
check "serve --gps with an unreachable shard fails" 0 $?

# Endpoints only make sense for the remote backend: the in-process ones
# must refuse them instead of silently striping local GPs.
for backend in local dist; do
  "$CLI" serve --graph "$TMP/g.rtrsnap" --backend "$backend" \
    --gps 127.0.0.1:1,127.0.0.1:2 --queries 5 > /dev/null 2> "$TMP/mixed.err"
  check "serve --backend $backend rejects --gps endpoints" 2 $?
done
grep -q "needs backend remote" "$TMP/mixed.err"
check "the rejection names the remote backend" 0 $?

# A text graph is never mapped, so --mmap on one is a usage error, not a
# silent bulk read.
"$CLI" serve --graph "$TMP/g.txt" --mmap --queries 5 \
  > /dev/null 2> "$TMP/serve_mmap_text.err"
check "serve --mmap rejects a text graph" 2 $?
grep -q -- "--mmap needs a snapshot file" "$TMP/serve_mmap_text.err"
check "serve names the snapshot requirement" 0 $?
"$CLI" gp-serve --graph "$TMP/g.txt" --shard 0/1 --port 0 --mmap \
  > /dev/null 2> "$TMP/gp_mmap_text.err"
check "gp-serve --mmap rejects a text graph" 2 $?
grep -q -- "--mmap needs a snapshot file" "$TMP/gp_mmap_text.err"
check "gp-serve names the snapshot requirement" 0 $?

"$CLI" gp-serve --shard 0/1 --port 0 > /dev/null 2> "$TMP/gp_nograph.err"
check "gp-serve without --graph is a usage error" 2 $?
grep -q -- "missing --graph" "$TMP/gp_nograph.err"
check "gp-serve names the missing --graph" 0 $?

"$CLI" gp-serve --graph "$TMP/g.rtrsnap" --shard "5/3" --port 0 \
  > /dev/null 2> /dev/null
rc=$?
[ "$rc" -ne 0 ]
check "gp-serve rejects an out-of-range shard" 0 $?

# --- SIGTERM: clean shutdown, no orphans, ports released -----------------

first_port="${ports%%,*}"
for pid in $GP_PIDS; do kill -TERM "$pid" 2>/dev/null; done
rc=0
for pid in $GP_PIDS; do
  wait "$pid"
  st=$?
  [ "$st" -eq 0 ] || rc=$st
done
check "every gp-serve exits 0 on SIGTERM" 0 $rc

orphans=0
for pid in $GP_PIDS; do
  kill -0 "$pid" 2>/dev/null && orphans=$((orphans + 1))
done
check "no orphan gp-serve processes" 0 $orphans
GP_PIDS=""

grep -q "clean shutdown (signal 15" "$TMP/gp0.out"
check "shard 0 printed the clean-shutdown summary" 0 $?

# The listener socket must be gone: a TCP connect to the old port fails.
(exec 3<>"/dev/tcp/127.0.0.1/$first_port") 2>/dev/null
rc=$?
[ "$rc" -ne 0 ]
check "shard 0's port is released after shutdown" 0 $?

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "all checks passed"
exit 0
