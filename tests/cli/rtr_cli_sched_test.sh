#!/usr/bin/env bash
# End-to-end test of cost-model admission scheduling on the serve command
# (DESIGN.md §11): `rtr_cli serve --scheduler` with a recorded --replay
# stream, per-record deadlines, deterministic deadline shedding, the
# rtr_sched_ metrics series, and backward compatibility of node-only replay
# files. Registered with ctest by the root CMakeLists; $1 is the rtr_cli
# binary.
set -u

CLI="${1:?usage: rtr_cli_sched_test.sh <path-to-rtr_cli>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fails=0
check() {  # check <description> <expected-exit> <actual-exit>
  if [ "$2" -ne "$3" ]; then
    echo "FAIL: $1 (expected exit $2, got $3)"
    fails=$((fails + 1))
  else
    echo "ok: $1"
  fi
}

# --- replay formats ------------------------------------------------------

# Old-style node-only replay: must parse unchanged, scheduler off.
cat > "$TMP/old.rtrq" <<'EOF'
# node-only records, the pre-scheduler replay format
3
17
42
3
EOF
"$CLI" serve --replay "$TMP/old.rtrq" --workers 1 \
  > "$TMP/old_out.txt" 2>&1
check "node-only replay serves without --scheduler" 0 $?
grep -q 'admission: accepted 4, rejected 0' "$TMP/old_out.txt"
check "all 4 node-only records were admitted" 0 $?

# Mixed replay: deadline column on some records, comments and blanks
# interleaved. A 0.0001ms deadline is unmeetable (the cost prior predicts
# well above it), so those two records shed deterministically at admission.
cat > "$TMP/mixed.rtrq" <<'EOF'
# mixed records: node [deadline_ms]
3 100000

17 0.0001
42
# trailing comment
9 0.0001
11 100000
EOF
"$CLI" serve --scheduler --replay "$TMP/mixed.rtrq" --workers 1 \
  --metrics-out "$TMP/metrics.txt" \
  > "$TMP/mixed_out.txt" 2>&1
check "deadline-column replay with --scheduler" 0 $?

grep -q 'admission: accepted 3, rejected 2 (queue overflow 0, '\
'predicted-deadline shed 2, stopping 0)' "$TMP/mixed_out.txt"
check "exactly the two tiny-deadline records were shed" 0 $?

grep -q 'scheduler: 0 widened-epsilon queries' "$TMP/mixed_out.txt"
check "no --eps-band: the summary counts 0 widened-epsilon queries" 0 $?

grep -q 'queue wait \[moderate\]:' "$TMP/mixed_out.txt"
check "summary reports per-class queue wait" 0 $?

# --- scheduler metrics series --------------------------------------------

for series in rtr_sched_shed_overflow_total rtr_sched_shed_predicted_total \
              rtr_sched_eps_widened_total; do
  grep -q "$series" "$TMP/metrics.txt"
  check "exposition covers $series" 0 $?
done
# Workers serve one query per wakeup; the batch-drain series are gone.
for series in rtr_sched_batches_total rtr_sched_batched_queries_total; do
  grep -q "$series" "$TMP/metrics.txt"
  check "exposition has no $series" 1 $?
done
shed=$(grep '^rtr_sched_shed_predicted_total' "$TMP/metrics.txt" |
       tail -1 | awk '{printf "%.0f", $NF}')
test "$shed" -eq 2
check "rtr_sched_shed_predicted_total agrees with the summary (got $shed)" \
  0 $?

# --- synthetic stream with scheduler knobs --------------------------------

# No replay file: the synthetic pool honors --deadline-ms and --eps-band.
# A generous deadline is met at the requested epsilon, so it sheds and
# widens nothing.
"$CLI" serve --scheduler --queries 40 --qps 2000 --workers 2 \
  --eps-band 0.05 --deadline-ms 60000 > "$TMP/synth_out.txt" 2>&1
check "synthetic stream with scheduler knobs" 0 $?
grep -q 'admission: accepted 40, rejected 0' "$TMP/synth_out.txt"
check "generous deadline admits the whole synthetic stream" 0 $?
grep -qx 'scheduler: 0 widened-epsilon queries' "$TMP/synth_out.txt"
check "a deadline met at the requested epsilon widens nothing" 0 $?
grep -q 'widens only requests that would miss their deadline' \
  "$TMP/synth_out.txt"
check "the scheduler banner says --eps-band needs a missed deadline" 0 $?

# --eps-band without any deadline: nothing can miss, nothing is widened,
# however deep the queue gets.
"$CLI" serve --scheduler --queries 40 --qps 100000 --workers 1 --queue 8 \
  --eps-band 0.05 > "$TMP/nodeadline_out.txt" 2>&1
check "--eps-band without a deadline" 0 $?
grep -qx 'scheduler: 0 widened-epsilon queries' "$TMP/nodeadline_out.txt"
check "--eps-band without a deadline widens nothing" 0 $?

# --- error paths ---------------------------------------------------------

"$CLI" serve --replay "$TMP/does_not_exist.rtrq" > /dev/null 2>&1
check "missing --replay file exits 2" 2 $?
printf 'not_a_node\n' > "$TMP/bad.rtrq"
"$CLI" serve --replay "$TMP/bad.rtrq" > /dev/null 2>&1
check "malformed replay record exits 2" 2 $?
printf '3 junk\n' > "$TMP/bad_deadline.rtrq"
"$CLI" serve --replay "$TMP/bad_deadline.rtrq" > /dev/null 2>&1
check "malformed deadline column exits 2" 2 $?
"$CLI" serve --scheduler --batch 4 > "$TMP/batch_out.txt" 2>&1
check "retired --batch is refused (exit 2)" 2 $?
grep -q "unknown flag '--batch' for serve" "$TMP/batch_out.txt"
check "--batch is reported as an unknown serve flag" 0 $?
"$CLI" serve --deadline-ms -1 > /dev/null 2>&1
check "negative --deadline-ms exits 2" 2 $?

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "all scheduler CLI checks passed"
