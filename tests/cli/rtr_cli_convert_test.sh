#!/usr/bin/env bash
# End-to-end test of `rtr_cli convert` (text <-> binary snapshot,
# auto-detected by magic), including its error paths. Registered with ctest
# by the root CMakeLists; $1 is the path to the rtr_cli binary.
set -u

CLI="${1:?usage: rtr_cli_convert_test.sh <path-to-rtr_cli>}"
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

# A small hand-written graph in the text format of graph/io.h:
# 4 nodes (one dangling), 2 types, 4 arcs.
cat > "$TMP/g.txt" <<'EOF'
rtr-graph 1
2
untyped
paper
4
0
1
1
0
4
0 1 2.5
1 2 0.25
2 0 1.0
2 3 3.0
EOF

"$CLI" convert "$TMP/g.txt" "$TMP/g.rtrsnap" > "$TMP/out1.txt"
check "text -> snapshot conversion" 0 $?
grep -q "4 nodes, 4 arcs (text -> snapshot)" "$TMP/out1.txt"
check "conversion reports counts and direction" 0 $?

head -c 8 "$TMP/g.rtrsnap" | grep -q "rtr-snap"
check "snapshot starts with rtr-snap magic" 0 $?

"$CLI" convert "$TMP/g.rtrsnap" "$TMP/g2.txt" > "$TMP/out2.txt"
check "snapshot -> text conversion" 0 $?
grep -q "(snapshot -> text)" "$TMP/out2.txt"
check "reverse direction reported" 0 $?

# The round-tripped text graph must describe the same graph: `info` output
# is a canonical rendering of nodes/arcs/types.
"$CLI" info --graph "$TMP/g.txt" > "$TMP/info1.txt" &&
  "$CLI" info --graph "$TMP/g2.txt" > "$TMP/info2.txt" &&
  diff "$TMP/info1.txt" "$TMP/info2.txt" > /dev/null
check "text -> snapshot -> text round-trip preserves the graph" 0 $?

# `info` must also read the snapshot directly (auto-detect in --graph).
"$CLI" info --graph "$TMP/g.rtrsnap" > "$TMP/info3.txt" &&
  diff "$TMP/info1.txt" "$TMP/info3.txt" > /dev/null
check "info auto-detects the snapshot format" 0 $?

# --- error paths ---------------------------------------------------------

"$CLI" convert > /dev/null 2>&1
check "missing operands exit 2" 2 $?

"$CLI" convert "$TMP/g.txt" > /dev/null 2>&1
check "missing output operand exits 2" 2 $?

# The retired --probs flag must fail loudly, not quietly write a v2 file.
rm -f "$TMP/probs.rtrsnap"
"$CLI" convert "$TMP/g.txt" "$TMP/probs.rtrsnap" --probs=f32 \
  > /dev/null 2> "$TMP/probs.err"
check "removed --probs=f32 flag exits 2" 2 $?
grep -q "usage: rtr convert <in> <out>" "$TMP/probs.err"
check "removed --probs=f32 flag prints the usage line" 0 $?
[ ! -e "$TMP/probs.rtrsnap" ]
check "removed --probs=f32 flag writes no output" 0 $?

"$CLI" convert "$TMP/does-not-exist" "$TMP/x" > /dev/null 2>&1
check "nonexistent input exits 1" 1 $?

printf 'rtr-graph 1\n2\nuntyped\n' > "$TMP/truncated.txt"
"$CLI" convert "$TMP/truncated.txt" "$TMP/x" > /dev/null 2>&1
check "truncated text input exits 1" 1 $?

head -c 40 "$TMP/g.rtrsnap" > "$TMP/truncated.rtrsnap"
"$CLI" convert "$TMP/truncated.rtrsnap" "$TMP/x" > /dev/null 2>&1
check "truncated snapshot input exits 1" 1 $?

cat "$TMP/g.rtrsnap" /dev/null > "$TMP/garbage.rtrsnap"
printf 'junk' >> "$TMP/garbage.rtrsnap"
"$CLI" convert "$TMP/garbage.rtrsnap" "$TMP/x" > /dev/null 2>&1
check "snapshot with trailing garbage exits 1" 1 $?

"$CLI" convert "$TMP/g.txt" "$TMP/no-such-dir/x" > /dev/null 2>&1
check "unwritable output exits 1" 1 $?

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "all convert CLI checks passed"
