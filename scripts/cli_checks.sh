#!/usr/bin/env bash
# The gcsl command-line checks: exact exit codes, counts and outputs of
# validate, decide, enumerate, equiv, convert and trace on the fixtures.
#
#     bash scripts/cli_checks.sh
#     PYTHONPATH=src GCSL="python3 -m gcsl.cli" bash scripts/cli_checks.sh
#
# GCSL is the command to check, split on spaces; it defaults to the
# installed ``gcsl``.
# Runs from the root of the checkout and stops at the first failed check.
set -e
cd "$(dirname "$0")/.."
GCSL=${GCSL:-gcsl}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== gcsl validate on every fixture"
for f in fixtures/*; do $GCSL validate "$f"; done

echo "== gcsl decide on grammars, exact exit codes"
$GCSL decide fixtures/anbn.gcsg "a a b b"
$GCSL decide fixtures/dyck.gcsg "a a A A"
rc=0; $GCSL decide fixtures/anbn.gcsg "a a b" || rc=$?; test "$rc" -eq 1
$GCSL decide fixtures/fg2.nca "a b B A" --max-nodes 1
rc=0; $GCSL decide fixtures/anbn.gcsg "a a a b b" --max-nodes 3 || rc=$?; test "$rc" -eq 1

echo "== gcsl rejects words outside the rules' lattice before the search, exact exit codes"
rc=0; $GCSL decide fixtures/fg2.nca "a a" --max-nodes 1 || rc=$?; test "$rc" -eq 1
# 30 letters, 15 of them transpositions: an odd permutation
rc=0; $GCSL decide fixtures/s3.nca "$(printf 't s r q u e %.0s' $(seq 5))" --max-nodes 1 || rc=$?; test "$rc" -eq 1
# forty r letters, an even permutation: the search runs out of nodes
rc=0; $GCSL decide fixtures/s3.nca "$(printf 'r %.0s' $(seq 40))" --max-nodes 2000 || rc=$?; test "$rc" -eq 3

echo "== gcsl decides a 20 000-letter fg2 word in one pass, exact exit codes"
# u followed by its inverse; dropping the last letter breaks an exponent sum
w=$(python3 -c 'import random; r = random.Random(1); u = [r.choice("aAbB") for _ in range(10000)]; print(" ".join(u + [s.swapcase() for s in reversed(u)]))')
test "$(echo "$w" | wc -w)" -eq 20000
$GCSL decide fixtures/fg2.nca "$w" --max-nodes 1
rc=0; $GCSL decide fixtures/fg2.nca "${w% *}" --max-nodes 1 || rc=$?; test "$rc" -eq 1

echo "== gcsl enumerate and equiv, exact counts and exit codes"
tmp=$(mktemp -d -p "$work")
test "$($GCSL enumerate fixtures/s3.nca --max-len 4 | wc -l)" -eq 260
test "$($GCSL enumerate fixtures/fg2.nca --max-len 6 | wc -l)" -eq 265
$GCSL convert --to gcsg fixtures/fg2.nca -o "$tmp/fg2.gcsg"
$GCSL equiv fixtures/fg2.nca "$tmp/fg2.gcsg" --max-len 6
rc=0; $GCSL equiv fixtures/fg2.nca fixtures/fg1.nca --max-len 4 > "$tmp/equiv.out" || rc=$?; test "$rc" -eq 1
test "$(cat "$tmp/equiv.out")" = "languages differ on: B b"

echo "== gcsl converts an unanchored system or grammar without carets or tildes"
tmp=$(mktemp -d -p "$work")
$GCSL convert --to gcsg fixtures/s3.nca -o "$tmp/s3.gcsg"
# a bare `! grep` line never fails a step under `set -e`, so fail explicitly
if grep -q '\^' "$tmp/s3.gcsg"; then exit 1; fi
if grep -q '~' "$tmp/s3.gcsg"; then exit 1; fi
$GCSL convert --to standard fixtures/anbn.gcsg -o "$tmp/anbn.gcsg"
if grep -q '~' "$tmp/anbn.gcsg"; then exit 1; fi
$GCSL equiv fixtures/anbn.gcsg "$tmp/anbn.gcsg" --max-len 8
$GCSL decide "$tmp/s3.gcsg" "r q s u e e t e r t e t q e e s s e q e t s e t e q u u t e t t s e q e t q r s q t e t r t u q e t t u q r e t u e t q" --max-nodes 1

echo "== gcsl converts every anchored grammar to a standard one"
tmp=$(mktemp -d -p "$work")
for f in fixtures/*.egcsg; do
  out="$tmp/$(basename "$f" .egcsg).gcsg"
  $GCSL convert --to standard "$f" -o "$out"
  test "$(head -n 1 "$out")" = "kind: gcsg"
  # a bare `grep` line never fails a step under `set -e`, so fail explicitly
  if grep -q '@' "$out"; then exit 1; fi
  $GCSL equiv "$f" "$out" --max-len 8
done

echo "== gcsl converts an anchored grammar to nca and refuses an anchor in kind gcsg"
tmp=$(mktemp -d -p "$work")
{ cat fixtures/left_anchor.egcsg; echo "S -> _"; } > "$tmp/left_anchor_eps.egcsg"
$GCSL convert --to nca "$tmp/left_anchor_eps.egcsg" -o "$tmp/left_anchor.nca"
$GCSL decide "$tmp/left_anchor.nca" "a a b"
rc=0; $GCSL decide "$tmp/left_anchor.nca" "a a a b" || rc=$?; test "$rc" -eq 1
sed 's/^kind: egcsg$/kind: gcsg/' fixtures/left_anchor.egcsg > "$tmp/anchored.gcsg"
rc=0; $GCSL validate "$tmp/anchored.gcsg" > "$tmp/validate.out" || rc=$?; test "$rc" -eq 2
test ! -s "$tmp/validate.out"

echo "== gcsl exits 2 with empty stdout on a non-UTF-8 file and an unwritable -o file"
tmp=$(mktemp -d -p "$work")
printf '\xff\xfekind: nca\n' > "$tmp/utf16.nca"
rc=0; $GCSL validate "$tmp/utf16.nca" > "$tmp/validate.out" || rc=$?; test "$rc" -eq 2
test ! -s "$tmp/validate.out"
rc=0; $GCSL convert --to gcsg fixtures/fg2.nca -o missing/dir/out > "$tmp/convert.out" || rc=$?; test "$rc" -eq 2
test ! -s "$tmp/convert.out"

echo "== gcsl refuses decide --trace and an empty WORD, and traces a diagram only on request"
tmp=$(mktemp -d -p "$work")
rc=0; $GCSL decide fixtures/fg2.nca "a A" --trace x > "$tmp/decide.out" || rc=$?; test "$rc" -eq 2
test ! -s "$tmp/decide.out"
rc=0; $GCSL decide fixtures/fg2.nca "" > "$tmp/decide.out" || rc=$?; test "$rc" -eq 2
test ! -s "$tmp/decide.out"
$GCSL trace fixtures/fg2.nca "a A" > "$tmp/trace.txt"
# a bare `! grep` line never fails a step under `set -e`, so fail explicitly
if grep -q '^row ' "$tmp/trace.txt"; then exit 1; fi
$GCSL trace fixtures/fg2.nca "a A" --diagram > "$tmp/diagram.txt"
grep -q '^row ' "$tmp/diagram.txt"

echo "== gcsl validate reads past a UTF-8 byte-order mark"
tmp=$(mktemp -d -p "$work")
{ printf '\xef\xbb\xbf'; cat fixtures/fg2.nca; } > "$tmp/bom.nca"
$GCSL validate "$tmp/bom.nca"

echo "== gcsl trace keeps a right anchor in the canonical order"
tmp=$(mktemp -d -p "$work")
$GCSL trace fixtures/right_anchor.nca "a b" --canonical > "$tmp/trace.txt"
printf '0 | a b | rule#1 @1\n1 | a | rule#0 @0\n2 | _ |\n' | diff - "$tmp/trace.txt"

echo "== gcsl trace prints the exact canonical diagram of a splitting rule"
tmp=$(mktemp -d -p "$work")
printf 'kind: nca\nterminals: a b c\nalphabet: a b c d\nrules:\na b c -> d d\nd d -> _\n' > "$tmp/split.nca"
$GCSL trace "$tmp/split.nca" "a b c a b c" --canonical --diagram > "$tmp/diagram.txt"
printf '%s\n' \
  '0 | a b c a b c | rule#0 @0' '1 | d d a b c | rule#1 @0' '2 | a b c | rule#0 @0' \
  '3 | d d | rule#1 @0' '4 | _ |' \
  'row 0: a[0,1) b[1,2) c[2,3) a[3,4) b[4,5) c[5,6)' '  line: [0,3) rule#0' \
  'row 1: d[0,3/2) d[3/2,3) a[3,4) b[4,5) c[5,6)' '  line: [0,3) rule#1' \
  'row 2: a[3,4) b[4,5) c[5,6)' '  line: [3,6) rule#0' \
  'row 3: d[3,9/2) d[9/2,6)' '  line: [3,6) rule#1' \
  'row 4: _' | diff - "$tmp/diagram.txt"

echo "== gcsl trace replays a grammar's witness on its reversed rules"
tmp=$(mktemp -d -p "$work")
$GCSL trace fixtures/anbn.gcsg "a a b b" --canonical > "$tmp/trace.txt"
printf '0 | a a b b | rule#2 @1\n1 | a T b | rule#1 @0\n2 | _ |\n' | diff - "$tmp/trace.txt"

echo "== gcsl traces a grammar and its converted system alike"
tmp=$(mktemp -d -p "$work")
$GCSL convert --to nca fixtures/anbn.gcsg -o "$tmp/anbn.nca"
$GCSL trace fixtures/anbn.gcsg "a b" > "$tmp/grammar.txt"
$GCSL trace "$tmp/anbn.nca" "a b" > "$tmp/converted.txt"
diff "$tmp/grammar.txt" "$tmp/converted.txt"
printf '0 | a b | rule#0 @0\n1 | _ |\n' | diff - "$tmp/grammar.txt"

echo "== gcsl exits 3 with empty stdout on a conversion of more than nca.MAX_MEMO productions"
tmp=$(mktemp -d -p "$work")
# S -> a^20 has 2^20 terminal-eliminated copies
{ printf 'kind: gcsg\nterminals: a\nnonterminals: S\nstart: S\nproductions:\nS -> '; printf 'a %.0s' $(seq 20); echo; } > "$tmp/a20.gcsg"
$GCSL validate "$tmp/a20.gcsg"
rc=0; $GCSL convert --to noterm "$tmp/a20.gcsg" > "$tmp/convert.out" || rc=$?; test "$rc" -eq 3
test ! -s "$tmp/convert.out"

echo "== gcsl exits 3 with empty stdout before building the context productions of erasing rules"
tmp=$(mktemp -d -p "$work")
# 1 000 symbols and 501 erasing rules: 1 + 501 * (1 + 2 * 1 000) productions
{ printf 'kind: nca\nterminals:'; printf ' x%s' $(seq 0 999)
  printf '\nalphabet:'; printf ' x%s' $(seq 0 999); printf '\nrules:\n'
  for i in $(seq 0 500); do echo "x$i x$((i + 1)) -> _"; done; } > "$tmp/wide.nca"
$GCSL validate "$tmp/wide.nca"
rc=0; $GCSL convert --to gcsg "$tmp/wide.nca" > "$tmp/convert.out" || rc=$?; test "$rc" -eq 3
test ! -s "$tmp/convert.out"

echo "== gcsl converts a 40-letter anchored erasing rule"
tmp=$(mktemp -d -p "$work")
{ printf 'kind: nca\nterminals: a\nalphabet: a\nrules:\n'; printf 'a %.0s' $(seq 40); echo '-> _ @left'; } > "$tmp/erase40.nca"
$GCSL validate "$tmp/erase40.nca"
$GCSL convert --to gcsg "$tmp/erase40.nca" > "$tmp/convert.out"
test "$(head -n 1 "$tmp/convert.out")" = "kind: gcsg"
# a bare `grep` line never fails a step under `set -e`, so fail explicitly
if grep -q '~' "$tmp/convert.out"; then exit 1; fi

echo "all gcsl command-line checks passed"
