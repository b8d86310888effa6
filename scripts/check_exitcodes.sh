#!/usr/bin/env bash
# Exit-code taxonomy check for the hybridsim CLI and the bench harness
# (docs/ROBUSTNESS.md):
#   0 - clean pass, full coverage
#   1 - the subject failed (counterexample / certification failure /
#       lint error)
#   2 - the harness failed (timeout, interrupt, incomplete coverage,
#       bad input: usage errors and uncaught exceptions included)
# Every subcommand must honor the same taxonomy, including the
# timeout-injection negative control: a livelocked cell must come back
# as a structured timeout with incomplete coverage and exit 2 — not
# hang, and not masquerade as a counterexample (exit 1).
set -u

BIN=${BIN:-_build/default/bin/hybridsim.exe}
BENCH=${BENCH:-_build/default/bench/main.exe}
for exe in "$BIN" "$BENCH"; do
  if [ ! -x "$exe" ]; then
    echo "check_exitcodes: $exe not built (dune build first)" >&2
    exit 2
  fi
done

fail=0
expect() {
  local want=$1 name=$2
  shift 2
  "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -eq "$want" ]; then
    echo "check_exitcodes: OK   $name (exit $got)"
  else
    echo "check_exitcodes: FAIL $name: expected exit $want, got $got" >&2
    fail=1
  fi
}

expect 0 "explore clean (Q=8)"            "$BIN" explore -q 8
expect 1 "explore counterexample (Q=1)"   "$BIN" explore -q 1
expect 0 "cas clean"                      "$BIN" cas
expect 0 "faults clean (fig3)"            "$BIN" faults -s fig3
expect 2 "faults injected livelock"       timeout 60 "$BIN" faults -s fig3 --inject-livelock --cell-wall 1
expect 2 "replay missing schedule file"   "$BIN" replay /nonexistent.sched
expect 0 "lint clean"                     "$BIN" lint
expect 0 "stats clean"                    "$BIN" stats
expect 2 "check-json without a file"      "$BIN" check-json
expect 1 "check-json missing file"        "$BIN" check-json /nonexistent.jsonl
expect 2 "usage error (bad layout)"       "$BIN" explore -l garbage
expect 2 "fig7 below its processors"      "$BIN" run -i fig7 -c 1 -l 0:1,1:1
expect 2 "cas with jobs 0"                "$BIN" cas --jobs 0
expect 2 "stats with jobs 0"              "$BIN" stats --jobs 0 --max-runs 10
expect 2 "explore with jobs -1"           "$BIN" explore --jobs=-1
expect 2 "sweep below its processors"     "$BIN" sweep -c 1 -l 0:1,1:1

# The queue replays like every other scenario. Its search finds no
# counterexample, so explore saves none; the schedule is written here.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
queue=(-i queue -c 2 -q 4 -l 0:1,1:1)
expect 0 "explore queue"                  "$BIN" explore "${queue[@]}" --max-runs 200 --save "$tmp/queue.sched"
echo "1 2 1 2 2 1" > "$tmp/queue.sched"
expect 0 "replay queue"                   "$BIN" replay "${queue[@]}" "$tmp/queue.sched"
expect 0 "analyze queue"                  "$BIN" analyze "${queue[@]}"

# A journal of the retired string-payload schema is refused on resume,
# even for the same campaign: its header, relabelled hwf-ckpt/1.
"$BIN" explore -q 8 --checkpoint "$tmp/v2.ckpt.jsonl" >/dev/null 2>&1
head -n 1 "$tmp/v2.ckpt.jsonl" | sed 's|"hwf-ckpt/2"|"hwf-ckpt/1"|' > "$tmp/v1.ckpt.jsonl"
expect 2 "resume an hwf-ckpt/1 journal"   "$BIN" explore -q 8 --checkpoint "$tmp/v1.ckpt.jsonl" --resume

expect 2 "bench unknown experiment"       "$BENCH" crsh
expect 2 "bench unparsable gate"          "$BENCH" crash --min-speedup abc
expect 2 "bench unparsable jobs"          "$BENCH" crash --jobs x

exit "$fail"
