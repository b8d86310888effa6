#!/usr/bin/env bash
# Exit-code taxonomy check for the hybridsim CLI (docs/ROBUSTNESS.md):
#   0 - clean pass, full coverage
#   1 - the subject failed (counterexample / certification failure /
#       lint error)
#   2 - the harness failed (timeout, interrupt, incomplete coverage,
#       bad input)
# Every subcommand must honor the same taxonomy, including the
# timeout-injection negative control: a livelocked cell must come back
# as a structured timeout with incomplete coverage and exit 2 — not
# hang, and not masquerade as a counterexample (exit 1).
set -u

BIN=${BIN:-_build/default/bin/hybridsim.exe}
if [ ! -x "$BIN" ]; then
  echo "check_exitcodes: $BIN not built (dune build first)" >&2
  exit 2
fi

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

exit "$fail"
