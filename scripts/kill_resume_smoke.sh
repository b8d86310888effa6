#!/usr/bin/env bash
# Kill-and-resume determinism smoke (docs/ROBUSTNESS.md): SIGTERM the
# E16 certification campaign mid-flight while it journals per-cell
# checkpoints, resume it, and require the resumed BENCH_faults.json to
# be byte-identical to an uninterrupted run's — sequentially and with
# --jobs 2. The TERM is sent once the first checkpoint journal holds its
# first cell record (polled every 10 ms for at most 20 s), so it lands
# after the harness installed its signal handlers and while the
# campaign is running. The interrupted run must degrade gracefully:
# flush its checkpoints, write a truncated partial BENCH_faults.json,
# and exit 2 through the harness path. A campaign that finished before
# the TERM tested nothing and fails the smoke. The clean run's export
# must also validate as hwf-bench-faults/1 (hybridsim check-json).
set -u

BIN=${BIN:-_build/default/bench/main.exe}
CLI=${CLI:-_build/default/bin/hybridsim.exe}
for exe in "$BIN" "$CLI"; do
  if [ ! -x "$exe" ]; then
    echo "kill_resume_smoke: $exe not built (dune build first)" >&2
    exit 2
  fi
done
BIN=$(readlink -f "$BIN")
CLI=$(readlink -f "$CLI")
poll_limit=2000  # 10 ms polls, 20 s

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2

fail=0
for jobs in 1 2; do
  echo "kill_resume_smoke: jobs=$jobs"
  rm -f ck.* BENCH_faults.json

  if ! "$BIN" --full faults --jobs "$jobs" > clean.log 2>&1; then
    echo "kill_resume_smoke: FAIL clean run (jobs=$jobs), see log:" >&2
    tail -5 clean.log >&2
    fail=1; continue
  fi
  mv BENCH_faults.json clean.json
  if ! "$CLI" check-json clean.json; then
    echo "kill_resume_smoke: FAIL clean BENCH_faults.json is not schema-valid" >&2
    fail=1; continue
  fi

  "$BIN" --full faults --jobs "$jobs" --checkpoint ck > kill.log 2>&1 &
  run=$!
  polls=0
  until grep -qs '"cell"' ck.*.ckpt.jsonl; do
    if ! kill -0 "$run" 2>/dev/null || [ "$polls" -ge "$poll_limit" ]; then
      break
    fi
    sleep 0.01
    polls=$((polls + 1))
  done
  kill -TERM "$run" 2>/dev/null
  wait "$run"
  killed=$?
  case "$killed" in
    2) ;;
    0)
      echo "kill_resume_smoke: FAIL campaign finished before the kill landed (jobs=$jobs)" >&2
      fail=1; continue ;;
    *)
      echo "kill_resume_smoke: FAIL killed run exited $killed (expected 2), see log:" >&2
      tail -5 kill.log >&2
      fail=1; continue ;;
  esac
  if ! grep -q '"truncated": true' BENCH_faults.json; then
    echo "kill_resume_smoke: FAIL killed run did not mark its export truncated" >&2
    fail=1; continue
  fi

  if ! "$BIN" --full faults --jobs "$jobs" --checkpoint ck --resume > resume.log 2>&1; then
    echo "kill_resume_smoke: FAIL resume run (jobs=$jobs), see log:" >&2
    tail -5 resume.log >&2
    fail=1; continue
  fi
  if diff -q clean.json BENCH_faults.json >/dev/null; then
    echo "kill_resume_smoke: OK jobs=$jobs (resumed output byte-identical)"
  else
    echo "kill_resume_smoke: FAIL jobs=$jobs: resumed BENCH_faults.json differs:" >&2
    diff clean.json BENCH_faults.json | head -20 >&2
    fail=1
  fi
done

exit "$fail"
