#!/bin/sh
# Drives the ntdts command line on small capped campaigns: every flag
# combination ntdts rejects exits 2, the combinations a campaign's one
# options struct makes possible run to completion (exit 0), neither a planned
# nor a traced campaign's file changes with --snapshots=on, a worker fleet
# writes the files the in-process run writes for a planned campaign and for
# one that synthesizes runs, and a campaign cut mid-journal resumes to the
# files the uninterrupted run wrote.
#
#   usage: cli_test.sh <path-to-ntdts> <scratch-dir>
set -u
ntdts=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir" || exit 1

cat >"$dir/capped.ini" <<EOF
[test]
workload = Apache1
middleware = mscs
seed = 7
max_faults = 8
EOF

# A planned campaign with runs to execute: capped at 8 raw entries the plan
# prunes every one, at 600 it executes 28.
sed 's/^max_faults = 8$/max_faults = 600/' "$dir/capped.ini" >"$dir/planned.ini"

# An explicit list: every eighth fault of the profiled Apache1 sweep.
"$ntdts" faultlist Apache1 "$dir/all.faults" >/dev/null || exit 1
awk 'NR % 8 == 1' "$dir/all.faults" >"$dir/list.faults"
cat "$dir/capped.ini" >"$dir/list.ini"
echo "fault_list_file = $dir/list.faults" >>"$dir/list.ini"

# Two invocations per function: untraced, --snapshots=on synthesizes the
# faults whose invocation the golden run never reaches (3 of the 8).
cat "$dir/capped.ini" >"$dir/deep.ini"
echo "iterations = 2" >>"$dir/deep.ini"

failed=0
# expect <exit-code> <ntdts arguments...>
expect() {
  want=$1
  shift
  "$ntdts" "$@" >"$dir/output.txt" 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: ntdts $* exited $got, expected $want"
    cat "$dir/output.txt"
    failed=1
  fi
}

# same <what> <dir-a> <dir-b> <files...>: the two runs wrote identical files.
same() {
  what=$1
  a=$2
  b=$3
  shift 3
  for f in "$@"; do
    if ! cmp -s "$a/$f" "$b/$f"; then
      echo "FAIL: $what: $f differs"
      failed=1
    fi
  done
}

# Rejections.
expect 2 run "$dir/capped.ini" "$dir/rejected" --workers=2 --jobs=2
expect 2 run "$dir/list.ini" "$dir/rejected" --plan-auto
expect 2 run "$dir/capped.ini" "$dir/rejected" --jobs=1025
expect 2 run "$dir/capped.ini" "$dir/rejected" --plan-auto --ci-width=0.5
expect 2 single Apache1 'ReadFile.hFile#1:zero' watchd 9
expect 2 single Apache1 'ReadFile.hFile#1:zero' watchd x

# Combinations that run.
expect 0 run "$dir/capped.ini" "$dir/capped"
# Resume from the first half of the journal: reloaded and fresh runs write
# the same campaign file and results.csv rows as the uninterrupted run.
mkdir -p "$dir/resumed"
records=$(($(wc -l <"$dir/capped/journal.jsonl") - 1))
head -n $((1 + records / 2)) "$dir/capped/journal.jsonl" >"$dir/resumed/journal.jsonl"
expect 0 run "$dir/capped.ini" "$dir/resumed" --resume
same "run --resume" "$dir/capped" "$dir/resumed" campaign.dts results.csv
expect 0 run "$dir/capped.ini" "$dir/workers-traced" --workers=2 --trace=failures
expect 0 run "$dir/list.ini" "$dir/list-snapshots" --snapshots=on --jobs=2
expect 0 single Apache1 'ReadFile.hFile#1:zero' watchd 3
# A planned campaign writes the same campaign file with snapshots on, and the
# same files on a worker fleet.
expect 0 run "$dir/planned.ini" "$dir/planned" --plan-auto
expect 0 run "$dir/planned.ini" "$dir/planned-snapshots" --plan-auto --snapshots=on --jobs=2
same "--plan-auto --snapshots=on --jobs=2" "$dir/planned" "$dir/planned-snapshots" campaign.dts
expect 0 run "$dir/planned.ini" "$dir/planned-workers" --workers=2 --plan-auto
same "--workers=2 --plan-auto" "$dir/planned" "$dir/planned-workers" campaign.dts results.csv
# A fleet synthesizes the never-firing runs on the coordinator and writes the
# files the in-process run writes.
expect 0 run "$dir/deep.ini" "$dir/deep-snapshots" --snapshots=on
expect 0 run "$dir/deep.ini" "$dir/deep-workers" --workers=2 --snapshots=on \
  --metrics-out="$dir/deep-workers.prom"
same "--workers=2 --snapshots=on" "$dir/deep-snapshots" "$dir/deep-workers" campaign.dts results.csv
if ! grep -q '^dts_snap_synthesized_runs_total{.*} 3$' "$dir/deep-workers.prom"; then
  echo "FAIL: --workers=2 --snapshots=on did not synthesize the 3 never-firing runs"
  failed=1
fi
# Tracing turns synthesis off: every fault runs in full and writes its
# forensics file, so --snapshots=on changes neither the campaign file nor the
# forensics.
expect 0 run "$dir/deep.ini" "$dir/traced" --trace=all
expect 0 run "$dir/deep.ini" "$dir/traced-snapshots" --snapshots=on --trace=all
same "--trace=all --snapshots=on" "$dir/traced" "$dir/traced-snapshots" campaign.dts
plain_files=$(ls "$dir/traced/forensics" 2>/dev/null | wc -l)
snap_files=$(ls "$dir/traced-snapshots/forensics" 2>/dev/null | wc -l)
if [ "$plain_files" -eq 0 ] || [ "$plain_files" -ne "$snap_files" ]; then
  echo "FAIL: --trace=all wrote $plain_files forensics files, $snap_files with --snapshots=on"
  failed=1
fi

if [ "$failed" -eq 0 ]; then
  echo "PASS: ntdts exit codes"
fi
exit "$failed"
