#!/bin/sh
# Drives the ntdts command line on a small capped campaign: every flag
# combination ntdts rejects exits 2, the combinations a campaign's one
# options struct makes possible run to completion (exit 0), and neither a
# planned nor a traced campaign's file changes with --snapshots=on.
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

# Rejections.
expect 2 run "$dir/capped.ini" "$dir/rejected" --workers=2 --plan-auto
expect 2 run "$dir/capped.ini" "$dir/rejected" --workers=2 --jobs=2
expect 2 run "$dir/capped.ini" "$dir/rejected" --workers=2 --snapshots=on
expect 2 run "$dir/list.ini" "$dir/rejected" --plan-auto
expect 2 run "$dir/capped.ini" "$dir/rejected" --jobs=1025
expect 2 run "$dir/capped.ini" "$dir/rejected" --plan-auto --ci-width=0.5
expect 2 single Apache1 'ReadFile.hFile#1:zero' watchd 9
expect 2 single Apache1 'ReadFile.hFile#1:zero' watchd x

# Combinations that run.
expect 0 run "$dir/capped.ini" "$dir/workers-traced" --workers=2 --trace=failures
expect 0 run "$dir/list.ini" "$dir/list-snapshots" --snapshots=on --jobs=2
expect 0 single Apache1 'ReadFile.hFile#1:zero' watchd 3
# A planned campaign writes the same campaign file with snapshots on.
expect 0 run "$dir/capped.ini" "$dir/planned" --plan-auto
expect 0 run "$dir/capped.ini" "$dir/planned-snapshots" --plan-auto --snapshots=on --jobs=2
if ! cmp -s "$dir/planned/campaign.dts" "$dir/planned-snapshots/campaign.dts"; then
  echo "FAIL: --plan-auto campaign.dts differs with --snapshots=on --jobs=2"
  failed=1
fi
# Tracing turns synthesis off: every fault runs in full and writes its
# forensics file, so --snapshots=on changes neither the campaign file nor the
# forensics.
expect 0 run "$dir/deep.ini" "$dir/traced" --trace=all
expect 0 run "$dir/deep.ini" "$dir/traced-snapshots" --snapshots=on --trace=all
if ! cmp -s "$dir/traced/campaign.dts" "$dir/traced-snapshots/campaign.dts"; then
  echo "FAIL: --trace=all campaign.dts differs with --snapshots=on"
  failed=1
fi
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
