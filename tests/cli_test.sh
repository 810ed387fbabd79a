#!/bin/sh
# Drives the ntdts command line on a small capped campaign: every flag
# combination ntdts rejects exits 2, and the combinations a campaign's one
# options struct makes possible run to completion (exit 0).
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
expect 2 run "$dir/capped.ini" "$dir/rejected" --snapshots=on --trace=failures
expect 2 run "$dir/list.ini" "$dir/rejected" --plan-auto
expect 2 run "$dir/capped.ini" "$dir/rejected" --jobs=1025
expect 2 run "$dir/capped.ini" "$dir/rejected" --plan-auto --ci-width=0.5
expect 2 single Apache1 'ReadFile.hFile#1:zero' watchd 9
expect 2 single Apache1 'ReadFile.hFile#1:zero' watchd x

# Combinations that run.
expect 0 run "$dir/capped.ini" "$dir/workers-traced" --workers=2 --trace=failures
expect 0 run "$dir/list.ini" "$dir/list-snapshots" --snapshots=on --jobs=2
expect 0 single Apache1 'ReadFile.hFile#1:zero' watchd 3

if [ "$failed" -eq 0 ]; then
  echo "PASS: ntdts exit codes"
fi
exit "$failed"
