#!/usr/bin/env bash
# Replays the mirrorslit command on a git revision and on the working tree
# and compares what each run leaves behind, run from anywhere in the repo:
#   bash ci/same_outputs.sh REV
# REV is exported with `git archive` into a temporary directory (so .git is
# not touched), and each tree runs `python -m mirrorslit.cli` from its own
# src/ with --no-timestamp, on the same config files: the README config, the
# three benchmark workload configs written below and the configs of the
# exit-code checks in ci/cli_checks.sh, through all four commands, at
# --seed 1 and 2.  A run matches when its exit code, its stdout and stderr
# (the output directory masked as OUT) and every file it writes are
# identical.  Prints each run that differs and exits 0 only if none does.
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: bash ci/same_outputs.sh REV" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
here=$(pwd)
rev=$(git rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/rev" "$tmp/configs"
git archive "$rev" src | tar -x -C "$tmp/rev"

# the configs, one file each: the README config, the workloads on the bench
# (every field not given at the bench default), then the exit-code configs
configs=$tmp/configs
python -c 'import re, sys; sys.stdout.write(re.search(r"```json\n(.*?)```", open("README.md").read(), re.S).group(1))' > "$configs/readme.json"
echo '{"scan": {"positions": 41, "photons_per_position": 250000},
 "hypothesis": {"kind": "partial", "distinguishability": 0.6}}' > "$configs/photon_heavy.json"
echo '{"scan": {"positions": 1001, "photons_per_position": 1000}, "hypothesis": {"kind": "full"}}' \
  > "$configs/fine_grid.json"
echo '{"search": {"wavelength": [4e-7, 9e-7], "slit_separation": [5e-5, 2e-4],
 "screen_distance": [0.05, 0.2], "mirror_angle": [0.5, 1.1], "arm": [1.0, 10.0],
 "aperture": [3e-4, 2e-3], "x_max": 2.1e-3, "samples": 64}}' > "$configs/design_sweep.json"
n=0
sed -n "s/^check [0-9]* [0-9]* [a-z]* '\(.*\)'.*/\1/p" ci/cli_checks.sh | awk '!seen[$0]++' |
  while IFS= read -r config; do
    n=$((n + 1))
    printf '%s\n' "$config" > "$configs/exit-$(printf %02d "$n").json"
  done

runs=0
differ=0
for config in "$configs"/*.json; do
  name=$(basename "$config" .json)
  for command in validate scan simulate search; do
    for seed in 1 2; do
      run=$name-$command-$seed
      for side in rev work; do
        src=$tmp/rev/src
        [ "$side" = work ] && src=$here/src
        out=$tmp/$side/$run
        mkdir -p "$tmp/$side/logs"
        code=0
        PYTHONPATH=$src python -m mirrorslit.cli "$command" --config "$config" --out "$out" \
          --no-timestamp --seed "$seed" > "$tmp/$side/logs/$run.stdout" \
          2> "$tmp/$side/logs/$run.stderr" || code=$?
        echo "$code" > "$tmp/$side/logs/$run.code"
        sed -i "s#$out#OUT#g" "$tmp/$side/logs/$run.stdout" "$tmp/$side/logs/$run.stderr"
      done
      runs=$((runs + 1))
      same=true
      for log in code stdout stderr; do
        cmp -s "$tmp/rev/logs/$run.$log" "$tmp/work/logs/$run.$log" || same=false
      done
      if [ -e "$tmp/rev/$run" ] || [ -e "$tmp/work/$run" ]; then
        diff -r "$tmp/rev/$run" "$tmp/work/$run" > /dev/null 2>&1 || same=false
      fi
      if [ "$same" = false ]; then
        differ=$((differ + 1))
        echo "differs: $command --seed $seed on $name: $(tr -s ' \n' ' ' < "$config")"
      fi
    done
  done
done
echo "$runs runs against $rev, $differ differ"
[ "$differ" -eq 0 ]
