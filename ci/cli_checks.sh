#!/usr/bin/env bash
# End-to-end checks of the mirrorslit command, run from the repo root:
#   bash ci/cli_checks.sh
# The command is ${MIRRORSLIT:-mirrorslit}: the installed console script by
# default, or for a source checkout
#   MIRRORSLIT="python -m mirrorslit.cli" PYTHONPATH=src bash ci/cli_checks.sh
# Every file the checks write goes under a temporary directory, removed on
# exit; the working directory stays the repo root, so a relative PYTHONPATH
# holds.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# `command` skips this function, so the default finds the console script
mirrorslit() {
  command ${MIRRORSLIT:-mirrorslit} "$@"
}

# the command on the README config, which sets every section
python -c 'import re; print(re.search(r"```json\n(.*?)```", open("README.md").read(), re.S).group(1), end="")' > "$tmp/readme.json"
mirrorslit validate --config "$tmp/readme.json" --out "$tmp/cli-out"
mirrorslit scan --config "$tmp/readme.json" --out "$tmp/cli-out" --no-timestamp
mirrorslit search --config "$tmp/readme.json" --out "$tmp/cli-out" --no-timestamp
mirrorslit simulate --config "$tmp/readme.json" --out "$tmp/cli-out" --no-timestamp
# a rerun without timestamps writes the same bytes
mirrorslit scan --config "$tmp/readme.json" --out "$tmp/cli-out-2" --no-timestamp
mirrorslit search --config "$tmp/readme.json" --out "$tmp/cli-out-2" --no-timestamp
mirrorslit simulate --config "$tmp/readme.json" --out "$tmp/cli-out-2" --no-timestamp
cmp "$tmp/cli-out/curves.csv" "$tmp/cli-out-2/curves.csv"
cmp "$tmp/cli-out/best_apparatus.json" "$tmp/cli-out-2/best_apparatus.json"
cmp "$tmp/cli-out/report.json" "$tmp/cli-out-2/report.json"
cmp "$tmp/cli-out/counts.csv" "$tmp/cli-out-2/counts.csv"
cmp "$tmp/cli-out/summary.json" "$tmp/cli-out-2/summary.json"
# and so does a fine grid: 1001 positions, 10^3 photons each
echo '{"scan": {"positions": 1001, "photons_per_position": 1000, "seed": 7}}' > "$tmp/fine.json"
mirrorslit scan --config "$tmp/fine.json" --out "$tmp/cli-fine" --no-timestamp
mirrorslit scan --config "$tmp/fine.json" --out "$tmp/cli-fine-2" --no-timestamp
mirrorslit simulate --config "$tmp/fine.json" --out "$tmp/cli-fine" --no-timestamp
mirrorslit simulate --config "$tmp/fine.json" --out "$tmp/cli-fine-2" --no-timestamp
cmp "$tmp/cli-fine/curves.csv" "$tmp/cli-fine-2/curves.csv"
cmp "$tmp/cli-fine/counts.csv" "$tmp/cli-fine-2/counts.csv"
cmp "$tmp/cli-fine/summary.json" "$tmp/cli-fine-2/summary.json"

# main maps every outcome to an exit code and stderr lines, for every
# command, a usage error included: expected code, stderr lines, command,
# config and, if not exit-out, the output directory; a failed run prints
# exactly one error line
check() {
  echo "$4" > "$tmp/exit.json"
  code=0
  mirrorslit "$3" --config "$tmp/exit.json" --out "${5:-$tmp/exit-out}" 2> "$tmp/exit.err" > /dev/null || code=$?
  cat "$tmp/exit.err"
  test "$code" -eq "$1"
  test "$(wc -l < "$tmp/exit.err")" -eq "$2"
  if [ "$1" -gt 0 ]; then test "$(grep -c '^error: ' "$tmp/exit.err")" -eq 1; fi
}
check 1 1 validate '{"apparatus": {"colour": 1}}'
check 1 1 sideways '{}'
check 2 1 scan '{"scan": {"positions": 7}}'
check 2 1 validate '{"apparatus": {"mirror_width": 6e-4}}'
check 3 1 search '{"search": {"aperture": 1.0, "samples": 4}}'
# a value only simulate reads, and lengths below their bound 1e-12
check 1 1 validate '{"hypothesis": {"kind": "sideways"}}'
check 1 1 validate '{"apparatus": {"wavelength": 1e-300, "screen_distance": 1e-300}}'
# an x_max above its bound 1e6, and a negative scan.positions
check 1 1 scan '{"x_max": 1e308}'
check 1 1 simulate '{"scan": {"positions": -127}}'
# lengths above their bound 1e6, which scan refuses too, though it builds
# no detector layout
check 1 1 scan '{"apparatus": {"screen_distance": 1e155}}'
check 1 1 scan '{"apparatus": {"arm1": 1e200}}'
check 1 1 scan '{"apparatus": {"slit_separation": 1e200}}'
# just outside each bound of a length, [1e-12, 1e6], and of an extent,
# [-1e6, 1e6]; a length at its bound runs
check 1 1 scan '{"apparatus": {"wavelength": 1e-13}}'
check 1 1 scan '{"apparatus": {"arm1": 1e7}}'
check 1 1 simulate '{"scan": {"x_min": -1e7}}'
check 1 1 validate '{"x_max": 1e7}'
check 0 0 validate '{"apparatus": {"arm1": 1e6}}'
# the bounds of the counts and of distinguishability; an integer past its
# bound is echoed as written (1e+300, not the 301 digits of int(1e300))
check 1 1 simulate '{"scan": {"photons_per_position": 0}}'
check 1 1 scan '{"scan": {"positions": 1e300}}'
check 1 1 simulate '{"hypothesis": {"kind": "partial", "distinguishability": 1.5}}'
# a search x_max inside the extent bounds that SearchSpace refuses; every
# command builds the search space, validate too
check 1 1 validate '{"search": {"x_max": -1e-3}}'
check 1 1 search '{"search": {"x_max": 0}}'
# simulate judges the layouts it simulates: the frozen bench mis-detects
# off-centre, while a re-aimed grid without x = 0 passes
check 0 1 simulate '{"scan": {"freeze_detectors": true}}'
check 0 0 simulate '{"scan": {"x_min": 1e-4, "x_max": 2.1e-3}}'
# the x = 0 layout sends a beam into the diaphragm, so L12 is null: validate
# warns twice and fails, simulate warns and goes on off x = 0
check 2 3 validate '{"apparatus": {"mirror_angle": 0.002508672859226761, "slit_separation": 1.9366792042939736e-05, "screen_distance": 0.02734422723576615}, "scan": {"x_min": 0.0004941695822053874, "x_max": 0.0029650174932323247, "photons_per_position": 100}}'
check 0 1 simulate '{"apparatus": {"mirror_angle": 0.002508672859226761, "slit_separation": 1.9366792042939736e-05, "screen_distance": 0.02734422723576615}, "scan": {"x_min": 0.0004941695822053874, "x_max": 0.0029650174932323247, "photons_per_position": 100}}'
# slit 1 on the mirror line at its grazing probe x = 3 F_s, beyond x_max
check 2 1 validate '{"x_max": 1.75e-5, "apparatus": {"slit_separation": 0.01, "mirror_angle": 1.5210474095731559}}'
touch "$tmp/exit-file"
check 1 1 validate '{}' "$tmp/exit-file"
echo "cli checks passed"
