#!/usr/bin/env bash
# Online-scenario acceptance gate (wired into CTest as `sweep_online`):
# runs tools/sweep_online.spec and asserts
#  1. the online summary JSON and per-instance CSV are byte-identical
#     across worker thread counts and to the committed artifacts under
#     tools/golden/ (sweep_online.json / sweep_online.csv); arrival
#     streams obey the same determinism contract as the offline
#     artifact,
#  2. the makespan ranking and the online ranking disagree on the
#     leader — the documented Beránek-style metric flip: the offline
#     makespan leader loses on deadline hit-rate under bursty arrivals,
#  3. the flip is statistically meaningful: the makespan leader's
#     weighted-flow gap against the online leader has a Holm-adjusted
#     Wilcoxon p below 0.05.
#
# Usage: tools/sweep_online.sh <sweep-binary> <spec-file> <golden-dir>
#
# Regenerating the goldens (only after an *intentional* artifact change,
# with the diff explained in the commit message):
#   build/sweep tools/sweep_online.spec --quiet \
#     --out tools/golden/sweep_online.json --csv tools/golden/sweep_online.csv

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sweep_bin="${1:-${repo_root}/build/sweep}"
spec="${2:-${repo_root}/tools/sweep_online.spec}"
golden_dir="${3:-${repo_root}/tools/golden}"

if [[ ! -x "${sweep_bin}" ]]; then
  echo "sweep_online.sh: sweep binary not found at ${sweep_bin}" >&2
  exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

"${sweep_bin}" "${spec}" --threads 1 --quiet --out "${workdir}/t1.json" \
  --csv "${workdir}/t1.csv" > /dev/null
"${sweep_bin}" "${spec}" --threads 4 --quiet --out "${workdir}/t4.json" \
  --csv "${workdir}/t4.csv" > /dev/null

for ext in json csv; do
  if ! cmp -s "${workdir}/t1.${ext}" "${workdir}/t4.${ext}"; then
    echo "FAIL: online ${ext} artifact differs between 1 and 4 threads" >&2
    diff "${workdir}/t1.${ext}" "${workdir}/t4.${ext}" >&2 || true
    exit 1
  fi
done

# The committed artifacts pin every online statistic, so a change that
# shifted them all the same way still fails here.
diff -u "${golden_dir}/sweep_online.json" "${workdir}/t1.json"
diff -u "${golden_dir}/sweep_online.csv" "${workdir}/t1.csv"

python3 - "${workdir}/t1.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    summary = json.load(f)

makespan = [row["policy"] for row in summary["ranking"]]
online = summary["online_ranking"]
by_name = {row["policy"]: row for row in summary["ranking"]}
leader_hit = by_name[makespan[0]]["online"]["mean_hit_rate"]
online_hit = by_name[online[0]]["online"]["mean_hit_rate"]
print(f"makespan leader: {makespan[0]} (hit rate {leader_hit})")
print(f"online leader:   {online[0]} (hit rate {online_hit})")
if makespan[0] == online[0]:
    sys.exit("FAIL: bursty arrivals did not flip the ranking leader")
if online_hit <= leader_hit:
    sys.exit("FAIL: the online leader does not win on deadline hit-rate")

loser = by_name[makespan[0]]["online"]["vs_online_leader"]
p = loser["wilcoxon_p_holm"]
print(f"makespan leader vs online leader: p(holm) = {p}")
if p >= 0.05:
    sys.exit(f"FAIL: ranking flip is not Holm-significant (p = {p})")
EOF

echo "OK: Holm-significant online ranking flip reproduced"
