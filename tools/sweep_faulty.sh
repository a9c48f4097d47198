#!/usr/bin/env bash
# Fault-injection acceptance gate (wired into CTest as `sweep_faulty`):
# runs tools/sweep_faulty.spec and asserts
#  1. the faulted summary JSON and per-instance CSV are byte-identical
#     across worker thread counts and to the committed artifacts under
#     tools/golden/ (sweep_faulty.json / sweep_faulty.csv); the
#     robustness columns obey the same determinism contract as the
#     zero-fault artifact,
#  2. the fault-free ranking and the faulted ranking disagree on the
#     leader — the documented robustness ranking flip,
#  3. the flip is statistically meaningful: the fault-free leader's
#     degradation gap against the least-degrading policy has a
#     Holm-adjusted Wilcoxon p below 0.05.
#
# Usage: tools/sweep_faulty.sh <sweep-binary> <spec-file> <golden-dir>
#
# Regenerating the goldens (only after an *intentional* artifact change,
# with the diff explained in the commit message):
#   build/sweep tools/sweep_faulty.spec --quiet \
#     --out tools/golden/sweep_faulty.json --csv tools/golden/sweep_faulty.csv

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sweep_bin="${1:-${repo_root}/build/sweep}"
spec="${2:-${repo_root}/tools/sweep_faulty.spec}"
golden_dir="${3:-${repo_root}/tools/golden}"

if [[ ! -x "${sweep_bin}" ]]; then
  echo "sweep_faulty.sh: sweep binary not found at ${sweep_bin}" >&2
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
    echo "FAIL: faulted ${ext} artifact differs between 1 and 4 threads" >&2
    diff "${workdir}/t1.${ext}" "${workdir}/t4.${ext}" >&2 || true
    exit 1
  fi
done

# The committed artifacts pin every robustness statistic, so a change that
# shifted them all the same way still fails here.
diff -u "${golden_dir}/sweep_faulty.json" "${workdir}/t1.json"
diff -u "${golden_dir}/sweep_faulty.csv" "${workdir}/t1.csv"

python3 - "${workdir}/t1.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    summary = json.load(f)

fault_free = summary["fault_free_ranking"]
faulted = [row["policy"] for row in summary["ranking"]]
print(f"fault-free leader: {fault_free[0]}")
print(f"faulted leader:    {faulted[0]}")
if fault_free[0] == faulted[0]:
    sys.exit("FAIL: fault injection did not flip the ranking leader")

by_name = {row["policy"]: row for row in summary["ranking"]}
loser = by_name[fault_free[0]]["robustness"]["vs_least_degrading"]
p = loser["wilcoxon_p_holm"]
print(f"fault-free leader vs least-degrading: p(holm) = {p}")
if p >= 0.05:
    sys.exit(f"FAIL: ranking flip is not Holm-significant (p = {p})")
EOF

echo "OK: Holm-significant robustness ranking flip reproduced"
