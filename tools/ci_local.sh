#!/usr/bin/env bash
# Local dry run of .github/workflows/ci.yml — the same jobs, adapted to
# whatever toolchain the host actually has (compilers that are missing
# are skipped with a notice, never silently).
#
# Usage:
#   tools/ci_local.sh            # all jobs: build-test matrix, lint,
#                                # sanitize, tsan, sweep-smoke, coverage,
#                                # bench-check
#   tools/ci_local.sh --quick    # one Release build-test + lint +
#                                # sanitize + sweep-smoke (skips Debug,
#                                # clang, tsan, coverage, bench)
#
# Build trees live under ci-build/ (git-ignored); pass CI_BUILD_ROOT to
# relocate them.  Exits nonzero on the first failing job.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${CI_BUILD_ROOT:-${repo_root}/ci-build}"
jobs="$(nproc 2>/dev/null || echo 2)"
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

note() { printf '\n=== %s ===\n' "$*"; }
skip() { printf '\n=== SKIP: %s ===\n' "$*"; }

launcher_args=()
if command -v ccache > /dev/null; then
  launcher_args=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                 -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# --- job: build-test (compiler x build-type matrix) ------------------------
build_test() {
  local cc="$1" cxx="$2" build_type="$3"
  local dir="${build_root}/${cc}-${build_type}"
  note "build-test: ${cxx} ${build_type}"
  cmake -B "${dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DCMAKE_C_COMPILER="${cc}" -DCMAKE_CXX_COMPILER="${cxx}" \
    "${launcher_args[@]}"
  cmake --build "${dir}" -j"${jobs}"
  (cd "${dir}" && ctest --output-on-failure -j"${jobs}" -E sweep_smoke)
}

compilers=()
command -v g++ > /dev/null && compilers+=("gcc:g++")
command -v clang++ > /dev/null && compilers+=("clang:clang++")
if [[ ${#compilers[@]} -eq 0 ]]; then
  echo "ci_local.sh: no C++ compiler found" >&2
  exit 1
fi
command -v clang++ > /dev/null || skip "clang jobs (clang++ not installed)"

for entry in "${compilers[@]}"; do
  cc="${entry%%:*}"
  cxx="${entry##*:}"
  build_test "${cc}" "${cxx}" Release
  if [[ ${quick} -eq 0 ]]; then
    build_test "${cc}" "${cxx}" Debug
  else
    break  # --quick: first available compiler, Release only
  fi
done

# --- job: lint -------------------------------------------------------------
note "lint: dagsched-lint + clang-tidy + clang-format"
lint_dir="${build_root}/${compilers[0]%%:*}-Release"
cmake --build "${lint_dir}" --target dagsched-lint -j"${jobs}"
"${lint_dir}/dagsched-lint" -I "${repo_root}/src" "${repo_root}/src" \
  "${repo_root}/tools/sweep_main.cpp" "${repo_root}/tools/schedd_main.cpp" \
  "${repo_root}/tools/lint_main.cpp"
if command -v run-clang-tidy > /dev/null; then
  # compile_commands.json is exported by every configure
  # (CMAKE_EXPORT_COMPILE_COMMANDS in CMakeLists.txt).
  run-clang-tidy -quiet -p "${lint_dir}" "${repo_root}/src"
else
  skip "clang-tidy (run-clang-tidy not installed)"
fi
if command -v clang-format > /dev/null; then
  # Mirror the CI rule: check only the files the current change touches.
  format_base="$(git -C "${repo_root}" rev-parse HEAD~1 2> /dev/null || true)"
  touched="$(git -C "${repo_root}" diff --name-only --diff-filter=d \
    "${format_base:-HEAD}" -- 'src/*.cpp' 'src/*.hpp' 'tests/*.cpp' \
    'tools/*.cpp')"
  if [[ -n "${touched}" ]]; then
    (cd "${repo_root}" && echo "${touched}" | \
     xargs clang-format --dry-run --Werror)
  else
    echo "clang-format: no touched C++ files"
  fi
else
  skip "clang-format (not installed)"
fi

# --- job: sanitize ---------------------------------------------------------
note "sanitize: ASan + UBSan, full ctest suite"
sanitize_dir="${build_root}/sanitize"
cmake -B "${sanitize_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDAGSCHED_SANITIZE=ON \
  "${launcher_args[@]}"
cmake --build "${sanitize_dir}" -j"${jobs}"
(cd "${sanitize_dir}" &&
 ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
 ctest --output-on-failure -j"${jobs}")

# --- job: tsan -------------------------------------------------------------
if [[ ${quick} -eq 1 ]]; then
  skip "tsan (--quick)"
else
  note "tsan: concurrent surfaces (chains, sweep pool, schedd workers)"
  tsan_dir="${build_root}/tsan"
  cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDAGSCHED_SANITIZE=thread \
    -DDAGSCHED_BUILD_BENCHES=OFF -DDAGSCHED_BUILD_EXAMPLES=OFF \
    "${launcher_args[@]}"
  cmake --build "${tsan_dir}" -j"${jobs}"
  (cd "${tsan_dir}" &&
   TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
   ctest --output-on-failure -j"${jobs}" \
     -R 'GlobalChains|SweepRunner|SweepSummary|SweepShard|Schedd|Service|schedd_smoke|sweep_smoke')
fi

# --- job: sweep-smoke ------------------------------------------------------
note "sweep-smoke: determinism contract + registry-migration goldens + schedd"
smoke_dir="${build_root}/${compilers[0]%%:*}-Release"
cmake --build "${smoke_dir}" --target sweep schedd -j"${jobs}"
"${repo_root}/tools/sweep_small.sh" "${smoke_dir}/sweep" \
  "${repo_root}/tools/sweep_small.spec"
"${repo_root}/tools/sweep_shard.sh" "${smoke_dir}/sweep" \
  "${repo_root}/tools/sweep_small.spec"
"${repo_root}/tools/sweep_golden.sh" "${smoke_dir}/sweep" \
  "${repo_root}/tools/sweep_golden.spec" "${repo_root}/tools/golden"
"${repo_root}/tools/sweep_faulty.sh" "${smoke_dir}/sweep" \
  "${repo_root}/tools/sweep_faulty.spec" "${repo_root}/tools/golden"
"${repo_root}/tools/sweep_online.sh" "${smoke_dir}/sweep" \
  "${repo_root}/tools/sweep_online.spec" "${repo_root}/tools/golden"
"${repo_root}/tools/schedd_smoke.sh" "${smoke_dir}/schedd" \
  "${repo_root}/tools"
"${smoke_dir}/sweep" --list-policies > /dev/null

# --- job: coverage ---------------------------------------------------------
if [[ ${quick} -eq 1 ]]; then
  skip "coverage (--quick)"
elif command -v gcovr > /dev/null && command -v g++ > /dev/null; then
  note "coverage: gcc --coverage + gcovr gate on src/sched/ + src/sim/arrivals"
  # The floor lives in ci.yml; read it from there so the two gates can
  # never drift apart.
  coverage_floor="$(sed -n 's/.*--fail-under-line \([0-9][0-9]*\).*/\1/p' \
    "${repo_root}/.github/workflows/ci.yml" | head -1)"
  : "${coverage_floor:=95}"
  coverage_dir="${build_root}/coverage"
  cmake -B "${coverage_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_C_COMPILER=gcc -DCMAKE_CXX_COMPILER=g++ \
    -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
    -DDAGSCHED_BUILD_BENCHES=OFF -DDAGSCHED_BUILD_EXAMPLES=OFF \
    -DDAGSCHED_BUILD_TOOLS=OFF "${launcher_args[@]}"
  cmake --build "${coverage_dir}" -j"${jobs}"
  (cd "${coverage_dir}" && ctest -j"${jobs}" > /dev/null)
  gcovr --root "${repo_root}" --object-directory "${coverage_dir}" \
    --filter 'src/sched/' --filter 'src/sim/arrivals' --print-summary \
    --fail-under-line "${coverage_floor}"
else
  skip "coverage (gcovr not installed)"
fi

# --- job: bench-check ------------------------------------------------------
if [[ ${quick} -eq 1 ]]; then
  skip "bench-check (--quick)"
elif [[ -f "${smoke_dir}/bench_perf" || -x "${smoke_dir}/bench_perf" ]] ||
     cmake --build "${smoke_dir}" --target bench_perf -j"${jobs}" \
       2> /dev/null; then
  note "bench-check: strict gate on the low-noise microbenchmarks"
  out="$(mktemp)"
  trap 'rm -f "${out}"' EXIT
  "${smoke_dir}/bench_perf" --benchmark_format=json \
    --benchmark_out="${out}" --benchmark_out_format=json \
    --benchmark_repetitions=3
  python3 "${repo_root}/tools/bench_diff.py" --git-baseline HEAD "${out}" \
    --strict \
    --strict-filter 'BM_AnnealPacket|BM_MoveDelta|BM_PacketCostEvaluate|BM_TaskLevels|BM_GlobalOracleBatch' \
    --threshold 0.30
else
  skip "bench-check (google-benchmark not available)"
fi

note "ci_local.sh: all jobs green"
