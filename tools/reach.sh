#!/usr/bin/env bash
# Reachability gate: every strong function that src/ defines must be linked
# into some binary other than a test (an example, a bench that reproduces a
# paper figure or table, or originbench), unless tools/reach_allow.txt names
# it with a reason.
#
#   tools/reach.sh [BUILD_DIR]     (default: build-reach)
#
# Method: build the whole tree and originbench at -O0 with one section per
# function and link with --gc-sections, so an executable keeps exactly the
# functions reachable from its main(). -O0 matters: at -O2 an inlined callee
# drops out of every binary and reads as dead. Then compare the global text
# symbols (nm `T`) of the src/ libraries with the text symbols (`T`/`t`) of
# every executable outside _deps and CMakeFiles. A src/ function is
#   served     when a non-test executable links it,
#   test-only  when only executables under tests/ link it,
#   unreached  when no executable links it.
# The gate fails on a test-only or unreached function the allowlist does not
# name, and on an allowlist entry that names nothing flagged (stale).
#
# Out of reach: header-only inline functions and templates are weak symbols
# (nm `W`), emitted into every caller's object, so the scan cannot tell who
# owns them; neither can it see a function only a served binary's dead code
# would call.
#
# Allowlist format (tools/reach_allow.txt): one entry per line, the demangled
# qualified name (no parameter list; it matches every overload) or a
# namespace prefix ending in `::`, then whitespace and a one-line reason.
# Blank lines and lines starting with `#` are ignored.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

out="${1:-build-reach}"
allow=tools/reach_allow.txt
flags=(-DCMAKE_BUILD_TYPE=None "-DCMAKE_CXX_FLAGS=-O0 -g0 -ffunction-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
jobs="$(nproc)"

cmake -B "$out/main" -S . "${flags[@]}" >/dev/null
cmake --build "$out/main" -j "$jobs" >/dev/null
cmake -B "$out/originbench" -S originbench "${flags[@]}" >/dev/null
cmake --build "$out/originbench" -j "$jobs" --target origin_bench >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Symbols are compared demangled, so a constructor's or destructor's variants
# count as one, and without ABI tags (`f[abi:cxx11]()` reads as `f()`).
demangle() { c++filt | sed 's/\[abi:[^]]*\]//g' | sort -u; }

# Strong functions defined by the src/ libraries.
find "$out/main/src" -name 'libaw4a_*.a' -print0 |
  xargs -0 nm --defined-only 2>/dev/null |
  awk '$2 == "T" { print $3 }' | demangle >"$work/defined"

# Functions each executable links, split into test and non-test callers.
: >"$work/served"
: >"$work/tested"
while IFS= read -r -d '' exe; do
  [[ "$(head -c 4 "$exe" | od -An -c | tr -d ' ')" == '177ELF' ]] || continue
  case "${exe#"$out"/main/}" in
    tests/*) sink="$work/tested" ;;
    *) sink="$work/served" ;;
  esac
  nm --defined-only "$exe" | awk '$2 == "T" || $2 == "t" { print $3 }' >>"$sink"
done < <(find "$out/main" "$out/originbench" -type f -perm -u+x \
           -not -path '*/_deps/*' -not -path '*/CMakeFiles/*' -print0)
for f in served tested; do
  demangle <"$work/$f" >"$work/$f.sorted"
done

comm -23 "$work/defined" "$work/served.sorted" >"$work/not_served"
comm -12 "$work/not_served" "$work/tested.sorted" >"$work/test_only"
comm -23 "$work/not_served" "$work/tested.sorted" >"$work/unreached"

# Allowlist: name + reason per entry.
awk '!/^[[:space:]]*(#|$)/' "$allow" >"$work/allow"
if ! awk 'NF < 2 { exit 1 }' "$work/allow"; then
  echo "reach: every entry in $allow needs a reason" >&2
  exit 1
fi
awk '{ print $1 }' "$work/allow" >"$work/allow_names"

# An entry matches a demangled signature when it is the qualified name (the
# text before the parameter list) or a `::`-terminated prefix of it.
matches() {
  local name="$1" sig="$2"
  if [[ "$name" == *:: ]]; then
    [[ "$sig" == "$name"* ]]
  else
    [[ "$sig" == "$name("* ]]
  fi
}

allowed() {
  local name
  while IFS= read -r name; do
    matches "$name" "$1" && return 0
  done <"$work/allow_names"
  return 1
}

status=0
: >"$work/used"
for kind in unreached test_only; do
  while IFS= read -r sig; do
    if allowed "$sig"; then
      echo "$sig" >>"$work/used"
    else
      echo "reach: $kind src/ function: $sig" >&2
      status=1
    fi
  done <"$work/$kind"
done

while IFS= read -r name; do
  hit=0
  while IFS= read -r sig; do
    if matches "$name" "$sig"; then
      hit=1
      break
    fi
  done <"$work/used"
  if ((hit == 0)); then
    echo "reach: stale allowlist entry (nothing unreached or test-only matches): $name" >&2
    status=1
  fi
done <"$work/allow_names"

echo "reach: $(wc -l <"$work/defined") strong src/ functions;" \
  "$(wc -l <"$work/test_only") test-only, $(wc -l <"$work/unreached") unreached;" \
  "$(wc -l <"$work/used") of them allowlisted ($(wc -l <"$work/allow_names") entries)"
exit "$status"
