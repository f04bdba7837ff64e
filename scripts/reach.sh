#!/usr/bin/env bash
# Reachability check: which declared functions does no shipped binary link?
#
# Builds every `package main` under cmd/ and examples/, plus the bench binary
# (`go build -C bench`), with inlining off (-gcflags=all=-l) so every call
# survives as a symbol, collects the repro/... functions each binary links
# (`go tool nm`), and prints every function declared in a non-test file of
# this module (for this GOOS/GOARCH) that none of them links, one per line:
#
#   internal/metrics.Store.Delta      (pointer and value receivers alike)
#   repro.Multiply                    (the root package)
#
#   bash scripts/reach.sh           # print the unlinked list
#   bash scripts/reach.sh -check    # fail if it differs from REACH.md
#   bash scripts/reach.sh -cover    # coverage half: which linked functions
#                                   # do the entry points never enter?
#
# REACH.md commits the list, each entry with the consumer that keeps it.
#
# -cover builds the same binaries with -cover -coverpkg=repro/..., runs
# each entry point with GOCOVERDIR set (the serve smoke, summagen on the
# five shapes, as a traced 3-rank TCP mesh and as one whose corrupt frame
# fails every rank with exit 3, experiments -quick all,
# every example, partview, fpmprof, and the four bench workloads at
# --seconds 3, untraced and traced), then prints every function no run
# entered and the statement total. It is a report, not a gate.
set -euo pipefail
export LC_ALL=C

cd "$(dirname "$0")/.."

mode=print
case "${1:-}" in
  "") ;;
  -check) mode=check ;;
  -cover) mode=cover ;;
  *) echo "usage: $0 [-check|-cover]" >&2; exit 2 ;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Symbol names normalised to pkg.Recv.Name: no pointer parens, no type
# arguments or generic shapes, no ABI suffix. Compiler-made functions
# (closures, go/defer wrappers, method values, init, type helpers) are
# dropped: each exists only beside the function it was made from.
normalise() {
  sed -E -e ':a' -e 's/\[[^][]*\]//' -e 'ta' \
         -e 's/\(\*([^)]*)\)/\1/g' -e 's/\.abi0$//' |
    grep -Ev '\.(func|gowrap|deferwrap)[0-9]|-fm$|\.init(\.|$)|^(type|go):'
}

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...)

# cover runs every entry point under coverage and reports what none entered.
cover() {
  local cov=(-cover -coverpkg=repro/...) bin="$tmp/bin" pkg w r
  export GOCOVERDIR="$tmp/cov"
  mkdir -p "$bin" "$GOCOVERDIR"
  for pkg in $mains; do
    go build "${cov[@]}" -o "$bin/${pkg##*/}" "$pkg"
  done
  go build -C bench "${cov[@]}" -o "$bin/summagen-bench" .

  echo "reach: serve smoke" >&2
  GOFLAGS="${cov[*]}" bash scripts/smoke-serve.sh >"$tmp/smoke.log" 2>&1 ||
    { cat "$tmp/smoke.log" >&2; exit 1; }
  echo "reach: summagen, experiments, examples, partview, fpmprof" >&2
  for w in square-corner square-rectangle block-rectangle 1d-rectangle l-rectangle; do
    "$bin/summagen" -n 256 -shape "$w" >/dev/null 2>&1
  done
  local hosts=127.0.0.1:19890,127.0.0.1:19891,127.0.0.1:19892 pids=()
  for r in 0 1 2; do
    "$bin/summagen" -rank "$r" -hosts "$hosts" -n 128 -trace "$tmp/trace$r.json" >/dev/null 2>&1 &
    pids+=($!)
  done
  for r in "${pids[@]}"; do wait "$r"; done
  # The same mesh with one corrupt frame: the CRC fails the sending peer at
  # once, so every rank must exit 3 (peer failure), and the rank that read
  # the frame must name the CorruptFrameError.
  hosts=127.0.0.1:19893,127.0.0.1:19894,127.0.0.1:19895 pids=()
  for r in 0 1 2; do
    "$bin/summagen" -rank "$r" -hosts "$hosts" -n 128 \
      -chaos 'corrupt:rank=1,after=2,fires=1' >"$tmp/chaos$r.log" 2>&1 &
    pids+=($!)
  done
  local named=0 status
  for r in 0 1 2; do
    status=0
    wait "${pids[$r]}" || status=$?
    if [ "$status" -ne 3 ]; then
      cat "$tmp/chaos$r.log" >&2
      echo "reach: rank $r of the corrupt mesh exited $status, want 3" >&2
      exit 1
    fi
    if grep -q 'corrupt frame from rank 1' "$tmp/chaos$r.log"; then named=1; fi
  done
  if [ "$named" -ne 1 ]; then
    cat "$tmp"/chaos?.log >&2
    echo "reach: no rank of the corrupt mesh names the corrupt frame" >&2
    exit 1
  fi
  "$bin/experiments" -quick all >/dev/null
  for pkg in $mains; do
    case "$pkg" in */examples/*) "$bin/${pkg##*/}" >/dev/null ;; esac
  done
  "$bin/partview" -n 64 -extended >/dev/null
  "$bin/fpmprof" -out "$tmp/model.fpm.json" >/dev/null 2>&1
  for w in engine-inproc-n512 engine-tcp-n128 fleet-http-mixed serve-netmpi-closed; do
    echo "reach: bench $w" >&2
    for r in 0 1; do
      "$bin/summagen-bench" -dir bench --workload "$w" --seconds 3 --trace "$r" >/dev/null 2>&1
    done
  done

  # The bench's own module matches repro/... too; report the repository only.
  go tool covdata textfmt -i="$GOCOVERDIR" -o "$tmp/cover.all"
  grep -v '^repro/bench/' "$tmp/cover.all" >"$tmp/cover.out"
  go tool cover -func="$tmp/cover.out" >"$tmp/func"
  echo "never entered:"
  awk '$NF == "0.0%" { sub(/^repro\//, "", $1); print "  " $1 " " $2 }' "$tmp/func"
  echo "reach: $(awk '$NF == "0.0%"' "$tmp/func" | wc -l) functions never entered;" \
    "statements covered: $(awk '$1 == "total:" { print $NF }' "$tmp/func")"
}
if [ "$mode" = cover ]; then
  cover
  exit 0
fi

# Linked: text symbols of every binary, package main renamed to its path.
i=0
for pkg in $mains; do
  i=$((i + 1))
  go build -gcflags=all=-l -o "$tmp/bin$i" "$pkg"
  go tool nm "$tmp/bin$i" | sed -nE 's/^ *[0-9a-f]* +[Tt] +//p' |
    sed -E "s#^main\.#$pkg.#" >>"$tmp/syms"
done
go build -C bench -gcflags=all=-l -o "$tmp/bench" .
go tool nm "$tmp/bench" | sed -nE 's/^ *[0-9a-f]* +[Tt] +//p' >>"$tmp/syms"
grep '^repro[/.]' "$tmp/syms" | normalise | sort -u >"$tmp/linked"

# Declared: every func in the non-test files this platform builds.
go list -f '{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... |
  while read -r pkg file; do
    awk -v pkg="$pkg" '
      /^func / {
        line = substr($0, 6)
        recv = ""
        if (line ~ /^\(/) {            # method: (r *T[P]) Name(
          recv = substr(line, 2, index(line, ")") - 2)
          line = substr(line, index(line, ")") + 2)
          n = split(recv, f, " ")
          recv = f[n]; gsub(/[*]/, "", recv); sub(/\[.*/, "", recv)
          recv = recv "."
        }
        match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
        name = substr(line, 1, RLENGTH)
        if (name != "init" && name != "_") print pkg "." recv name
      }' "$file"
  done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked" | sed -E 's#^repro/##' | sort >"$tmp/unlinked"

if [ "$mode" = print ]; then
  cat "$tmp/unlinked"
  exit 0
fi

# REACH.md lists each unlinked function as a bullet: - `name` — consumer
sed -nE 's/^- `([^`]+)`.*/\1/p' REACH.md | sort >"$tmp/committed"
if ! diff -u --label REACH.md --label 'scripts/reach.sh' "$tmp/committed" "$tmp/unlinked"; then
  echo "reach: the unlinked list differs from REACH.md: delete the new" >&2
  echo "reach: test-only code, or list it there with a named consumer" >&2
  exit 1
fi
echo "reach: $(wc -l <"$tmp/unlinked") unlinked functions, each named in REACH.md"
