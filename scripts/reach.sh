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
#
# REACH.md commits the list, each entry with the consumer that keeps it.
set -euo pipefail
export LC_ALL=C

cd "$(dirname "$0")/.."

mode=print
case "${1:-}" in
  "") ;;
  -check) mode=check ;;
  *) echo "usage: $0 [-check]" >&2; exit 2 ;;
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

# Linked: text symbols of every binary, package main renamed to its path.
mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...)
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
