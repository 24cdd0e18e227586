#!/usr/bin/env bash
# Docs lint: keep the prose honest.
#   1. Every relative markdown link in README/DESIGN/EXPERIMENTS/ROADMAP
#      must point at a file that exists.
#   2. Every intra-document anchor link (#heading) must match a heading's
#      GitHub slug in the target document.
#   3. Every binary under cmd/ must be mentioned in README.md.
#   4. Every `make <target>` in README/DESIGN/EXPERIMENTS, inline in
#      backticks or at the start of a fenced code line, must name a
#      Makefile target.
# Used by `make docs-lint` and the CI docs-lint step.
set -euo pipefail

cd "$(dirname "$0")/.."

DOCS="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md"
fail=0

# GitHub heading slug: lowercase, strip punctuation except dashes and
# spaces, spaces to dashes.
slugs() {
    sed -n 's/^#\{1,6\} //p' "$1" \
        | tr '[:upper:]' '[:lower:]' \
        | sed -e 's/[^a-z0-9 §./-]//g' -e 's/[§./]//g' -e 's/ /-/g'
}

for doc in $DOCS; do
    [ -f "$doc" ] || { echo "docs-lint: $doc missing"; fail=1; continue; }
    # Markdown link targets, skipping absolute URLs.
    targets=$(grep -o ']([^)]*)' "$doc" | sed -e 's/^](//' -e 's/)$//' \
        | grep -v '^https\?://' | grep -v '^mailto:' || true)
    for t in $targets; do
        file="${t%%#*}"
        frag=""
        case "$t" in *'#'*) frag="${t#*#}" ;; esac
        if [ -z "$file" ]; then
            file="$doc" # pure #anchor link
        fi
        if [ ! -e "$file" ]; then
            echo "docs-lint: $doc links to missing file: $t"
            fail=1
            continue
        fi
        if [ -n "$frag" ]; then
            case "$file" in
            *.md)
                if ! grep -qx -- "$frag" <<<"$(slugs "$file")"; then
                    echo "docs-lint: $doc links to missing anchor: $t"
                    fail=1
                fi
                ;;
            esac
        fi
    done
done

for d in cmd/*/; do
    bin=$(basename "$d")
    if ! grep -q "$bin" README.md; then
        echo "docs-lint: README.md does not mention cmd/$bin"
        fail=1
    fi
done

make_targets=$(sed -n 's/^\([A-Za-z0-9_-]*\):.*/\1/p' Makefile)
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    named=$(awk '
        /^```/ { fence = !fence; next }
        fence && /^make [A-Za-z0-9_-]/ { print $2; next }
        {
            while (match($0, /`make [A-Za-z0-9_-]+/)) {
                print substr($0, RSTART + 6, RLENGTH - 6)
                $0 = substr($0, RSTART + RLENGTH)
            }
        }' "$doc" | sort -u)
    for t in $named; do
        if ! grep -qx -- "$t" <<<"$make_targets"; then
            echo "docs-lint: $doc names a missing make target: make $t"
            fail=1
        fi
    done
done

if [ "$fail" != 0 ]; then
    exit 1
fi
echo "docs-lint: OK (links, anchors, cmd/* coverage and make targets)"
