#!/bin/sh
# docs_lint.sh — keep the documentation honest.
#
# Checks, in order:
#   1. gofmt -l is clean (formatting drift fails the build, not review).
#   2. go vet passes.
#   3. Every results/*.txt and BENCH_*.json path mentioned in README.md,
#      DESIGN.md or EXPERIMENTS.md exists in the repo, so the docs never
#      reference an artifact that was renamed or never regenerated.
#   4. Every command under cmd/ is mentioned in README.md, so new
#      binaries cannot ship undocumented.
#   5. Every internal/* package has a "// Package <name>" comment in some
#      non-test .go file, so packages cannot ship without a godoc entry.
#   6. Every internal/<name> path mentioned in README.md, DESIGN.md or
#      EXPERIMENTS.md exists as a directory, so a deleted package cannot
#      leave its rows behind in the docs.
#
# Run from the repo root (make docs-lint does).
set -eu

fail=0

echo "docs-lint: gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "docs-lint: gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

echo "docs-lint: go vet"
go vet ./... || fail=1

echo "docs-lint: artifact references"
docs="README.md DESIGN.md EXPERIMENTS.md"
refs=$(grep -hoE '(results/[A-Za-z0-9_.-]+\.txt|BENCH_[A-Za-z0-9_-]+\.json)' $docs | sort -u)
for ref in $refs; do
    if [ ! -f "$ref" ]; then
        echo "docs-lint: $ref is referenced in the docs but does not exist" >&2
        echo "           (regenerate it, or fix the reference)" >&2
        fail=1
    fi
done

echo "docs-lint: command coverage in README.md"
for dir in cmd/*/; do
    name=$(basename "$dir")
    if ! grep -q "$name" README.md; then
        echo "docs-lint: cmd/$name is not mentioned in README.md" >&2
        fail=1
    fi
done

echo "docs-lint: package comments under internal/"
for dir in internal/*/; do
    name=$(basename "$dir")
    found=0
    for f in "$dir"*.go; do
        [ -f "$f" ] || continue
        case "$f" in *_test.go) continue ;; esac
        if grep -q "^// Package $name " "$f"; then
            found=1
            break
        fi
    done
    if [ "$found" -eq 0 ]; then
        echo "docs-lint: internal/$name has no package comment ('// Package $name …')" >&2
        echo "           (add a doc.go; godoc is part of the deliverable)" >&2
        fail=1
    fi
done

echo "docs-lint: package references"
pkgs=$(grep -hoE 'internal/[A-Za-z0-9_]+' $docs | sort -u)
for pkg in $pkgs; do
    if [ ! -d "$pkg" ]; then
        echo "docs-lint: $pkg is referenced in the docs but is not a directory" >&2
        echo "           (drop the reference, or fix its path)" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs-lint: FAILED" >&2
    exit 1
fi
echo "docs-lint: OK"
