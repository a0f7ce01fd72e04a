#!/usr/bin/env bash
# Clippy fixture gate for the invariants clippy enforces in this workspace
# (hash-iter, wall-clock, ambient-rng, panic-policy, and the `#[expect]`
# suppression discipline; see clippy.toml and DESIGN.md §11).
#
# Runs clippy with `-D warnings` on crates/lint/fixtures/clippy and requires
# the set of (file:line lint) diagnostics to equal the `//~ <lint>` markers
# in its sources: a marked lint that stops firing fails the gate, and so
# does any diagnostic on an unmarked (clean) line. A non-zero clippy exit
# alone does not pass. Needs `jq`.
set -euo pipefail
cd "$(dirname "$0")/.."
pkg=crates/lint/fixtures/clippy

command -v jq >/dev/null || {
    echo "error: clippy-fixtures needs jq" >&2
    exit 1
}

# The fixture package must lint under exactly the workspace's levels.
lints_table() {
    awk '/^\[/ { on = ($0 ~ /^\[(workspace\.)?lints\./); sub(/^\[workspace\./, "[") }
         on && !/^[[:space:]]*(#|$)/ { print }' "$1"
}
if ! diff <(lints_table Cargo.toml) <(lints_table "$pkg/Cargo.toml"); then
    echo "error: $pkg/Cargo.toml [lints] no longer mirrors the root [workspace.lints]" >&2
    exit 1
fi

set +e
json=$(cargo clippy --offline --quiet --keep-going --all-targets \
    --manifest-path "$pkg/Cargo.toml" --target-dir target/clippy-fixtures \
    --message-format=json -- -D warnings 2>/dev/null)
rc=$?
set -e
if [ "$rc" -eq 0 ]; then
    echo "error: clippy passed on the bad fixtures (want a -D warnings failure)" >&2
    exit 1
fi

actual=$(printf '%s\n' "$json" | jq -r '
    select(.reason == "compiler-message") | .message | select(.code != null)
    | .code.code as $lint | .spans[] | select(.is_primary)
    | "\(.file_name):\(.line_start) \($lint | sub("^clippy::"; ""))"' | sort -u)
expected=$(cd "$pkg" && grep -rn '//~ [a-z]' src | awk -F: '{
    split($0, marker, "//~ ")
    n = split(marker[2], lints, " ")
    for (i = 1; i <= n; i++) print $1 ":" $2 " " lints[i]
}' | sort -u)

if [ "$actual" != "$expected" ]; then
    echo "error: clippy fixture diagnostics differ from the //~ markers" >&2
    echo "  (< marked but not fired, > fired but not marked)" >&2
    diff <(printf '%s\n' "$expected") <(printf '%s\n' "$actual") >&2 || true
    exit 1
fi

# Every migrated rule keeps at least one live fixture.
while read -r file lint; do
    if ! grep -q "^$file:[0-9]* $lint\$" <<<"$actual"; then
        echo "error: no fixture in $file fires $lint" >&2
        exit 1
    fi
done <<'REQUIRED'
src/hash_iter.rs disallowed_types
src/wall_clock.rs disallowed_methods
src/ambient_rng.rs disallowed_methods
src/panic_policy.rs unwrap_used
src/panic_policy.rs expect_used
src/panic_policy.rs panic
src/suppressions.rs allow_attributes
src/suppressions.rs allow_attributes_without_reason
src/suppressions.rs unfulfilled_lint_expectations
src/suppressions.rs unknown_lints
REQUIRED

echo "clippy-fixtures: $(wc -l <<<"$actual") expected diagnostics fired, clean lines silent"
