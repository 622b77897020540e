#!/usr/bin/env bash
# pub-surface: fail on a `pub` item that nothing outside tests refers to.
#
#   ci/pub-surface.sh
#
# Run from the repository root.  Every `pub` fn/struct/enum/trait/type/
# const/static defined in `crates/*/src` or `src/` must have at least one
# word-match of its name in `crates/*/src`, `src/`, `examples/` or
# `benchmark/src`, not counting:
#   - the item's own definition;
#   - `use` / `pub use` statements (the umbrella crate re-exports every
#     crate, so a re-export is not a call);
#   - `//` comments, doc comments included (a doc example is not a caller);
#   - `#[cfg(test)]` items, up to their closing brace;
#   - `tests/` directories.
# An unreferenced item passes only if `ci/pub-allowlist.txt` lists it as
# `<crate>::[<Type>::]<name> <reason>`, where <crate> is the directory under
# `crates/` (`fedhh` for `src/`) and <Type> the `impl` block the item sits
# in.  An allowlist line without a reason, or naming an item that is no
# longer unreferenced, fails too, so the list cannot go stale.
#
# Names are matched, not resolved: a dead item that shares its name with a
# live one is missed.  That errs toward missing a dead item, never toward
# flagging a live one.
set -euo pipefail

ALLOWLIST="ci/pub-allowlist.txt"

[ -d crates ] && [ -f "$ALLOWLIST" ] ||
    { echo "[pub-surface] run from the repository root" >&2; exit 2; }

# Definition files first, then the files that only refer.
mapfile -t DEFS < <(find crates/*/src src -name '*.rs' -not -path '*/tests/*' | sort)
mapfile -t REFS < <(find examples benchmark/src -name '*.rs' -not -path '*/tests/*' | sort)

awk -v ndefs="${#DEFS[@]}" -v allowlist="$ALLOWLIST" '
# Blank out string and char literals and drop `//` comments.  String state
# carries across lines (multi-line and raw strings).  Sets `code` (the line
# without comments, strings kept, for counting names) and `bare` (strings
# blanked too, for counting brackets).
function scan(line,    i, n, c, rest) {
    code = ""; bare = ""; n = length(line); i = 1
    while (i <= n) {
        c = substr(line, i, 1)
        if (in_str) {
            code = code c
            if (raw_end != "") {
                if (substr(line, i, length(raw_end)) == raw_end) {
                    code = code substr(raw_end, 2); i += length(raw_end); in_str = 0; continue
                }
            } else if (c == "\\") {
                code = code substr(line, i + 1, 1); i += 2; continue
            } else if (c == "\"") {
                in_str = 0
            }
            i++; continue
        }
        rest = substr(line, i)
        if (substr(rest, 1, 2) == "//") break
        if (match(rest, /^r#*"/)) {
            raw_end = "\"" substr(rest, 2, RLENGTH - 2)
            in_str = 1; code = code substr(rest, 1, RLENGTH); i += RLENGTH; continue
        }
        if (c == "\"") { raw_end = ""; in_str = 1; code = code c; i++; continue }
        if (c == "'\''" && match(rest, /^'\''(\\[^'\'']+|[^\\'\''])'\''/)) {
            code = code substr(rest, 1, RLENGTH); i += RLENGTH; continue
        }
        code = code c; bare = bare c; i++
    }
}

function trim(s) { sub(/^[ \t]+/, "", s); sub(/[ \t]+$/, "", s); return s }

# The self type of an `impl` header: `impl<T> Trait<T> for a::Foo<T> {` -> Foo.
function impl_type(h,    prev) {
    sub(/\{.*/, "", h); sub(/(^|[ \t])where([ \t].*|$)/, "", h)
    do { prev = h; gsub(/<[^<>]*>/, "", h) } while (h != prev)
    sub(/^[ \t]*(unsafe[ \t]+)?impl[ \t]*/, "", h)
    if (match(h, /[ \t]for[ \t]/)) h = substr(h, RSTART + RLENGTH)
    h = trim(h); sub(/^(&|dyn[ \t]+)/, "", h)
    sub(/[^A-Za-z0-9_:].*/, "", h); sub(/.*::/, "", h)
    return h
}

FNR == 1 {
    file_no++; is_def = file_no <= ndefs
    depth = 0; in_str = 0; skip = 0; in_use = 0; impl_head = ""; owner = ""
    crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate)
    if (FILENAME ~ /^src\//) crate = "fedhh"
}

{
    scan($0)
    t = trim(code)

    # A `use` statement, possibly over several lines, is not a caller.
    if (!skip && !in_use && t ~ /^(pub(\([^)]*\))?[ \t]+)?use[ \t]/) in_use = 1
    if (in_use) { if (index(bare, ";")) in_use = 0; next }

    if (!skip && t ~ /^#\[cfg\(test\)\]/) { skip = 1; skip_depth = depth; sub(/^[ \t]*#\[cfg\(test\)\]/, "", bare) }

    # Track bracket depth; a skipped `#[cfg(test)]` item ends at a `;` or
    # `,` at its own depth, or at the bracket that returns to that depth.
    ended = 0
    for (i = 1; i <= length(bare); i++) {
        c = substr(bare, i, 1)
        if (c ~ /[{([]/) depth++
        else if (c ~ /[})\]]/) {
            depth--
            if (skip && depth <= skip_depth && c == "}") ended = 1
            if (owner != "" && depth < owner_depth) owner = ""
        } else if (skip && depth == skip_depth && (c == ";" || c == ",")) ended = 1
        if (skip && depth < skip_depth) ended = 1
        if (ended) break
    }
    if (skip) { if (ended) skip = 0; next }

    # Remember which `impl` block the following items belong to.
    if (impl_head != "" || t ~ /^(unsafe[ \t]+)?impl([ \t<]|$)/) {
        impl_head = impl_head " " t
        if (index(bare, "{")) { owner = impl_type(impl_head); owner_depth = depth; impl_head = "" }
    }

    def = ""
    if (is_def && match(t, /^pub[ \t]+((const|unsafe|async|extern[ \t]+"[^"]*")[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        def = substr(t, RSTART, RLENGTH); sub(/.*[ \t]/, "", def)
    } else if (is_def && match(t, /^pub[ \t]+(unsafe[ \t]+)?(struct|enum|trait|type|const|static)[ \t]+(mut[ \t]+)?[A-Za-z_][A-Za-z0-9_]*/)) {
        def = substr(t, RSTART, RLENGTH); sub(/.*[ \t]/, "", def)
    }
    if (def != "") {
        key = crate "::" (owner != "" ? owner "::" : "") def
        n_items++; item_key[n_items] = key; item_name[n_items] = def; item_at[n_items] = FILENAME ":" FNR
    }

    # Count every identifier on the line, minus the definition itself.
    line = code; skipped_def = 0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
        w = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
        if (w == def && !skipped_def) { skipped_def = 1; continue }
        refs[w]++
    }
}

END {
    while ((getline l < allowlist) > 0) {
        if (l ~ /^[ \t]*(#|$)/) continue
        split(trim(l), f, /[ \t]+/)
        if (trim(substr(trim(l), length(f[1]) + 1)) == "") { bad[++n_bad] = "allowlist entry without a reason: " f[1]; continue }
        allowed[f[1]] = 1
    }
    for (i = 1; i <= n_items; i++) {
        if (refs[item_name[i]] > 0) continue
        if (item_key[i] in allowed) { used[item_key[i]] = 1; continue }
        bad[++n_bad] = "unreferenced pub item " item_key[i] " (" item_at[i] ")"
    }
    for (k in allowed) if (!(k in used)) bad[++n_bad] = "allowlisted item is referenced or gone: " k
    for (i = 1; i <= n_bad; i++) print "[pub-surface] " bad[i] > "/dev/stderr"
    if (n_bad) {
        print "[pub-surface] FAILED: delete each item, narrow it to pub(crate) or #[cfg(test)], or list it in " allowlist " with a reason" > "/dev/stderr"
        exit 1
    }
    printf "[pub-surface] %d pub items, each referenced or allowlisted\n", n_items
}
' "${DEFS[@]}" "${REFS[@]}"
