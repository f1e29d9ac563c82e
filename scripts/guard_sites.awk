# guard_sites.awk — names the function around every line that matches a
# pattern, for CI's source guards (.github/workflows/ci.yml).
#
#   awk -v pattern='enqueue_kernel[(]' -f scripts/guard_sites.awk FILE...
#
# Prints FILE:FUNCTION once per matching line that is not a // comment.
# FUNCTION is the last definition opened at namespace or class scope
# (column 0 or 2) before that line. A line there that looks like
# `Type name(` starts a declaration, and the declaration names a function
# only when its first `{` or `;` outside parentheses, on that line or a
# later one, is a `{`: a local such as `std::vector<char> v(n);` in a free
# function's 2-space-indented body ends in `;` and names nothing. Write
# patterns with bracket expressions (`[(]`, `[.]`): `-v` turns `\(` into a
# plain `(`.

# Returns the first "{" or ";" of `line` at parenthesis depth 0, carrying
# the depth across the lines of one declaration, or "" when there is none.
function terminator(line,    i, ch) {
  sub(/\/\/.*$/, "", line)
  for (i = 1; i <= length(line); ++i) {
    ch = substr(line, i, 1)
    if (ch == "(") {
      ++depth
    } else if (ch == ")") {
      --depth
    } else if (depth == 0 && (ch == "{" || ch == ";")) {
      return ch
    }
  }
  return ""
}

FNR == 1 {
  fn = ""
  pending = ""
}

/^(  )?[A-Za-z][A-Za-z0-9_:<>,*& ]* [A-Za-z_][A-Za-z0-9_:]*\(/ {
  pending = $0
  sub(/\(.*/, "", pending)
  sub(/.* /, "", pending)
  depth = 0
}

pending != "" {
  t = terminator($0)
  if (t == "{") {
    fn = pending
  }
  if (t != "") {
    pending = ""
  }
}

$0 ~ pattern && !/^ *\/\// {
  print FILENAME ":" fn
}
