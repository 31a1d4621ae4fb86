#include "lint.hpp"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "lexer.hpp"

namespace sa_lint {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------

const std::set<std::string>& keywords() {
  static const std::set<std::string> k = {
      "if",       "for",     "while",    "switch",     "return",
      "sizeof",   "catch",   "decltype", "alignof",    "alignas",
      "noexcept", "typeid",  "throw",    "co_await",   "co_return",
      "co_yield", "requires", "static_assert", "defined",
  };
  return k;
}

/// Calls that allocate (or may allocate) and are therefore banned in
/// SA_STEADY_STATE regions when they do not resolve to a same-repo
/// function.
const std::set<std::string>& banned_alloc_calls() {
  static const std::set<std::string> k = {
      "malloc",       "calloc",   "realloc", "aligned_alloc",
      "posix_memalign", "strdup", "make_unique", "make_shared",
      "push_back",    "emplace_back", "emplace", "emplace_front",
      "resize",       "reserve",  "insert",  "assign",
      "append",       "to_string", "substr", "str",
  };
  return k;
}

/// Allocating / order-hostile types banned as direct uses in steady
/// regions (std::function and the unordered containers type-erase or
/// hash-scatter their storage — both heap-backed).
const std::set<std::string>& banned_alloc_types() {
  static const std::set<std::string> k = {
      "function",      "unordered_map",      "unordered_set",
      "unordered_multimap", "unordered_multiset", "ostringstream",
      "stringstream",
  };
  return k;
}

/// Heap-backed containers whose sized construction allocates: a
/// declaration passing constructor arguments or a non-empty brace
/// initializer is banned in steady regions like the sized calls above
/// (`std::vector<double> v(n);` is `v.resize(n)` in disguise).
const std::set<std::string>& sized_alloc_containers() {
  static const std::set<std::string> k = {
      "vector", "string", "deque", "map",      "set",
      "list",   "multimap", "multiset", "forward_list",
  };
  return k;
}

const std::set<std::string>& collective_calls() {
  static const std::set<std::string> k = {
      "allreduce_sum", "allreduce_sum_scalar", "broadcast_bytes",
  };
  return k;
}

const std::set<std::string>& nondeterministic_calls() {
  static const std::set<std::string> k = {
      "rand", "srand", "drand48", "lrand48", "time", "gettimeofday",
  };
  return k;
}

const std::set<std::string>& nondeterministic_types() {
  static const std::set<std::string> k = {
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand",   "minstd_rand0", "default_random_engine",
      "ranlux24_base", "ranlux48_base", "knuth_b",
  };
  return k;
}

const std::set<std::string>& unordered_types() {
  static const std::set<std::string> k = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset",
  };
  return k;
}

/// Layer partial order: each layer may include itself plus this set.
const std::map<std::string, std::set<std::string>>& layer_allowed() {
  static const std::map<std::string, std::set<std::string>> m = {
      {"common", {}},
      {"la", {"common"}},
      {"io", {"common"}},
      {"dist", {"common", "la"}},
      {"data", {"common", "la"}},
      {"perf", {"common", "la", "dist"}},
      {"core", {"common", "la", "io", "dist", "data", "perf"}},
  };
  return m;
}

bool is_engine_or_kernel_layer(const std::string& layer) {
  return layer == "core" || layer == "la" || layer == "dist";
}

bool collective_allowed_tu(const std::string& rel) {
  // The round plane: the EngineBase TU owns the round collective and the
  // snapshot scatter; the dist layer IS the communication subsystem.
  return rel.rfind("src/dist/", 0) == 0 || rel == "src/core/solver.cpp";
}

// ---------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------

struct CallSite {
  std::string name;
  int line;
};

struct DirectUse {
  std::string what;
  int line;
};

struct FunctionDef {
  std::string name;
  std::string display;  // Class::name when the qualifier is visible
  std::string file;     // rel path
  int line = 0;
  bool annotated = false;
  std::vector<CallSite> calls;
  std::vector<DirectUse> alloc_uses;  // new-exprs + banned type uses
};

struct FileAnalysis {
  LexedFile lex;
  std::string layer;  // "" when the file is not under src/<layer>/
  std::vector<FunctionDef> functions;
  std::vector<DirectUse> determinism_uses;  // type/iteration findings
};

using Tokens = std::vector<Token>;

bool is_ident(const Token& t) { return t.kind == Token::Kind::kIdent; }
bool is_punct(const Token& t, const char* p) {
  return t.kind == Token::Kind::kPunct && t.text == p;
}

/// Index of the matching closer for the opener at `open` (which must be
/// '(' / '{' / '['), or tokens.size() when unbalanced.
std::size_t match_group(const Tokens& t, std::size_t open) {
  const std::string& o = t[open].text;
  const std::string c = o == "(" ? ")" : o == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t[i], o.c_str())) ++depth;
    else if (is_punct(t[i], c.c_str()) && --depth == 0) return i;
  }
  return t.size();
}

/// Index of the '>' closing the template argument list opened at `open`,
/// or `end` when unbalanced before it.
std::size_t match_angle(const Tokens& t, std::size_t open, std::size_t end) {
  int depth = 0;
  for (std::size_t i = open; i < end; ++i) {
    if (is_punct(t[i], "<")) ++depth;
    else if (is_punct(t[i], ">") && --depth == 0) return i;
  }
  return end;
}

/// Collects the names of variables declared with an unordered container
/// type anywhere in the file (token pattern: unordered_* < ... > name).
std::set<std::string> unordered_variables(const Tokens& t) {
  std::set<std::string> vars;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i]) || unordered_types().count(t[i].text) == 0) continue;
    if (!is_punct(t[i + 1], "<")) continue;
    const std::size_t j = match_angle(t, i + 1, t.size());
    if (j + 1 < t.size() && is_ident(t[j + 1]) &&
        (j + 2 >= t.size() || !is_punct(t[j + 2], "(")))
      vars.insert(t[j + 1].text);
  }
  return vars;
}

/// Scans a function body (tokens in [begin, end)) for calls, direct
/// banned uses, the SA_STEADY_STATE marker, and determinism findings.
void scan_body(const Tokens& t, std::size_t begin, std::size_t end,
               const std::set<std::string>& unordered_vars,
               FunctionDef& fn, std::vector<DirectUse>& det) {
  bool in_throw = false;  // tokens of a throw-statement: the steady-state
                          // contract is already void once we are
                          // unwinding, so error-path construction is
                          // exempt from the alloc rule
  for (std::size_t i = begin; i < end; ++i) {
    const Token& tok = t[i];
    if (is_punct(tok, ";")) in_throw = false;
    if (!is_ident(tok)) continue;
    if (tok.text == "SA_STEADY_STATE") {
      fn.annotated = true;
      continue;
    }
    if (tok.text == "throw") {
      in_throw = true;
      continue;
    }
    if (tok.text == "new") {
      const bool op_decl = i > begin && is_ident(t[i - 1]) &&
                           t[i - 1].text == "operator";
      if (!in_throw && !op_decl)
        fn.alloc_uses.push_back({"'new' expression", tok.line});
      continue;
    }
    // Range-for over an unordered container: `for ( ... : var ... )`.
    if (tok.text == "for" && i + 1 < end && is_punct(t[i + 1], "(")) {
      const std::size_t close = match_group(t, i + 1);
      std::size_t colon = close;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_punct(t[j], "(")) ++depth;
        else if (is_punct(t[j], ")")) --depth;
        else if (depth == 1 && is_punct(t[j], ":")) {
          colon = j;
          break;
        }
      }
      for (std::size_t j = colon + 1; j < close && j < end; ++j)
        if (is_ident(t[j]) && unordered_vars.count(t[j].text) > 0)
          det.push_back({"iteration over unordered container '" +
                             t[j].text + "' (unspecified order)",
                         t[j].line});
      continue;
    }
    if (banned_alloc_types().count(tok.text) > 0 && !in_throw) {
      // Type use, not a call: std::function< / unordered_map< / a
      // stream object declaration.
      const bool typeish =
          i + 1 < end && (is_punct(t[i + 1], "<") || is_ident(t[i + 1]));
      if (typeish)
        fn.alloc_uses.push_back({"allocating type 'std::" + tok.text + "'",
                                 tok.line});
    }
    // `container<...> name(args)` / `name{args}`: a sized declaration.
    // Default construction (no arguments, empty braces) allocates nothing.
    if (sized_alloc_containers().count(tok.text) > 0 && !in_throw) {
      std::size_t j = i + 1;
      if (j < end && is_punct(t[j], "<")) j = match_angle(t, j, end) + 1;
      if (j + 2 < end && is_ident(t[j]) &&
          (is_punct(t[j + 1], "(") || is_punct(t[j + 1], "{")) &&
          match_group(t, j + 1) > j + 2)
        fn.alloc_uses.push_back(
            {"sized construction of 'std::" + tok.text + "'", tok.line});
    }
    if (nondeterministic_types().count(tok.text) > 0)
      det.push_back({"non-SplitMix64 RNG / entropy source 'std::" +
                         tok.text + "'",
                     tok.line});
    // Calls: identifier followed by '('.
    if (i + 1 < end && is_punct(t[i + 1], "(") &&
        keywords().count(tok.text) == 0) {
      if (!in_throw) fn.calls.push_back({tok.text, tok.line});
      if (nondeterministic_calls().count(tok.text) > 0)
        det.push_back({"non-deterministic call '" + tok.text + "()'",
                       tok.line});
    }
    // Explicit iterator walk: var.begin() on an unordered container.
    if (unordered_vars.count(tok.text) > 0 && i + 3 < end &&
        (is_punct(t[i + 1], ".") || is_punct(t[i + 1], "->")) &&
        is_ident(t[i + 2]) &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin") &&
        is_punct(t[i + 3], "("))
      det.push_back({"iteration over unordered container '" + tok.text +
                         "' (unspecified order)",
                     tok.line});
  }
}

/// Walks a file's token stream extracting function definitions.  A
/// definition is `name (params) qualifiers... {` — with constructor
/// member-init lists (`: member_(x), other_{y}`) threaded through.  The
/// grammar is heuristic but errs short: a missed definition weakens one
/// chain, it never invents a false edge.
void extract_functions(FileAnalysis& fa) {
  const Tokens& t = fa.lex.tokens;
  const std::set<std::string> uvars = unordered_variables(t);
  std::size_t i = 0;
  while (i < t.size()) {
    if (!is_ident(t[i]) || keywords().count(t[i].text) > 0 ||
        i + 1 >= t.size() || !is_punct(t[i + 1], "(")) {
      ++i;
      continue;
    }
    const std::size_t close = match_group(t, i + 1);
    if (close >= t.size()) {
      ++i;
      continue;
    }
    std::size_t k = close + 1;
    std::size_t body = t.size();
    // Skip trailing qualifiers: const noexcept(...) override final & &&
    // -> <trailing return type>.
    while (k < t.size()) {
      const Token& q = t[k];
      if (is_ident(q) && (q.text == "const" || q.text == "override" ||
                          q.text == "final" || q.text == "mutable" ||
                          q.text == "noexcept" || q.text == "try")) {
        ++k;
        if (k < t.size() && is_punct(t[k], "(")) k = match_group(t, k) + 1;
        continue;
      }
      if (is_punct(q, "&")) {
        ++k;
        continue;
      }
      if (is_punct(q, "->")) {  // trailing return type
        ++k;
        while (k < t.size() && !is_punct(t[k], "{") &&
               !is_punct(t[k], ";") && !is_punct(t[k], "="))
          ++k;
        continue;
      }
      break;
    }
    if (k < t.size() && is_punct(t[k], "{")) {
      body = k;
    } else if (k < t.size() && is_punct(t[k], ":") ) {
      // Constructor member-init list: name (args|{args}) [, ...] then {.
      std::size_t j = k + 1;
      while (j < t.size()) {
        while (j < t.size() &&
               (is_ident(t[j]) || is_punct(t[j], "::") ||
                is_punct(t[j], "<") || is_punct(t[j], ">") ||
                is_punct(t[j], ",") || t[j].kind == Token::Kind::kNumber))
          ++j;
        if (j >= t.size()) break;
        if (is_punct(t[j], "(") ) {
          j = match_group(t, j) + 1;
          if (j < t.size() && is_punct(t[j], ",")) {
            ++j;
            continue;
          }
          if (j < t.size() && is_punct(t[j], "{")) body = j;
          break;
        }
        if (is_punct(t[j], "{")) {
          const std::size_t g = match_group(t, j);
          if (g + 1 < t.size() && is_punct(t[g + 1], ",")) {
            j = g + 2;
            continue;
          }
          if (g + 1 < t.size() && is_punct(t[g + 1], "{")) body = g + 1;
          break;
        }
        break;
      }
    }
    if (body >= t.size()) {
      ++i;
      continue;
    }
    const std::size_t body_end = match_group(t, body);
    FunctionDef fn;
    fn.name = t[i].text;
    fn.display = fn.name;
    if (i >= 2 && is_punct(t[i - 1], "::") && is_ident(t[i - 2]))
      fn.display = t[i - 2].text + "::" + fn.name;
    fn.file = fa.lex.rel;
    fn.line = t[i].line;
    scan_body(t, body + 1, body_end, uvars, fn, fa.determinism_uses);
    fa.functions.push_back(std::move(fn));
    i = body_end + 1;
  }
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

struct Context {
  std::vector<FileAnalysis> files;
  std::set<std::string> diag_keys;  // dedup
  std::vector<Diagnostic> diags;

  void add(const std::string& file, int line, const std::string& rule,
           const std::string& message) {
    const std::string key =
        file + ":" + std::to_string(line) + ":" + rule + ":" + message;
    if (!diag_keys.insert(key).second) return;
    diags.push_back({file, line, rule, message});
  }
};

void check_suppression_justifications(Context& ctx) {
  for (const FileAnalysis& fa : ctx.files)
    for (const auto& [line, s] : fa.lex.suppressions)
      if (!s.justified)
        ctx.add(fa.lex.rel, line, "suppression",
                "sa-lint waiver without a justification — write "
                "'sa-lint: allow(rule): why this is sound'");
}

void check_layering(Context& ctx) {
  std::map<std::string, const FileAnalysis*> by_rel;
  for (const FileAnalysis& fa : ctx.files) by_rel[fa.lex.rel] = &fa;

  for (const FileAnalysis& fa : ctx.files) {
    if (fa.layer.empty()) continue;
    const auto allowed = layer_allowed().find(fa.layer);
    if (allowed == layer_allowed().end()) continue;
    for (const Include& inc : fa.lex.includes) {
      const std::size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;
      const std::string dep = inc.target.substr(0, slash);
      if (layer_allowed().count(dep) == 0) continue;  // not a layer path
      if (dep == fa.layer || allowed->second.count(dep) > 0) continue;
      if (fa.lex.suppressed("layering", inc.line)) continue;
      ctx.add(fa.lex.rel, inc.line, "layering",
              "layer '" + fa.layer + "' must not include '" + inc.target +
                  "' (allowed: common" +
                  [&] {
                    std::string s;
                    for (const std::string& a : allowed->second)
                      if (a != "common") s += ", " + a;
                    return s;
                  }() +
                  ")");
    }
  }

  // Include cycles among repo headers (DFS, three colors).
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& rel) {
        color[rel] = 1;
        stack.push_back(rel);
        const auto it = by_rel.find(rel);
        if (it != by_rel.end()) {
          for (const Include& inc : it->second->lex.includes) {
            const std::string dep = "src/" + inc.target;
            if (by_rel.count(dep) == 0) continue;
            if (it->second->lex.suppressed("layering", inc.line)) continue;
            if (color[dep] == 1) {
              std::string cycle;
              bool in_cycle = false;
              for (const std::string& s : stack) {
                if (s == dep) in_cycle = true;
                if (in_cycle) cycle += s + " -> ";
              }
              cycle += dep;
              ctx.add(rel, inc.line, "layering",
                      "include cycle: " + cycle);
            } else if (color[dep] == 0) {
              dfs(dep);
            }
          }
        }
        color[rel] = 2;
        stack.pop_back();
      };
  for (const FileAnalysis& fa : ctx.files)
    if (color[fa.lex.rel] == 0) dfs(fa.lex.rel);
}

void check_collectives(Context& ctx) {
  for (const FileAnalysis& fa : ctx.files) {
    if (collective_allowed_tu(fa.lex.rel)) continue;
    for (const FunctionDef& fn : fa.functions)
      for (const CallSite& c : fn.calls) {
        if (collective_calls().count(c.name) == 0) continue;
        if (fa.lex.suppressed("collective", c.line)) continue;
        ctx.add(fa.lex.rel, c.line, "collective",
                "call to '" + c.name + "' outside the round plane — only "
                "src/core/solver.cpp (EngineBase) and src/dist/ may issue "
                "collectives, so one-collective-per-round cannot regress");
      }
  }
}

void check_determinism(Context& ctx) {
  for (const FileAnalysis& fa : ctx.files) {
    if (!is_engine_or_kernel_layer(fa.layer)) continue;
    for (const DirectUse& u : fa.determinism_uses) {
      if (fa.lex.suppressed("determinism", u.line)) continue;
      ctx.add(fa.lex.rel, u.line, "determinism",
              u.what + " in an engine/kernel TU — results must be bitwise "
              "reproducible (use data::SplitMix64 and ordered iteration)");
    }
  }
}

void check_allocation(Context& ctx) {
  // Name-resolved call graph: a call edge follows EVERY same-repo
  // function with that name (virtual dispatch and overloads resolve
  // conservatively — the union of possible callees).
  std::map<std::string, std::vector<const FunctionDef*>> by_name;
  std::map<const FunctionDef*, const FileAnalysis*> owner;
  for (const FileAnalysis& fa : ctx.files)
    for (const FunctionDef& fn : fa.functions) {
      by_name[fn.name].push_back(&fn);
      owner[&fn] = &fa;
    }

  for (const FileAnalysis& fa : ctx.files) {
    for (const FunctionDef& root : fa.functions) {
      if (!root.annotated) continue;
      std::set<const FunctionDef*> visited;
      std::deque<std::pair<const FunctionDef*, std::string>> queue;
      queue.push_back({&root, root.display});
      visited.insert(&root);
      while (!queue.empty()) {
        const auto [fn, chain] = queue.front();
        queue.pop_front();
        const FileAnalysis& ffa = *owner[fn];
        for (const DirectUse& u : fn->alloc_uses) {
          if (ffa.lex.suppressed("alloc", u.line)) continue;
          ctx.add(ffa.lex.rel, u.line, "alloc",
                  u.what + " reachable from SA_STEADY_STATE region '" +
                      root.display + "' (chain: " + chain + ")");
        }
        for (const CallSite& c : fn->calls) {
          if (ffa.lex.suppressed("alloc", c.line)) continue;
          const auto targets = by_name.find(c.name);
          if (targets != by_name.end()) {
            for (const FunctionDef* callee : targets->second) {
              if (callee == fn || visited.count(callee) > 0) continue;
              const FileAnalysis& cfa = *owner[callee];
              if (cfa.lex.suppressed("alloc", callee->line)) continue;
              visited.insert(callee);
              queue.push_back({callee, chain + " -> " + callee->display});
            }
          } else if (banned_alloc_calls().count(c.name) > 0) {
            ctx.add(ffa.lex.rel, c.line, "alloc",
                    "allocating call '" + c.name +
                        "()' reachable from SA_STEADY_STATE region '" +
                        root.display + "' (chain: " + chain + ")");
          }
        }
      }
    }
  }
}

std::string layer_of(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  const std::size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

}  // namespace

std::string format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": error: [" + d.rule +
         "] " + d.message;
}

LintResult run_lint(const std::string& root) {
  const fs::path src_root = fs::path(root) / "src";
  if (!fs::is_directory(src_root))
    throw std::runtime_error("sa_lint: no src/ directory under " + root);

  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src_root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
      paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());

  Context ctx;
  for (const fs::path& p : paths) {
    const std::string rel =
        fs::relative(p, fs::path(root)).generic_string();
    FileAnalysis fa;
    fa.lex = lex_file(p.string(), rel);
    fa.layer = layer_of(rel);
    extract_functions(fa);
    ctx.files.push_back(std::move(fa));
  }

  check_suppression_justifications(ctx);
  check_layering(ctx);
  check_collectives(ctx);
  check_determinism(ctx);
  check_allocation(ctx);

  std::sort(ctx.diags.begin(), ctx.diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  LintResult result;
  result.diagnostics = std::move(ctx.diags);
  result.files_scanned = paths.size();
  return result;
}

}  // namespace sa_lint
