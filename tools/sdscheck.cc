// sdscheck — source analysis for the sdscale tree.
//
// Five passes guard the two contracts the reproduction rests on:
// bit-identical simulator replay, and the live runtime's layering and
// lock order.
//
//   layering        The module include graph must follow the layer DAG
//                   declared in tools/layering.toml: a module may include
//                   only strictly-lower-ranked modules (or itself), and
//                   banned pairs (sim -> transport/runtime) are rejected
//                   transitively through the file-level include closure.
//   lockgraph       Every sds::Mutex declared under src/ must be stamped
//                   with a LockRank; acquisition edges inferred from
//                   nested MutexLock scopes and SDS_ACQUIRED_AFTER
//                   annotations must be rank-increasing and acyclic.
//   annotations     A mutable field declared after the first Mutex member
//                   of a mutex-owning class must carry SDS_GUARDED_BY (or
//                   be of an inherently-synchronized type, or carry an
//                   explicit `allow(unguarded-field)` marker with a
//                   comment saying which thread owns it).
//   protocoverage   Every proto:: message kind (a struct with a kType
//                   member in src/proto/messages.h) must have an
//                   encode/decode round-trip test under tests/.
//   determinism     The simulator's claim to validity is bit-identical
//                   replay: the same config must produce the same tables
//                   and figures on every run and every machine. Wall-clock
//                   time, ambient randomness or hash iteration order
//                   leaking into src/sim breaks that, and a heap
//                   allocation creeping into a hot path costs every cycle.
//                   The rules (kRules) apply to src/, bench/, apps/ and
//                   examples/, each scoped by the path components below
//                   the root.
//
// Markers are comments whose text *starts* with `sdscheck:`. Prose that
// merely quotes one (a doc header, a fixture description) is not a marker.
//
//   // sdscheck: allow(rule,...)   suppress these rules on this line (or,
//                                  when the comment stands alone, on the
//                                  next code line)
//   // sdscheck: hotpath           open a hot-path region (alias
//                                  hotpath-begin)
//   // sdscheck: end-hotpath       close the innermost region (alias
//                                  hotpath-end)
//
// For example:
//
//   Mutex mu_;                        // sdscheck: allow(lock-rank)
//   std::unordered_map<...> conns_;   // sdscheck: allow(unguarded-field)
//
// Regions nest. An end without a begin, or a region still open at end of
// file, is an `unbalanced-directive` error that no marker suppresses.
//
// Every pass reads a file through one lexer that splits each line into
// code and comment and blanks string and char literals. This is a
// token/line-level analyzer, not a compiler plugin: it errs toward
// simplicity and explainability. What it cannot resolve statically
// (mutexes reached through `.`/`->`, multi-line declarations and `for`
// headers, raw strings spanning lines) is skipped, not guessed at: the
// runtime LockOrderValidator (common/lock_rank.h) backstops the lock
// passes, and code review the rest.
//
// Usage:
//   sdscheck [--pass=NAME]... [--config=tools/layering.toml] <repo-root>
//
// With no --pass flags all five passes run. Exit codes: 0 clean,
// 1 findings, 2 usage/configuration error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* pass;
  const char* name;
  const char* scope;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"layering", "layering", "src",
     "include of a module that is not strictly lower-ranked, or of a banned "
     "module (directly or transitively)"},
    {"lockgraph", "lock-rank", "src",
     "mutex without a LockRank stamp, or with an undeclared rank"},
    {"lockgraph", "lock-order", "src",
     "nested acquisition whose rank does not strictly increase"},
    {"lockgraph", "lock-cycle", "src", "cycle in the lock acquisition graph"},
    {"annotations", "unguarded-field", "src",
     "mutable field of a mutex-owning class without SDS_GUARDED_BY"},
    {"protocoverage", "proto-coverage", "src/proto, tests",
     "proto message kind without an encode/decode round-trip test"},
    {"determinism", "sim-wallclock", "sim",
     "wall-clock time source in simulation code"},
    {"determinism", "sim-rand", "sim", "ambient randomness in simulation code"},
    {"determinism", "sim-sleep", "sim", "real-time sleep in simulation code"},
    {"determinism", "sim-thread", "sim", "thread spawn in simulation code"},
    {"determinism", "unordered-iter", "sim, bench",
     "iteration over an unordered container (hash order leaks into output)"},
    {"determinism", "hotpath-alloc", "hotpath regions",
     "heap allocation, std::function, heap-string formatting, or by-value "
     "container declaration in a hot-path region"},
    {"determinism", "fault-wallclock", "fault",
     "wall-clock time source in fault-plan code"},
    {"determinism", "fault-rand", "fault",
     "unseeded randomness in fault-plan code"},
    {"determinism", "span-wallclock", "sim, bench",
     "wall-clock read stamping a trace span (span times must come from the "
     "virtual clock)"},
    {"determinism", "unbalanced-directive", "all",
     "region directive without a matching begin, or a region left open at "
     "end of file"},
};

// ---------------------------------------------------------------------------
// Lexer, marker parser and file walk, shared by every pass.
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Split one physical line into code text and comment text, carrying
/// block-comment state across lines. String and char literals are
/// replaced by a single space in the code text so their contents can
/// never produce token matches (and adjacent tokens never merge).
void split_line(const std::string& line, bool& in_block_comment,
                std::string& code, std::string& comment) {
  code.clear();
  comment.clear();
  bool in_string = false;
  bool in_char = false;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_block_comment) {
      if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        in_block_comment = false;
        i += 2;
        continue;
      }
      comment.push_back(c);
      ++i;
      continue;
    }
    if (in_string || in_char) {
      if (c == '\\' && i + 1 < line.size()) {
        i += 2;
        continue;
      }
      if ((in_string && c == '"') || (in_char && c == '\'')) {
        in_string = in_char = false;
      }
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      comment.append(line, i + 2, std::string::npos);
      break;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block_comment = true;
      i += 2;
      continue;
    }
    if (c == '"') {
      in_string = true;
      code.push_back(' ');
      ++i;
      continue;
    }
    if (c == '\'') {
      // Digit separators (1'000'000) are not character literals.
      if (!code.empty() && is_ident_char(code.back()) && i + 1 < line.size() &&
          std::isalnum(static_cast<unsigned char>(line[i + 1])) != 0) {
        ++i;
        continue;
      }
      in_char = true;
      code.push_back(' ');
      ++i;
      continue;
    }
    code.push_back(c);
    ++i;
  }
  // Unterminated string/char literals do not span lines in valid C++;
  // state intentionally resets with the line.
}

/// Position of `word` as a whole identifier in `code` at or after `from`;
/// npos otherwise.
[[nodiscard]] std::size_t find_word(const std::string& code,
                                    const std::string& word,
                                    std::size_t from = 0) {
  std::size_t pos = from;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= code.size() || !is_ident_char(code[end]);
    if (left_ok && right_ok) return pos;
    pos = end;
  }
  return std::string::npos;
}

[[nodiscard]] std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

[[nodiscard]] std::size_t skip_spaces(const std::string& s, std::size_t pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Reads the identifier starting at `pos` (empty if none).
[[nodiscard]] std::string read_ident(const std::string& s, std::size_t pos) {
  std::size_t end = pos;
  while (end < s.size() && is_ident_char(s[end])) ++end;
  if (end == pos || std::isdigit(static_cast<unsigned char>(s[pos])) != 0) {
    return {};
  }
  return s.substr(pos, end - pos);
}

/// The non-empty, trimmed items of a comma-separated list.
[[nodiscard]] std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = std::min(list.find(',', start), list.size());
    std::string item = trim(list.substr(start, comma - start));
    if (!item.empty()) items.push_back(std::move(item));
    start = comma + 1;
  }
  return items;
}

/// One source line, lexed.
struct Line {
  std::string raw;
  std::string code;
  bool hotpath_begin = false;
  bool hotpath_end = false;
  /// Rules allowed on this line: its own marker's, plus those of the
  /// standalone marker comments just above it.
  std::set<std::string> allowed;
};

/// Reads the marker `comment` starts with into `line`. The directive is
/// read as one whole word, so `hotpath-end` never opens a region through
/// its `hotpath` prefix.
void parse_marker(const std::string& comment, Line& line) {
  std::size_t i = skip_spaces(comment, 0);
  if (comment.compare(i, 9, "sdscheck:") != 0) return;
  i = skip_spaces(comment, i + 9);
  std::size_t end = i;
  while (end < comment.size() &&
         (is_ident_char(comment[end]) || comment[end] == '-')) {
    ++end;
  }
  const std::string word = comment.substr(i, end - i);
  if (word == "hotpath" || word == "hotpath-begin") {
    line.hotpath_begin = true;
  } else if (word == "end-hotpath" || word == "hotpath-end") {
    line.hotpath_end = true;
  } else if (word == "allow" && end < comment.size() && comment[end] == '(') {
    const std::size_t close = std::min(comment.find(')', end), comment.size());
    for (std::string& rule : split_list(comment.substr(end + 1, close - end - 1))) {
      line.allowed.insert(std::move(rule));
    }
  }
}

[[nodiscard]] std::vector<Line> lex_file(const fs::path& path) {
  std::ifstream in(path);
  std::vector<Line> lines;
  bool in_block_comment = false;
  std::set<std::string> pending;  // from standalone comment lines
  std::string raw;
  std::string comment;
  while (std::getline(in, raw)) {
    Line line;
    split_line(raw, in_block_comment, line.code, comment);
    parse_marker(comment, line);
    if (trim(line.code).empty()) {
      pending.insert(line.allowed.begin(), line.allowed.end());
    } else {
      line.allowed.insert(pending.begin(), pending.end());
      pending.clear();
    }
    line.raw = std::move(raw);
    lines.push_back(std::move(line));
  }
  return lines;
}

/// Source files under `dir`, sorted for deterministic diagnostics.
[[nodiscard]] std::vector<fs::path> collect_sources(const fs::path& dir) {
  std::vector<fs::path> out;
  if (!fs::exists(dir)) return out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" ||
        ext == ".cxx") {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Pass 1: layering.
// ---------------------------------------------------------------------------

struct LayeringConfig {
  std::map<std::string, int> ranks;
  /// module -> modules it must never include, even transitively.
  std::map<std::string, std::set<std::string>> banned;
  /// (src-relative file, included module) pairs excused by the config.
  std::set<std::pair<std::string, std::string>> allow;
};

/// Minimal TOML subset: [section] headers, `key = value` lines, `#`
/// comments. Values are integers ([ranks]) or quoted strings.
[[nodiscard]] bool load_layering_config(const fs::path& path,
                                        LayeringConfig& config,
                                        std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path.string();
    return false;
  }
  std::string section;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[' && line.back() == ']') {
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      error = path.string() + ":" + std::to_string(lineno) +
              ": expected `key = value`";
      return false;
    }
    std::string key = trim(line.substr(0, eq));
    std::string value = trim(line.substr(eq + 1));
    if (key.size() >= 2 && key.front() == '"' && key.back() == '"') {
      key = key.substr(1, key.size() - 2);
    }
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    if (section == "ranks") {
      config.ranks[key] = std::atoi(value.c_str());
    } else if (section == "banned") {
      for (std::string& target : split_list(value)) {
        config.banned[key].insert(std::move(target));
      }
    } else if (section == "allow") {
      config.allow.emplace(key, value);
    } else {
      error = path.string() + ":" + std::to_string(lineno) +
              ": unknown section [" + section + "]";
      return false;
    }
  }
  if (config.ranks.empty()) {
    error = path.string() + ": [ranks] section is empty";
    return false;
  }
  return true;
}

/// First path component ("" for files directly under src/).
[[nodiscard]] std::string module_of(const std::string& rel) {
  const std::size_t slash = rel.find('/');
  return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

/// Quoted `#include "..."` targets, parsed from the raw line (split_line
/// blanks string contents, which is exactly the part we need here).
[[nodiscard]] std::optional<std::string> parse_include(
    const std::string& raw) {
  std::size_t pos = skip_spaces(raw, 0);
  if (pos >= raw.size() || raw[pos] != '#') return std::nullopt;
  pos = skip_spaces(raw, pos + 1);
  if (raw.compare(pos, 7, "include") != 0) return std::nullopt;
  pos = skip_spaces(raw, pos + 7);
  if (pos >= raw.size() || raw[pos] != '"') return std::nullopt;
  const std::size_t end = raw.find('"', pos + 1);
  if (end == std::string::npos) return std::nullopt;
  return raw.substr(pos + 1, end - pos - 1);
}

void run_layering(const fs::path& root, const LayeringConfig& config,
                  std::vector<Finding>& findings) {
  const fs::path src = root / "src";
  // file (src-relative) -> quoted includes that resolve inside src/.
  std::map<std::string, std::vector<std::pair<std::string, int>>> includes;
  for (const fs::path& path : collect_sources(src)) {
    const std::string rel = fs::relative(path, src).generic_string();
    const std::string mod = module_of(rel);
    const std::vector<Line> lines = lex_file(path);
    auto& edges = includes[rel];
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto inc = parse_include(lines[i].raw);
      if (!inc) continue;
      edges.emplace_back(*inc, static_cast<int>(i + 1));
      const std::string inc_mod = module_of(*inc);
      if (inc_mod.empty()) continue;  // same-directory or umbrella include
      if (mod.empty()) continue;      // files directly under src/ are exempt
      if (config.allow.count({rel, inc_mod}) != 0) continue;
      const auto from_rank = config.ranks.find(mod);
      const auto to_rank = config.ranks.find(inc_mod);
      if (from_rank == config.ranks.end()) {
        findings.push_back({path.string(), static_cast<int>(i + 1),
                            "layering",
                            "module '" + mod +
                                "' is not declared in [ranks] of "
                                "tools/layering.toml"});
        continue;
      }
      if (to_rank == config.ranks.end()) {
        findings.push_back({path.string(), static_cast<int>(i + 1),
                            "layering",
                            "included module '" + inc_mod +
                                "' is not declared in [ranks] of "
                                "tools/layering.toml"});
        continue;
      }
      const auto banned = config.banned.find(mod);
      const bool is_banned =
          banned != config.banned.end() && banned->second.count(inc_mod) != 0;
      if (is_banned) {
        findings.push_back(
            {path.string(), static_cast<int>(i + 1), "layering",
             "module '" + mod + "' must not include '" + inc_mod +
                 "' (banned pair in tools/layering.toml)"});
        continue;
      }
      if (inc_mod != mod && to_rank->second >= from_rank->second) {
        findings.push_back(
            {path.string(), static_cast<int>(i + 1), "layering",
             "module '" + mod + "' (rank " +
                 std::to_string(from_rank->second) + ") may not include '" +
                 inc_mod + "' (rank " + std::to_string(to_rank->second) +
                 "); only strictly lower layers are visible "
                 "(tools/layering.toml)"});
      }
    }
  }

  // Banned pairs hold transitively: sim must not reach transport even
  // through an intermediate module whose direct edges are all legal
  // (fault sits below sim and above transport, so sim -> fault ->
  // transport would otherwise smuggle the dependency in).
  for (const auto& [mod, targets] : config.banned) {
    for (const auto& [rel, _] : includes) {
      if (module_of(rel) != mod) continue;
      // BFS over the file-level include closure, remembering parents so
      // the diagnostic can print the chain.
      std::map<std::string, std::string> parent;
      std::deque<std::string> queue;
      parent[rel] = "";
      queue.push_back(rel);
      while (!queue.empty()) {
        const std::string cur = queue.front();
        queue.pop_front();
        const auto it = includes.find(cur);
        if (it == includes.end()) continue;
        for (const auto& [inc, line] : it->second) {
          if (includes.count(inc) == 0) continue;  // not a src/ file
          if (parent.count(inc) != 0) continue;
          parent[inc] = cur;
          const std::string inc_mod = module_of(inc);
          if (targets.count(inc_mod) != 0) {
            // Direct banned includes are reported by the per-include
            // check above; the closure only reports smuggled routes.
            if (cur == rel) continue;
            std::string chain = inc;
            std::string first_hop = cur;
            for (std::string hop = cur; !hop.empty(); hop = parent[hop]) {
              chain = hop + " -> " + chain;
              if (!parent[hop].empty()) first_hop = hop;
            }
            int hop_line = 1;
            for (const auto& [target, l] : includes[rel]) {
              if (target == first_hop) hop_line = l;
            }
            findings.push_back(
                {(root / "src" / rel).string(), hop_line, "layering",
                 "module '" + mod + "' reaches banned module '" + inc_mod +
                     "' transitively: " + chain});
          } else {
            queue.push_back(inc);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared scanner for the lockgraph and annotations passes.
// ---------------------------------------------------------------------------

struct MutexDecl {
  std::string file;
  int line = 0;
  std::string class_name;  // innermost class, "" for locals/file scope
  std::string name;
  std::string rank;  // "kFoo", "" when unranked
  bool allowed_unranked = false;
  std::vector<std::string> acquired_after;  // raw mutex names
};

struct LockEdge {
  std::string file;
  int line = 0;
  std::string from;  // raw mutex name at the acquisition site
  std::string to;
};

struct FileScan {
  std::vector<MutexDecl> mutexes;
  std::vector<LockEdge> edges;
};

struct ClassFrame {
  std::string name;
  int body_depth = 0;
  bool has_mutex = false;
};

struct HeldLock {
  int decl_depth = 0;
  std::string name;
};

/// One forward scan of `lines` extracting mutex declarations, nested
/// MutexLock acquisition edges, and unguarded-field findings. The class
/// stack and brace depth are tracked character-accurately over the
/// comment-stripped code.
void scan_concurrency(const std::string& display_path,
                      const std::vector<Line>& lines,
                      bool check_annotations, FileScan& scan,
                      std::vector<Finding>& findings) {
  int depth = 0;
  std::vector<ClassFrame> classes;
  std::vector<HeldLock> held;

  // class/struct parsing state.
  bool pending_struct = false;
  bool collecting_name = true;
  bool skip_next_struct = false;  // set by a preceding `enum`
  std::string candidate;

  // Member-statement accumulation for the annotations pass.
  std::string stmt;
  int stmt_line = 0;
  bool stmt_allow = false;
  bool after_close = false;  // just returned to member depth from a brace

  auto innermost = [&]() -> ClassFrame* {
    return classes.empty() ? nullptr : &classes.back();
  };

  auto flush_stmt = [&](bool allow_field) {
    std::string body = trim(stmt);
    stmt.clear();
    ClassFrame* frame = innermost();
    if (!check_annotations || frame == nullptr || body.empty()) return;
    for (const char* spec : {"public:", "private:", "protected:"}) {
      const std::size_t pos = body.find(spec);
      if (pos != std::string::npos) {
        body = trim(body.substr(pos + std::strlen(spec)));
      }
    }
    if (body.empty()) return;
    if (!frame->has_mutex) return;  // fields above the mutex: not checked
    if (allow_field) return;
    // Skip everything that is not a mutable data member.
    static const char* kSkipPrefixes[] = {
        "using ",    "typedef ", "friend ",   "static ",  "enum ",
        "class ",    "struct ",  "template ", "explicit ", "virtual ",
        "operator",  "return ",  "const ",    "constexpr ", "~",
        "SDS_",      "#"};
    for (const char* prefix : kSkipPrefixes) {
      if (body.rfind(prefix, 0) == 0) return;
    }
    if (body.find("SDS_GUARDED_BY") != std::string::npos ||
        body.find("SDS_PT_GUARDED_BY") != std::string::npos) {
      return;
    }
    // A '(' without a guard annotation is a method/functor declaration —
    // skipped, documented as permissive.
    if (body.find('(') != std::string::npos) return;
    // Inherently-synchronized or immutable-by-idiom types.
    static const char* kExemptTypes[] = {
        "Mutex",       "CondVar",     "Queue<",        "std::thread",
        "std::atomic", "WaitGroup",   "CounterBlock",  "ThreadPool",
        "std::condition_variable",    "telemetry::"};
    for (const char* exempt : kExemptTypes) {
      if (body.find(exempt) != std::string::npos) return;
    }
    // Member name: last identifier before the initializer (if any).
    std::size_t end = body.size();
    for (const char stop : {'=', '{', ';'}) {
      const std::size_t pos = body.find(stop);
      if (pos != std::string::npos && pos < end) end = pos;
    }
    std::string head = trim(body.substr(0, end));
    std::size_t name_end = head.size();
    while (name_end > 0 && !is_ident_char(head[name_end - 1])) --name_end;
    std::size_t name_begin = name_end;
    while (name_begin > 0 && is_ident_char(head[name_begin - 1])) {
      --name_begin;
    }
    const std::string name = head.substr(name_begin, name_end - name_begin);
    if (name.empty() || name_begin == 0) return;  // no `type name` shape
    findings.push_back(
        {display_path, stmt_line, "unguarded-field",
         "field '" + frame->name + "::" + name +
             "' is mutable state in a mutex-owning class but has no "
             "SDS_GUARDED_BY annotation (mark the owning thread with "
             "`// sdscheck: allow(unguarded-field)` if it is "
             "single-threaded by design)"});
  };

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int lineno = static_cast<int>(i + 1);
    const std::string& code = lines[i].code;
    const bool line_allow_rank = lines[i].allowed.count("lock-rank") != 0;
    const bool line_allow_field =
        lines[i].allowed.count("unguarded-field") != 0;
    if (line_allow_field) stmt_allow = true;

    // Mutex declarations are single-line in practice; parses the rest of
    // the line from the `Mutex` token. Called from the character walk so
    // the brace depth and class stack are current at the token.
    auto parse_mutex_decl = [&](std::size_t token_end) {
      std::size_t cursor = skip_spaces(code, token_end);
      const std::string name = read_ident(code, cursor);
      if (name.empty()) return;
      cursor = skip_spaces(code, cursor + name.size());
      // `Mutex foo(...)` is a constructor/function, not a declaration.
      if (cursor < code.size() && code[cursor] == '(') return;
      MutexDecl decl;
      decl.file = display_path;
      decl.line = lineno;
      decl.name = name;
      ClassFrame* frame = innermost();
      if (frame != nullptr && depth == frame->body_depth) {
        // Only direct members belong to the class; deeper declarations
        // are function locals inside an inline method.
        decl.class_name = frame->name;
        frame->has_mutex = true;
      }
      const std::size_t rank_pos = code.find("LockRank::", cursor);
      if (rank_pos != std::string::npos) {
        decl.rank = read_ident(code, rank_pos + 10);
      }
      decl.allowed_unranked = line_allow_rank;
      const std::size_t after_pos = code.find("SDS_ACQUIRED_AFTER(", cursor);
      if (after_pos != std::string::npos) {
        const std::size_t open = after_pos + 19;
        const std::size_t close_pos = code.find(')', open);
        if (close_pos != std::string::npos) {
          decl.acquired_after = split_list(code.substr(open, close_pos - open));
        }
      }
      scan.mutexes.push_back(std::move(decl));
    };

    // MutexLock acquisitions: record an edge from every lock still held
    // in an enclosing scope to the newly acquired one. Also called from
    // the character walk, so `depth` is the acquisition's scope depth.
    auto parse_mutex_lock = [&](std::size_t token_end) {
      std::size_t cursor = skip_spaces(code, token_end);
      const std::string var = read_ident(code, cursor);
      if (var.empty()) return;
      cursor = skip_spaces(code, cursor + var.size());
      if (cursor >= code.size() ||
          (code[cursor] != '(' && code[cursor] != '{')) {
        return;
      }
      const char close = code[cursor] == '(' ? ')' : '}';
      const std::size_t end = code.find(close, cursor + 1);
      if (end == std::string::npos) return;
      std::string arg = code.substr(cursor + 1, end - cursor - 1);
      const std::size_t comma = arg.find(',');
      if (comma != std::string::npos) arg = arg.substr(0, comma);
      arg = trim(arg);
      // Member access through another object cannot be resolved at the
      // token level; the runtime validator covers those sites.
      const bool resolvable = !arg.empty() &&
                              arg.find('.') == std::string::npos &&
                              arg.find("->") == std::string::npos &&
                              arg.find('[') == std::string::npos &&
                              arg.find('(') == std::string::npos;
      if (!resolvable) arg.clear();
      for (const HeldLock& outer : held) {
        if (!outer.name.empty() && !arg.empty() && outer.name != arg) {
          scan.edges.push_back({display_path, lineno, outer.name, arg});
        }
      }
      held.push_back({depth, arg});
    };

    // Character walk: brace depth, class stack, statement accumulation.
    for (std::size_t c = 0; c < code.size(); ++c) {
      const char ch = code[c];
      ClassFrame* frame = innermost();
      const bool at_member_depth =
          frame != nullptr && depth == frame->body_depth;

      if (pending_struct) {
        if (is_ident_char(ch)) {
          if (collecting_name) {
            const std::string ident = read_ident(code, c);
            if (!ident.empty()) {
              // `class X final : ...` is still class X.
              if (ident != "final") candidate = ident;
              c += ident.size() - 1;
              continue;
            }
          }
        } else if (ch == '(') {
          // Attribute macro (SDS_CAPABILITY(...)): its argument is not
          // the class name. Skip to the matching ')'.
          int parens = 1;
          std::size_t j = c + 1;
          while (j < code.size() && parens > 0) {
            if (code[j] == '(') ++parens;
            if (code[j] == ')') --parens;
            ++j;
          }
          candidate.clear();
          c = j - 1;
          continue;
        } else if (ch == ':') {
          collecting_name = false;
          continue;
        } else if (ch == '<' || ch == '>' || ch == ',' || ch == ';') {
          // Template parameter list or forward declaration.
          pending_struct = false;
          collecting_name = true;
        } else if (ch == '{') {
          ++depth;
          classes.push_back(
              {candidate.empty() ? "<anonymous>" : candidate, depth, false});
          pending_struct = false;
          collecting_name = true;
          stmt.clear();
          continue;
        }
      }

      if (is_ident_char(ch)) {
        const std::string ident = read_ident(code, c);
        if (ident == "enum") {
          skip_next_struct = true;
        } else if (ident == "class" || ident == "struct" ||
                   ident == "union") {
          if (skip_next_struct) {
            skip_next_struct = false;
          } else {
            pending_struct = true;
            collecting_name = true;
            candidate.clear();
          }
          if (at_member_depth) {
            stmt += ident;
            stmt += ' ';
          }
          if (!ident.empty()) c += ident.size() - 1;
          continue;
        } else if (ident == "Mutex") {
          parse_mutex_decl(c + ident.size());
        } else if (ident == "MutexLock") {
          parse_mutex_lock(c + ident.size());
        } else if (!ident.empty() && ident != "enum") {
          skip_next_struct = skip_next_struct && ident == "class";
        }
        if (at_member_depth) {
          if (after_close) {
            stmt.clear();
            after_close = false;
          }
          if (stmt.empty()) {
            stmt_line = lineno;
            stmt_allow = line_allow_field;
          }
          stmt += ident;
        }
        if (!ident.empty()) c += ident.size() - 1;
        continue;
      }

      switch (ch) {
        case '{':
          ++depth;
          break;
        case '}': {
          --depth;
          while (!held.empty() && held.back().decl_depth > depth) {
            held.pop_back();
          }
          ClassFrame* top = innermost();
          if (top != nullptr && depth < top->body_depth) {
            classes.pop_back();
            stmt.clear();
            after_close = false;
          } else if (top != nullptr && depth == top->body_depth) {
            // Either a brace initializer (a `;` follows — keep the
            // statement) or an inline method body (discard).
            after_close = true;
          }
          break;
        }
        case ';':
          if (at_member_depth) {
            after_close = false;
            flush_stmt(stmt_allow || line_allow_field);
            stmt_allow = false;
          }
          break;
        default:
          if (at_member_depth && !std::isspace(static_cast<unsigned char>(ch))) {
            if (after_close) {
              stmt.clear();
              after_close = false;
            }
            if (stmt.empty()) {
              stmt_line = lineno;
              stmt_allow = line_allow_field;
            }
          }
          if (at_member_depth && !stmt.empty()) stmt += ch;
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 2: lockgraph.
// ---------------------------------------------------------------------------

/// LockRank values parsed from src/common/lock_rank.h (`kFoo = N,`).
[[nodiscard]] std::map<std::string, int> load_rank_values(
    const fs::path& root) {
  std::map<std::string, int> values;
  const fs::path header = root / "src" / "common" / "lock_rank.h";
  if (!fs::exists(header)) return values;
  bool in_enum = false;
  for (const Line& line : lex_file(header)) {
    const std::string& code = line.code;
    if (code.find("enum class LockRank") != std::string::npos) {
      in_enum = true;
      continue;
    }
    if (!in_enum) continue;
    if (code.find("};") != std::string::npos) break;
    const std::size_t k = code.find('k');
    const std::size_t eq = code.find('=');
    if (k == std::string::npos || eq == std::string::npos || eq < k) continue;
    const std::string name = trim(code.substr(k, eq - k));
    const std::string value = trim(code.substr(eq + 1));
    if (!name.empty() && name[0] == 'k') {
      values[name] = std::atoi(value.c_str());
    }
  }
  return values;
}

void run_lockgraph(const fs::path& root, std::vector<Finding>& findings) {
  const std::map<std::string, int> rank_values = load_rank_values(root);

  struct GraphEdge {
    std::string file;
    int line = 0;
  };
  // node ("Class::member" or "file-scope member") -> successor -> site.
  std::map<std::string, std::map<std::string, GraphEdge>> graph;
  std::map<std::string, const MutexDecl*> nodes;
  std::vector<FileScan> scans;
  std::vector<Finding> sink;  // annotation findings are not this pass's job

  const std::vector<fs::path> sources = collect_sources(root / "src");
  scans.reserve(sources.size());
  for (const fs::path& path : sources) {
    FileScan scan;
    scan_concurrency(path.string(), lex_file(path), false, scan, sink);
    scans.push_back(std::move(scan));
  }

  std::vector<MutexDecl> all_decls;
  for (const FileScan& scan : scans) {
    for (const MutexDecl& decl : scan.mutexes) {
      all_decls.push_back(decl);
    }
  }

  auto node_id = [](const MutexDecl& decl) {
    if (!decl.class_name.empty()) return decl.class_name + "::" + decl.name;
    return fs::path(decl.file).filename().string() + "::" + decl.name;
  };
  auto rank_of = [&](const MutexDecl& decl) -> std::optional<int> {
    if (decl.rank.empty()) return std::nullopt;
    const auto it = rank_values.find(decl.rank);
    if (it == rank_values.end()) return std::nullopt;
    return it->second;
  };

  for (const MutexDecl& decl : all_decls) {
    nodes.emplace(node_id(decl), &decl);
    if (decl.rank.empty() && !decl.allowed_unranked) {
      findings.push_back(
          {decl.file, decl.line, "lock-rank",
           "mutex '" + node_id(decl) +
               "' has no LockRank; stamp it at the declaration "
               "(`Mutex mu_{LockRank::k...};`, see common/lock_rank.h) or "
               "mark it `// sdscheck: allow(lock-rank)`"});
    } else if (!decl.rank.empty() && !rank_values.empty() &&
               rank_values.count(decl.rank) == 0) {
      findings.push_back({decl.file, decl.line, "lock-rank",
                          "mutex '" + node_id(decl) + "' names LockRank::" +
                              decl.rank +
                              ", which is not declared in "
                              "common/lock_rank.h"});
    }
  }

  // Per-file name resolution: a raw mutex name resolves only when the
  // file declares exactly one mutex with that name.
  for (const FileScan& scan : scans) {
    std::map<std::string, const MutexDecl*> by_name;
    std::set<std::string> ambiguous;
    for (const MutexDecl& decl : scan.mutexes) {
      if (!by_name.emplace(decl.name, &decl).second) {
        ambiguous.insert(decl.name);
      }
    }
    auto resolve = [&](const std::string& name) -> const MutexDecl* {
      if (ambiguous.count(name) != 0) return nullptr;
      const auto it = by_name.find(name);
      return it == by_name.end() ? nullptr : it->second;
    };
    auto add_edge = [&](const MutexDecl& from, const MutexDecl& to,
                        const std::string& file, int line) {
      const std::string from_id = node_id(from);
      const std::string to_id = node_id(to);
      if (from_id == to_id) return;
      graph[from_id].emplace(to_id, GraphEdge{file, line});
      const auto fr = rank_of(from);
      const auto tr = rank_of(to);
      if (fr && tr && *tr <= *fr) {
        findings.push_back(
            {file, line, "lock-order",
             "acquires '" + to_id + "' (LockRank::" + to.rank + " = " +
                 std::to_string(*tr) + ") while holding '" + from_id +
                 "' (LockRank::" + from.rank + " = " + std::to_string(*fr) +
                 "); acquisition ranks must be strictly increasing "
                 "(see common/lock_rank.h)"});
      }
    };
    for (const LockEdge& edge : scan.edges) {
      const MutexDecl* from = resolve(edge.from);
      const MutexDecl* to = resolve(edge.to);
      if (from == nullptr || to == nullptr) continue;
      add_edge(*from, *to, edge.file, edge.line);
    }
    for (const MutexDecl& decl : scan.mutexes) {
      for (const std::string& before : decl.acquired_after) {
        const MutexDecl* from = resolve(before);
        if (from == nullptr) continue;
        add_edge(*from, decl, decl.file, decl.line);
      }
    }
  }

  // Cycle detection (iterative DFS, colors). Each cycle is reported once,
  // anchored at the declaration of its lexically-first node.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    stack.push_back(node);
    for (const auto& [next, site] : graph[node]) {
      if (color[next] == 1) {
        // Found a back edge: the cycle is stack[from next .. end] + next.
        auto begin =
            std::find(stack.begin(), stack.end(), next);
        std::vector<std::string> cycle(begin, stack.end());
        cycle.push_back(next);
        // Canonical key so the same cycle is not reported from every
        // entry point.
        std::vector<std::string> sorted(cycle.begin(), cycle.end() - 1);
        std::sort(sorted.begin(), sorted.end());
        std::string key;
        for (const std::string& n : sorted) key += n + "|";
        if (reported.insert(key).second) {
          std::string path;
          for (const std::string& n : cycle) {
            if (!path.empty()) path += " -> ";
            path += n;
          }
          const auto anchor = nodes.find(sorted.front());
          const std::string file =
              anchor != nodes.end() ? anchor->second->file : site.file;
          const int line =
              anchor != nodes.end() ? anchor->second->line : site.line;
          findings.push_back(
              {file, line, "lock-cycle",
               "lock-graph cycle: " + path +
                   " (an execution interleaving these acquisitions "
                   "deadlocks; break the cycle or restructure to "
                   "copy-then-call-out)"});
        }
      } else if (color[next] == 0) {
        dfs(next);
      }
    }
    stack.pop_back();
    color[node] = 2;
  };
  for (const auto& [node, _] : graph) {
    if (color[node] == 0) dfs(node);
  }
}

// ---------------------------------------------------------------------------
// Pass 3: annotations.
// ---------------------------------------------------------------------------

void run_annotations(const fs::path& root, std::vector<Finding>& findings) {
  for (const fs::path& path : collect_sources(root / "src")) {
    FileScan scan;
    scan_concurrency(path.string(), lex_file(path), true, scan, findings);
  }
}

// ---------------------------------------------------------------------------
// Pass 4: protocoverage.
// ---------------------------------------------------------------------------

void run_protocoverage(const fs::path& root, std::vector<Finding>& findings) {
  const fs::path messages = root / "src" / "proto" / "messages.h";
  if (!fs::exists(messages)) return;  // fixture roots without a proto layer

  struct Message {
    std::string struct_name;
    std::string kind;  // enumerator, e.g. "kError"
    int line = 0;
  };
  std::vector<Message> kinds;
  {
    std::string current_struct;
    const std::vector<Line> lines = lex_file(messages);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      const std::size_t struct_pos = find_word(code, "struct");
      if (struct_pos != std::string::npos) {
        const std::string name =
            read_ident(code, skip_spaces(code, struct_pos + 6));
        if (!name.empty()) current_struct = name;
      }
      const std::size_t ktype = code.find("MessageType kType");
      if (ktype == std::string::npos || current_struct.empty()) continue;
      const std::size_t value_pos = code.find("MessageType::", ktype);
      if (value_pos == std::string::npos) continue;
      const std::string kind = read_ident(code, value_pos + 13);
      if (kind.empty()) continue;
      kinds.push_back({current_struct, kind, static_cast<int>(i + 1)});
    }
  }

  // A message kind counts as round-trip covered when some test file
  // decodes it (`from_frame<Name>`) and also encodes (`to_frame`).
  std::set<std::string> covered;
  for (const fs::path& path : collect_sources(root / "tests")) {
    bool encodes = false;
    std::set<std::string> decoded;
    for (const Line& line : lex_file(path)) {
      const std::string& code = line.code;
      if (find_word(code, "to_frame") != std::string::npos) encodes = true;
      std::size_t pos = 0;
      while ((pos = code.find("from_frame<", pos)) != std::string::npos) {
        pos += 11;
        std::string name = read_ident(code, skip_spaces(code, pos));
        // Strip a namespace qualifier (from_frame<proto::Foo>).
        std::size_t cursor = skip_spaces(code, pos) + name.size();
        while (cursor + 1 < code.size() && code[cursor] == ':' &&
               code[cursor + 1] == ':') {
          name = read_ident(code, cursor + 2);
          cursor += 2 + name.size();
        }
        if (!name.empty()) decoded.insert(name);
      }
    }
    if (encodes) {
      covered.insert(decoded.begin(), decoded.end());
    }
  }

  for (const Message& msg : kinds) {
    if (covered.count(msg.struct_name) != 0) continue;
    findings.push_back(
        {messages.string(), msg.line, "proto-coverage",
         "proto::" + msg.struct_name + " (MessageType::" + msg.kind +
             ") has no encode/decode round-trip test under tests/ "
             "(expected a test calling to_frame and from_frame<" +
             msg.struct_name + ">)"});
  }
}

// ---------------------------------------------------------------------------
// Pass 5: determinism.
// ---------------------------------------------------------------------------

/// Directories the determinism pass scans under the repo root.
constexpr const char* kDeterminismDirs[] = {"src", "bench", "apps", "examples"};

/// First non-space character at or after `pos` ('\0' at end of line).
[[nodiscard]] char next_char(const std::string& code, std::size_t pos) {
  while (pos < code.size() && code[pos] == ' ') ++pos;
  return pos < code.size() ? code[pos] : '\0';
}

/// True when `fn` occurs as a whole identifier followed by '('.
[[nodiscard]] bool has_call(const std::string& code, const std::string& fn) {
  for (std::size_t pos = find_word(code, fn); pos != std::string::npos;
       pos = find_word(code, fn, pos + fn.size())) {
    if (next_char(code, pos + fn.size()) == '(') return true;
  }
  return false;
}

/// True when `word` occurs at an identifier boundary, immediately preceded
/// by a `std::` (or any `::`) qualifier.
[[nodiscard]] bool has_qualified_word(const std::string& code,
                                      const std::string& word) {
  std::size_t pos = 0;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const std::size_t end = pos + word.size();
    const bool qualified = pos >= 2 && code[pos - 1] == ':' && code[pos - 2] == ':';
    const bool right_ok = end >= code.size() || !is_ident_char(code[end]);
    if (qualified && right_ok) return true;
    pos = end;
  }
  return false;
}

/// Wall-clock reads on this line, `time()` last. `conversions` adds the
/// calendar conversions (localtime, gmtime), which the sim and fault
/// rules ban but the span rule does not.
[[nodiscard]] std::vector<std::string> wallclock_reads(const std::string& code,
                                                       bool conversions) {
  std::vector<std::string> reads;
  for (const char* clock : {"system_clock", "steady_clock",
                            "high_resolution_clock", "gettimeofday",
                            "clock_gettime"}) {
    if (find_word(code, clock) != std::string::npos) reads.emplace_back(clock);
  }
  for (const char* fn : {"localtime", "localtime_r", "gmtime"}) {
    if (conversions && find_word(code, fn) != std::string::npos) {
      reads.emplace_back(fn);
    }
  }
  if (has_call(code, "time")) reads.emplace_back("time()");
  return reads;
}

/// Ambient randomness on this line.
[[nodiscard]] std::vector<std::string> ambient_rand(const std::string& code) {
  std::vector<std::string> hits;
  for (const char* fn : {"rand", "srand", "rand_r", "random_device"}) {
    if (find_word(code, fn) != std::string::npos) hits.emplace_back(fn);
  }
  return hits;
}

/// Record variable names declared with std::unordered_* types on this
/// line: after the template argument list closes, the next identifier is
/// taken as the declared name (skipping `&`, `*`, and spaces). Names
/// followed by '(' are function declarations and are ignored. Multi-line
/// declarations fall outside this heuristic.
void collect_unordered_names(const std::string& code,
                             std::set<std::string>& names) {
  std::size_t pos = 0;
  while ((pos = code.find("unordered_", pos)) != std::string::npos) {
    if (pos > 0 && is_ident_char(code[pos - 1])) {
      pos += 10;
      continue;
    }
    std::size_t i = pos;
    while (i < code.size() && is_ident_char(code[i])) ++i;
    if (i >= code.size() || code[i] != '<') {
      pos = i;
      continue;
    }
    int depth = 0;
    for (; i < code.size(); ++i) {
      if (code[i] == '<') ++depth;
      if (code[i] == '>' && --depth == 0) {
        ++i;
        break;
      }
    }
    if (depth != 0) return;  // declaration continues on the next line
    while (i < code.size() &&
           (code[i] == ' ' || code[i] == '&' || code[i] == '*')) {
      ++i;
    }
    const std::string name = read_ident(code, i);
    i += name.size();
    if (!name.empty() && next_char(code, i) != '(') names.insert(name);
    pos = i;
  }
}

/// True when this line's code has a range-for whose range expression
/// mentions one of `names` (or an unordered type directly), or calls
/// `.begin()` on one of them.
[[nodiscard]] bool iterates_unordered(const std::string& code,
                                      const std::set<std::string>& names) {
  for (std::size_t pos = find_word(code, "for"); pos != std::string::npos;
       pos = find_word(code, "for", pos + 3)) {
    const std::size_t open = code.find('(', pos + 3);
    if (open == std::string::npos) break;
    // Scan the parenthesized header for a ':' at depth 1 (not '::').
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = std::string::npos;
    for (std::size_t i = open; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '(') ++depth;
      if (c == ')' && --depth == 0) {
        close = i;
        break;
      }
      if (c == ':' && depth == 1 && colon == std::string::npos) {
        const bool dbl = (i + 1 < code.size() && code[i + 1] == ':') ||
                         (i > 0 && code[i - 1] == ':');
        if (!dbl) colon = i;
      }
    }
    if (colon == std::string::npos) continue;
    const std::size_t range_end =
        close == std::string::npos ? code.size() : close;
    const std::string range = code.substr(colon + 1, range_end - colon - 1);
    if (range.find("unordered_") != std::string::npos) return true;
    std::string token;
    for (std::size_t i = 0; i <= range.size(); ++i) {
      if (i < range.size() && is_ident_char(range[i])) {
        token.push_back(range[i]);
      } else if (!token.empty()) {
        if (names.count(token) != 0) return true;
        token.clear();
      }
    }
  }
  // Iterator-style loops over tracked names.
  for (const auto& name : names) {
    for (const char* member : {".begin(", ".cbegin(", ".rbegin("}) {
      const std::size_t at = code.find(name + member);
      if (at != std::string::npos &&
          (at == 0 || !is_ident_char(code[at - 1]))) {
        return true;
      }
    }
  }
  return false;
}

/// `new` used as a heap allocation: word `new` NOT followed by '('
/// (placement new constructs into caller-owned storage and is exactly
/// what the allocation-lean regions rely on).
[[nodiscard]] bool has_heap_new(const std::string& code) {
  for (std::size_t pos = find_word(code, "new"); pos != std::string::npos;
       pos = find_word(code, "new", pos + 3)) {
    if (next_char(code, pos + 3) != '(') return true;
  }
  return false;
}

/// A container *declared by value* on this line: one of the owning
/// container templates with its argument list closed here, followed by
/// a declared name. `std::vector<T>& out` parameters and `*` locals
/// bind without allocating and pass; `std::vector<T> scratch;`
/// constructs (and, once filled, allocates) per entry into the region.
/// Names followed by '(' are treated as function declarations and
/// skipped — the same heuristic collect_unordered_names uses; multi-
/// line declarations are out of reach by design.
[[nodiscard]] bool declares_container_by_value(const std::string& code) {
  for (const std::string tmpl :
       {"vector", "deque", "basic_string", "map", "set", "list",
        "unordered_map", "unordered_set", "multimap", "multiset"}) {
    for (std::size_t pos = find_word(code, tmpl); pos != std::string::npos;
         pos = find_word(code, tmpl, pos + tmpl.size())) {
      std::size_t i = pos + tmpl.size();
      if (i >= code.size() || code[i] != '<') continue;
      int depth = 0;
      for (; i < code.size(); ++i) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
      if (depth != 0) break;  // argument list continues on the next line
      i = skip_spaces(code, i);
      const std::string name = read_ident(code, i);
      if (!name.empty() && next_char(code, i + name.size()) != '(') return true;
    }
  }
  return false;
}

struct Scope {
  bool sim = false;        // sim-wallclock/rand/sleep/thread
  bool fault = false;      // fault-wallclock/rand
  bool unordered = false;  // unordered-iter
  bool span = false;       // span-wallclock
};

/// Rule scope from the path components below the repo root: any `sim`
/// directory component enables the determinism rules; `fault` enables the
/// fault-plan determinism rules (plan.h's contract); `sim` or `bench`
/// enables the iteration-order and span-stamp rules. hotpath-alloc and
/// unbalanced-directive apply everywhere.
[[nodiscard]] Scope classify(const fs::path& rel) {
  Scope scope;
  for (const auto& part : rel) {
    const std::string comp = part.string();
    if (comp == "sim") scope.sim = scope.unordered = scope.span = true;
    if (comp == "fault") scope.fault = true;
    if (comp == "bench") scope.unordered = scope.span = true;
  }
  return scope;
}

void check_determinism(const fs::path& path, const Scope& scope,
                       std::vector<Finding>& findings) {
  std::set<std::string> unordered_names;
  // Regions nest: a helper with its own `hotpath` region may be spliced
  // into an enclosing one, and its `end-hotpath` must not terminate the
  // outer region. Each open begin remembers its line so a region left
  // open at EOF is reported where it started.
  std::vector<int> hotpath_stack;
  const std::vector<Line> lines = lex_file(path);
  for (std::size_t index = 0; index < lines.size(); ++index) {
    const Line& line = lines[index];
    const int lineno = static_cast<int>(index + 1);
    if (line.hotpath_begin) hotpath_stack.push_back(lineno);
    if (line.hotpath_end) {
      if (hotpath_stack.empty()) {
        findings.push_back({path.string(), lineno, "unbalanced-directive",
                            "`end-hotpath` without a matching `hotpath` "
                            "begin"});
      } else {
        hotpath_stack.pop_back();
      }
    }
    const std::string& code = line.code;
    if (trim(code).empty()) continue;
    const auto hit = [&](const char* rule, const std::string& message) {
      if (line.allowed.count(rule) != 0) return;
      findings.push_back({path.string(), lineno, rule, message});
    };

    if (scope.sim) {
      for (const std::string& clock : wallclock_reads(code, true)) {
        hit("sim-wallclock", clock +
                                 " reads the wall clock; sim time must come "
                                 "from the engine clock");
      }
      for (const std::string& fn : ambient_rand(code)) {
        hit("sim-rand", fn +
                            " is ambient randomness; use a seeded PRNG from "
                            "the experiment config");
      }
      for (const char* fn : {"sleep_for", "sleep_until", "usleep", "nanosleep"}) {
        if (find_word(code, fn) != std::string::npos) {
          hit("sim-sleep", std::string(fn) +
                               " blocks on real time; schedule a simulated "
                               "delay on the engine instead");
        }
      }
      if (has_call(code, "sleep")) {
        hit("sim-sleep",
            "sleep() blocks on real time; schedule a simulated delay on "
            "the engine instead");
      }
      if (has_qualified_word(code, "thread") ||
          has_qualified_word(code, "jthread") ||
          has_qualified_word(code, "async") ||
          find_word(code, "pthread_create") != std::string::npos) {
        hit("sim-thread",
            "thread spawn in simulation code; the simulator is "
            "single-threaded (parallelize across runs instead)");
      }
    }

    // src/fault shares the simulator's determinism contract (see
    // fault/plan.h): every time is virtual Nanos from the run epoch and
    // every draw derives from FaultPlan::seed, so a wall-clock read or
    // ambient randomness would break the bit-identical replay the plans
    // promise across runs and between sim and runtime. Real-time
    // sleeps are deliberately NOT banned here: the runtime FaultDriver
    // side may pace itself, and a sleep is not a clock *read*.
    if (scope.fault) {
      for (const std::string& clock : wallclock_reads(code, true)) {
        hit("fault-wallclock", clock +
                                   " reads the wall clock; fault timelines "
                                   "are virtual Nanos from the run epoch");
      }
      for (const std::string& fn : ambient_rand(code)) {
        hit("fault-rand", fn +
                              " is ambient randomness; every draw must "
                              "derive from FaultPlan::seed");
      }
    }

    // Span stamps must carry virtual time: a trace whose sim-side spans
    // mix engine Nanos with wall-clock reads is unstitchable (and breaks
    // replay determinism). Applies to bench too, where wall clocks are
    // otherwise legal for throughput measurement — just not on the same
    // statement that stamps a span.
    if (scope.span) {
      const bool stamps_span =
          find_word(code, "Span") != std::string::npos ||
          find_word(code, "FlightRecord") != std::string::npos ||
          code.find("span.start") != std::string::npos ||
          code.find("span.duration") != std::string::npos;
      if (stamps_span) {
        for (const std::string& clock : wallclock_reads(code, false)) {
          hit("span-wallclock",
              clock +
                  " stamps a span with wall-clock time; span times must "
                  "come from the virtual clock");
        }
      }
    }

    if (scope.unordered) {
      collect_unordered_names(code, unordered_names);
      if (iterates_unordered(code, unordered_names)) {
        hit("unordered-iter",
            "iterating an unordered container; hash order is "
            "implementation-defined and leaks into emitted output — use a "
            "sorted container or sort a key vector first");
      }
    }

    if (hotpath_stack.empty()) continue;
    if (has_heap_new(code)) {
      hit("hotpath-alloc",
          "heap `new` in a hot-path region (placement new is allowed)");
    }
    for (const char* fn : {"make_unique", "make_shared"}) {
      if (find_word(code, fn) != std::string::npos) {
        hit("hotpath-alloc", std::string(fn) + " allocates in a hot-path region");
      }
    }
    if (has_qualified_word(code, "function")) {
      hit("hotpath-alloc",
          "std::function construction may allocate in a hot-path "
          "region; use SmallFn or a template parameter");
    }
    for (const char* fn :
         {"malloc", "calloc", "realloc", "strdup", "aligned_alloc"}) {
      if (has_call(code, fn)) {
        hit("hotpath-alloc", std::string(fn) + " allocates in a hot-path region");
      }
    }
    for (const char* fn : {"to_string", "stringstream", "ostringstream"}) {
      if (find_word(code, fn) != std::string::npos) {
        hit("hotpath-alloc",
            std::string(fn) +
                " builds a heap string in a hot-path region; format "
                "outside the region or into a caller-owned buffer");
      }
    }
    if (declares_container_by_value(code)) {
      hit("hotpath-alloc",
          "owning container declared by value in a hot-path region; "
          "reuse a buffer sized outside the region (references and "
          "pointers are fine)");
    }
  }

  for (const int begin_line : hotpath_stack) {
    findings.push_back({path.string(), begin_line, "unbalanced-directive",
                        "`hotpath` region opened here is never closed "
                        "(missing `end-hotpath`)"});
  }
}

void run_determinism(const fs::path& root, std::vector<Finding>& findings) {
  for (const char* dir : kDeterminismDirs) {
    for (const fs::path& path : collect_sources(root / dir)) {
      check_determinism(path, classify(fs::relative(path, root)), findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

constexpr const char* kPasses[] = {"layering", "lockgraph", "annotations",
                                   "protocoverage", "determinism"};

void print_help() {
  std::printf(
      "usage: sdscheck [--pass=NAME]... [--config=FILE] <repo-root>\n"
      "\n"
      "Passes: layering, lockgraph, annotations, protocoverage, determinism\n"
      "(all run when no --pass is given). Rules by pass, with their scope:\n");
  for (const RuleInfo& rule : kRules) {
    std::printf("  %-14s %-21s [%s] %s\n", rule.pass, rule.name, rule.scope,
                rule.summary);
  }
  std::printf(
      "\n"
      "Suppress a finding with `// sdscheck: allow(<rule>)` on the offending\n"
      "line or on a comment line just above it. Hot-path regions open with\n"
      "`// sdscheck: hotpath` and close with `// sdscheck: end-hotpath`.\n"
      "\n"
      "Exit: 0 clean, 1 findings, 2 usage/configuration error.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::set<std::string> passes;
  std::string config_path;
  std::string root_arg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    }
    if (arg.rfind("--pass=", 0) == 0) {
      const std::string pass = arg.substr(7);
      if (std::find(std::begin(kPasses), std::end(kPasses), pass) ==
          std::end(kPasses)) {
        std::fprintf(stderr, "sdscheck: unknown pass '%s'\n", pass.c_str());
        return 2;
      }
      passes.insert(pass);
      continue;
    }
    if (arg.rfind("--config=", 0) == 0) {
      config_path = arg.substr(9);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "sdscheck: unknown flag '%s' (see --help)\n",
                   arg.c_str());
      return 2;
    }
    if (!root_arg.empty()) {
      std::fprintf(stderr, "sdscheck: exactly one repo root expected\n");
      return 2;
    }
    root_arg = arg;
  }
  if (root_arg.empty()) {
    std::fprintf(stderr, "sdscheck: no repo root given (see --help)\n");
    return 2;
  }
  const fs::path root = root_arg;
  if (std::none_of(std::begin(kDeterminismDirs), std::end(kDeterminismDirs),
                   [&](const char* dir) { return fs::is_directory(root / dir); })) {
    std::fprintf(stderr,
                 "sdscheck: %s has no src/, bench/, apps/ or examples/ "
                 "directory\n",
                 root_arg.c_str());
    return 2;
  }
  if (passes.empty()) passes.insert(std::begin(kPasses), std::end(kPasses));

  std::vector<Finding> findings;
  if (passes.count("layering") != 0) {
    LayeringConfig config;
    std::string error;
    const fs::path path =
        config_path.empty() ? root / "tools" / "layering.toml"
                            : fs::path(config_path);
    if (!load_layering_config(path, config, error)) {
      std::fprintf(stderr, "sdscheck: %s\n", error.c_str());
      return 2;
    }
    run_layering(root, config, findings);
  }
  if (passes.count("lockgraph") != 0) run_lockgraph(root, findings);
  if (passes.count("annotations") != 0) run_annotations(root, findings);
  if (passes.count("protocoverage") != 0) run_protocoverage(root, findings);
  if (passes.count("determinism") != 0) run_determinism(root, findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  for (const Finding& finding : findings) {
    std::fprintf(stderr, "%s:%d: error: [%s] %s\n", finding.file.c_str(),
                 finding.line, finding.rule.c_str(),
                 finding.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "sdscheck: %zu issue(s)\n", findings.size());
    return 1;
  }
  std::string names;
  for (const std::string& pass : passes) {
    if (!names.empty()) names += ", ";
    names += pass;
  }
  std::printf("sdscheck: OK (%s)\n", names.c_str());
  return 0;
}
