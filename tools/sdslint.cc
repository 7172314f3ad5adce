// sdslint — determinism and hot-path lint for the sdscale tree.
//
// The simulator's claim to validity is bit-identical replay: the same
// config must produce the same Tables/Figures on every run and every
// machine. That dies the moment wall-clock time, ambient randomness, or
// host-dependent iteration order leaks into src/sim. This linter makes
// those mistakes build failures instead of review comments.
//
// Rules (applicability inferred from path components):
//   sim-wallclock   [sim]        no system_clock/steady_clock/time()/
//                                gettimeofday/... — sim time comes from
//                                the engine clock only.
//   sim-rand        [sim]        no rand()/srand()/random_device — all
//                                randomness must be seeded PRNGs owned
//                                by the experiment config.
//   sim-sleep       [sim]        no sleep_for/sleep_until/usleep/... —
//                                simulated time advances via the engine.
//   sim-thread      [sim]        no std::thread/jthread/async/
//                                pthread_create — the simulator is
//                                single-threaded; parallelism lives in
//                                the bench sweeps (--jobs), one run per
//                                worker.
//   unordered-iter  [sim,bench]  no iteration over unordered containers
//                                (range-for or .begin()) — hash order is
//                                implementation-defined and would leak
//                                into emitted rows.
//   hotpath-alloc   [all]        inside `// sdslint: hotpath` regions:
//                                no heap `new` (placement new is fine),
//                                make_unique/make_shared, malloc-family
//                                calls, std::function construction,
//                                heap-string formatting (to_string,
//                                stringstreams), or by-value owning-
//                                container declarations (references,
//                                pointers, and reuse of buffers sized
//                                outside the region are the sanctioned
//                                idiom — see core/metrics_store.cc).
//
// Directives (in comments):
//   // sdslint: hotpath          begin a hot-path region
//   // sdslint: end-hotpath      end it (hotpath-begin / hotpath-end are
//                                accepted aliases)
//   // sdslint: allow(rule,...)  suppress on this line (or, when the
//                                comment stands alone, on the next line)
//
// Regions nest: each end marker closes the innermost open region. An
// end without a begin, or a region still open at end of file, is an
// `unbalanced-directive` error (not suppressible).
//
// This is a token/line-level checker, not a compiler plugin: it reads
// each file once, strips comments and string/char literals, and pattern
// matches word-boundary tokens. Multi-line `for` headers and raw-string
// literals spanning lines are outside its reach — by design it errs
// toward simplicity; anything it cannot see, review still can.
//
// Exit status: 0 when clean, 1 when any violation is reported, 2 on
// usage or I/O errors.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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
  const char* name;
  const char* scope;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"sim-wallclock", "src/sim", "wall-clock time source in simulation code"},
    {"sim-rand", "src/sim", "ambient randomness in simulation code"},
    {"sim-sleep", "src/sim", "real-time sleep in simulation code"},
    {"sim-thread", "src/sim", "thread spawn in simulation code"},
    {"unordered-iter", "src/sim, bench",
     "iteration over an unordered container (hash order leaks into output)"},
    {"hotpath-alloc", "hotpath regions",
     "heap allocation, std::function, heap-string formatting, or by-value "
     "container declaration in a hot-path region"},
    {"fault-wallclock", "src/fault",
     "wall-clock time source in fault-plan code"},
    {"fault-rand", "src/fault", "unseeded randomness in fault-plan code"},
    {"span-wallclock", "src/sim, bench",
     "wall-clock read stamping a trace span (span times must come from "
     "the virtual clock)"},
    {"unbalanced-directive", "all",
     "region directive without a matching begin, or a region left open "
     "at end of file"},
};

bool is_ident_char(char c) {
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

/// Find `word` at an identifier boundary. When `require_call` is set the
/// next non-space character must be '('. Returns npos when absent.
std::size_t find_word(const std::string& code, const char* word,
                      bool require_call = false) {
  const std::size_t len = std::strlen(word);
  std::size_t pos = 0;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const std::size_t end = pos + len;
    const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const bool right_ok = end >= code.size() || !is_ident_char(code[end]);
    if (left_ok && right_ok) {
      if (!require_call) return pos;
      std::size_t j = end;
      while (j < code.size() && code[j] == ' ') ++j;
      if (j < code.size() && code[j] == '(') return pos;
    }
    pos = end;
  }
  return std::string::npos;
}

/// Find `word` at an identifier boundary, immediately preceded by a
/// `std::` (or any `::`) qualifier.
bool has_qualified_word(const std::string& code, const char* word) {
  const std::size_t len = std::strlen(word);
  std::size_t pos = 0;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const std::size_t end = pos + len;
    const bool qualified = pos >= 2 && code[pos - 1] == ':' && code[pos - 2] == ':';
    const bool right_ok = end >= code.size() || !is_ident_char(code[end]);
    if (qualified && right_ok) return true;
    pos = end;
  }
  return false;
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
    std::string name;
    while (i < code.size() && is_ident_char(code[i])) name.push_back(code[i++]);
    while (i < code.size() && code[i] == ' ') ++i;
    if (!name.empty() && (i >= code.size() || code[i] != '(')) {
      names.insert(name);
    }
    pos = i;
  }
}

/// True when this line's code has a range-for whose range expression
/// mentions one of `names` (or an unordered type directly).
bool iterates_unordered(const std::string& code,
                        const std::set<std::string>& names) {
  std::size_t pos = 0;
  while ((pos = code.find("for", pos)) != std::string::npos) {
    const std::size_t end = pos + 3;
    const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const bool right_ok = end >= code.size() || !is_ident_char(code[end]);
    if (!left_ok || !right_ok) {
      pos = end;
      continue;
    }
    const std::size_t open = code.find('(', end);
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
    if (colon != std::string::npos) {
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
    pos = end;
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
bool has_heap_new(const std::string& code) {
  std::size_t pos = 0;
  while ((pos = code.find("new", pos)) != std::string::npos) {
    const std::size_t end = pos + 3;
    const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    const bool right_ok = end >= code.size() || !is_ident_char(code[end]);
    if (left_ok && right_ok) {
      std::size_t j = end;
      while (j < code.size() && code[j] == ' ') ++j;
      if (j < code.size() && code[j] != '(') return true;
      if (j >= code.size()) return true;  // `new` at end of line
    }
    pos = end;
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
bool declares_container_by_value(const std::string& code) {
  for (const char* tmpl :
       {"vector", "deque", "basic_string", "map", "set", "list",
        "unordered_map", "unordered_set", "multimap", "multiset"}) {
    const std::size_t len = std::strlen(tmpl);
    std::size_t pos = 0;
    while ((pos = code.find(tmpl, pos)) != std::string::npos) {
      const std::size_t end = pos + len;
      const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
      if (!left_ok || end >= code.size() || code[end] != '<') {
        pos = end;
        continue;
      }
      int depth = 0;
      std::size_t i = end;
      for (; i < code.size(); ++i) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
      if (depth != 0) break;  // argument list continues on the next line
      while (i < code.size() && code[i] == ' ') ++i;
      std::string name;
      while (i < code.size() && is_ident_char(code[i])) {
        name.push_back(code[i++]);
      }
      while (i < code.size() && code[i] == ' ') ++i;
      if (!name.empty() && (i >= code.size() || code[i] != '(')) return true;
      pos = i;
    }
  }
  return false;
}

struct Directives {
  bool hotpath_begin = false;
  bool hotpath_end = false;
  std::set<std::string> allowed;
};

/// Parse `sdslint:` directives out of a line's comment text. Only a
/// comment that *starts* with `sdslint:` is a directive — prose that
/// merely mentions one (doc headers, fixture descriptions quoting
/// `// sdslint: hotpath`) must not open or close a region.
Directives parse_directives(const std::string& comment) {
  Directives d;
  std::size_t start = 0;
  while (start < comment.size() &&
         (comment[start] == ' ' || comment[start] == '\t')) {
    ++start;
  }
  std::size_t pos = comment.compare(start, 8, "sdslint:") == 0
                        ? start
                        : std::string::npos;
  if (pos != std::string::npos) {
    std::size_t i = pos + 8;
    while (i < comment.size() && comment[i] == ' ') ++i;
    // Longer spellings first: `hotpath-end` must not match the plain
    // `hotpath` prefix and begin a region instead of ending one.
    if (comment.compare(i, 13, "hotpath-begin") == 0) {
      d.hotpath_begin = true;
    } else if (comment.compare(i, 11, "hotpath-end") == 0) {
      d.hotpath_end = true;
    } else if (comment.compare(i, 11, "end-hotpath") == 0) {
      d.hotpath_end = true;
    } else if (comment.compare(i, 7, "hotpath") == 0) {
      d.hotpath_begin = true;
    } else if (comment.compare(i, 6, "allow(") == 0) {
      i += 6;
      std::string rule;
      for (; i < comment.size() && comment[i] != ')'; ++i) {
        if (comment[i] == ',') {
          if (!rule.empty()) d.allowed.insert(rule);
          rule.clear();
        } else if (comment[i] != ' ') {
          rule.push_back(comment[i]);
        }
      }
      if (!rule.empty()) d.allowed.insert(rule);
    }
  }
  return d;
}

struct FileRules {
  bool sim = false;        // sim-wallclock/rand/sleep/thread
  bool fault = false;      // fault-wallclock/rand
  bool unordered = false;  // unordered-iter
  bool span = false;       // span-wallclock
};

/// Rule applicability from path components: any `sim` directory
/// component enables the determinism rules; `fault` enables the
/// fault-plan determinism rules (plan.h's contract); `sim` or `bench`
/// enables the iteration-order rule. hotpath-alloc applies everywhere.
FileRules classify(const fs::path& path) {
  FileRules rules;
  for (const auto& part : path) {
    const std::string comp = part.string();
    if (comp == "sim") rules.sim = rules.unordered = rules.span = true;
    if (comp == "fault") rules.fault = true;
    if (comp == "bench") rules.unordered = rules.span = true;
  }
  return rules;
}

void lint_file(const fs::path& path, std::vector<Finding>& findings) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "sdslint: cannot open %s\n", path.c_str());
    findings.push_back({path.string(), 0, "io", "cannot open file"});
    return;
  }
  const FileRules rules = classify(path);

  std::set<std::string> unordered_names;
  bool in_block_comment = false;
  // Regions nest: a helper with its own `hotpath` region may be spliced
  // into an enclosing one, and its `end-hotpath` must not terminate the
  // outer region. Each open begin remembers its line so a region left
  // open at EOF is reported where it started.
  std::vector<int> hotpath_stack;
  std::set<std::string> pending_allow;  // from a standalone comment line
  std::string line;
  std::string code;
  std::string comment;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    split_line(line, in_block_comment, code, comment);
    const Directives directives = parse_directives(comment);
    if (directives.hotpath_begin) hotpath_stack.push_back(lineno);
    if (directives.hotpath_end) {
      if (hotpath_stack.empty()) {
        findings.push_back({path.string(), lineno, "unbalanced-directive",
                            "`end-hotpath` without a matching `hotpath` "
                            "begin"});
      } else {
        hotpath_stack.pop_back();
      }
    }
    const bool in_hotpath = !hotpath_stack.empty();

    const bool has_code =
        code.find_first_not_of(" \t") != std::string::npos;
    std::set<std::string> allowed = directives.allowed;
    if (has_code) {
      allowed.insert(pending_allow.begin(), pending_allow.end());
      pending_allow.clear();
    } else {
      // A standalone `// sdslint: allow(...)` comment covers the next
      // code line.
      pending_allow.insert(directives.allowed.begin(),
                           directives.allowed.end());
      continue;
    }

    std::vector<Finding> hits;
    const auto hit = [&](const char* rule, std::string msg) {
      hits.push_back({path.string(), lineno, rule, std::move(msg)});
    };

    if (rules.sim) {
      for (const char* clock :
           {"system_clock", "steady_clock", "high_resolution_clock",
            "gettimeofday", "clock_gettime", "localtime", "localtime_r",
            "gmtime"}) {
        if (find_word(code, clock) != std::string::npos) {
          hit("sim-wallclock",
              std::string(clock) +
                  " reads the wall clock; sim time must come from the "
                  "engine clock");
        }
      }
      if (find_word(code, "time", /*require_call=*/true) !=
          std::string::npos) {
        hit("sim-wallclock",
            "time() reads the wall clock; sim time must come from the "
            "engine clock");
      }
      for (const char* fn : {"rand", "srand", "rand_r", "random_device"}) {
        if (find_word(code, fn) != std::string::npos) {
          hit("sim-rand", std::string(fn) +
                              " is ambient randomness; use a seeded PRNG "
                              "from the experiment config");
        }
      }
      for (const char* fn :
           {"sleep_for", "sleep_until", "usleep", "nanosleep"}) {
        if (find_word(code, fn) != std::string::npos) {
          hit("sim-sleep", std::string(fn) +
                               " blocks on real time; schedule a simulated "
                               "delay on the engine instead");
        }
      }
      if (find_word(code, "sleep", /*require_call=*/true) !=
          std::string::npos) {
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
    if (rules.fault) {
      for (const char* clock :
           {"system_clock", "steady_clock", "high_resolution_clock",
            "gettimeofday", "clock_gettime", "localtime", "localtime_r",
            "gmtime"}) {
        if (find_word(code, clock) != std::string::npos) {
          hit("fault-wallclock",
              std::string(clock) +
                  " reads the wall clock; fault timelines are virtual "
                  "Nanos from the run epoch");
        }
      }
      if (find_word(code, "time", /*require_call=*/true) !=
          std::string::npos) {
        hit("fault-wallclock",
            "time() reads the wall clock; fault timelines are virtual "
            "Nanos from the run epoch");
      }
      for (const char* fn : {"rand", "srand", "rand_r", "random_device"}) {
        if (find_word(code, fn) != std::string::npos) {
          hit("fault-rand",
              std::string(fn) +
                  " is ambient randomness; every draw must derive from "
                  "FaultPlan::seed");
        }
      }
    }

    // Span stamps must carry virtual time: a trace whose sim-side spans
    // mix engine Nanos with wall-clock reads is unstitchable (and breaks
    // replay determinism). Applies to bench too, where wall clocks are
    // otherwise legal for throughput measurement — just not on the same
    // statement that stamps a span.
    if (rules.span) {
      const bool stamps_span =
          find_word(code, "Span") != std::string::npos ||
          find_word(code, "FlightRecord") != std::string::npos ||
          code.find("span.start") != std::string::npos ||
          code.find("span.duration") != std::string::npos;
      if (stamps_span) {
        for (const char* clock :
             {"system_clock", "steady_clock", "high_resolution_clock",
              "gettimeofday", "clock_gettime"}) {
          if (find_word(code, clock) != std::string::npos) {
            hit("span-wallclock",
                std::string(clock) +
                    " stamps a span with wall-clock time; span times must "
                    "come from the virtual clock");
          }
        }
        if (find_word(code, "time", /*require_call=*/true) !=
            std::string::npos) {
          hit("span-wallclock",
              "time() stamps a span with wall-clock time; span times must "
              "come from the virtual clock");
        }
      }
    }

    if (rules.unordered) {
      collect_unordered_names(code, unordered_names);
      if (iterates_unordered(code, unordered_names)) {
        hit("unordered-iter",
            "iterating an unordered container; hash order is "
            "implementation-defined and leaks into emitted output — use a "
            "sorted container or sort a key vector first");
      }
    }

    if (in_hotpath) {
      if (has_heap_new(code)) {
        hit("hotpath-alloc",
            "heap `new` in a hot-path region (placement new is allowed)");
      }
      for (const char* fn : {"make_unique", "make_shared"}) {
        if (find_word(code, fn) != std::string::npos) {
          hit("hotpath-alloc",
              std::string(fn) + " allocates in a hot-path region");
        }
      }
      if (has_qualified_word(code, "function")) {
        hit("hotpath-alloc",
            "std::function construction may allocate in a hot-path "
            "region; use SmallFn or a template parameter");
      }
      for (const char* fn :
           {"malloc", "calloc", "realloc", "strdup", "aligned_alloc"}) {
        if (find_word(code, fn, /*require_call=*/true) !=
            std::string::npos) {
          hit("hotpath-alloc",
              std::string(fn) + " allocates in a hot-path region");
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

    for (auto& finding : hits) {
      if (allowed.count(finding.rule) != 0) continue;
      findings.push_back(std::move(finding));
    }
  }

  for (const int begin_line : hotpath_stack) {
    findings.push_back({path.string(), begin_line, "unbalanced-directive",
                        "`hotpath` region opened here is never closed "
                        "(missing `end-hotpath`)"});
  }
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp" ||
         ext == ".cxx";
}

void collect_files(const fs::path& root, std::vector<fs::path>& files) {
  std::error_code ec;
  if (fs::is_directory(root, ec)) {
    for (fs::recursive_directory_iterator it(root, ec), end; it != end;
         it.increment(ec)) {
      if (!ec && it->is_regular_file() && lintable(it->path())) {
        files.push_back(it->path());
      }
    }
    return;
  }
  files.push_back(root);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> files;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& rule : kRules) {
        std::printf("%-15s [%s] %s\n", rule.name, rule.scope, rule.summary);
      }
      return 0;
    }
    if (arg == "--quiet" || arg == "-q") {
      quiet = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: sdslint [--quiet] [--list-rules] <file|dir>...\n"
          "Determinism and hot-path lint; see --list-rules. Suppress a\n"
          "finding with `// sdslint: allow(<rule>)` on (or just above)\n"
          "the offending line.\n");
      return 0;
    }
    collect_files(arg, files);
  }
  if (files.empty()) {
    std::fprintf(stderr, "sdslint: no input files (see --help)\n");
    return 2;
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const auto& file : files) lint_file(file, findings);
  for (const auto& finding : findings) {
    std::fprintf(stderr, "%s:%d: error: [%s] %s\n", finding.file.c_str(),
                 finding.line, finding.rule.c_str(), finding.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "sdslint: %zu issue(s) across %zu file(s)\n",
                 findings.size(), files.size());
    return 1;
  }
  if (!quiet) {
    std::printf("sdslint: OK (%zu files)\n", files.size());
  }
  return 0;
}
