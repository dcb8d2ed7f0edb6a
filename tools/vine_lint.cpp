// vine_lint: project-specific static checks for the vine source tree.
//
// Scans *.hpp/*.cpp under a source root for patterns this codebase bans:
//
//   mutex-comment    std::mutex member without a lock-discipline comment
//                    ("Guards ..."/"Serializes ...") on or near the declaration
//   clock            direct std::chrono::system_clock / steady_clock::now /
//                    time() use that bypasses common/clock
//   rand             rand()/srand() instead of common/rng
//   new-delete       raw new/delete instead of RAII ownership
//   catch-all        catch (...) that swallows instead of rethrowing
//   errno-unchecked  strto* conversion with no errno check nearby
//   raw-io           naked ::recv/::read outside net/reactor.cpp, bypassing
//                    the Endpoint timeout/shutdown discipline
//   event-poll       ::poll/::select/epoll_* outside net/reactor.cpp; all
//                    socket readiness multiplexing belongs to the reactor
//                    (a second event loop fragments the data plane)
//   raw-fork         fork() anywhere; it copies the whole multithreaded
//                    process and leaves the child only async-signal-safe
//                    calls until exec — child processes use posix_spawn
//   manual-lock      raw .lock()/.unlock() calls outside RAII guards; an
//                    early return or exception between them leaks the lock
//   detached-thread  std::thread::detach(); detached threads outlive their
//                    owner and race teardown — every thread must be joined
//   control-fork     a definition of schedule_pass, build_dag_view,
//                    issue_prefetches, cancel_stale_prefetches,
//                    issue_replications, recover_lost_*, or of a host-report
//                    entry point (transfer_closed, task_done,
//                    object_announced, object_dropped, library_ready,
//                    workflow_ended) or factory_signals / retirable outside
//                    control/; the pass and its bookkeeping exist once, in
//                    control::Core
//
// Findings can be vetted via an allowlist file where every entry carries a
// justification (see tools/vine_lint_allowlist.txt). Exit status is nonzero
// iff any finding is not allowlisted, so the tool doubles as a ctest.
//
// Usage: vine_lint <src-root> [--allowlist <file>]

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string path;     // as reported (relative to the scanned root)
  std::size_t line;     // 1-based
  std::string rule;
  std::string message;
  bool allowed = false;
};

struct AllowEntry {
  std::string rule;
  std::string path_suffix;
  std::string line_substring;
  std::string justification;
  mutable bool used = false;
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// True when `needle` occurs in `line` as a whole token (no identifier char
// on either side). `pos_out` receives the match offset.
bool find_token(const std::string& line, const std::string& needle,
                std::size_t* pos_out = nullptr) {
  std::size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    std::size_t after = pos + needle.size();
    bool right_ok = after >= line.size() || !is_ident_char(line[after]);
    if (left_ok && right_ok) {
      if (pos_out) *pos_out = pos;
      return true;
    }
    ++pos;
  }
  return false;
}

// Produce a "code view" of the file: comments and string/char literal
// contents blanked out (replaced by spaces) so pattern rules do not fire on
// prose. Line structure is preserved exactly.
std::vector<std::string> code_view(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool in_block_comment = false;
  for (const std::string& line : raw) {
    std::string cooked(line.size(), ' ');
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        ++i;
        continue;
      }
      if (c == '"' || c == '\'') {
        char quote = c;
        cooked[i] = quote;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            cooked[i] = quote;
            break;
          }
          ++i;
        }
        continue;
      }
      cooked[i] = c;
    }
    out.push_back(std::move(cooked));
  }
  return out;
}

// True when `line` defines (rather than calls or declares) a function named
// `name` — or, when `name` ends in '_', any function with that prefix: the
// name is followed by '(', preceded by a return type or a Class:: qualifier,
// and the line does not end in ';'.
bool defines_function(const std::string& line, const std::string& name) {
  const bool prefix = name.back() == '_';
  const std::string t = trim(line);
  if (t.empty() || t.back() == ';') return false;
  std::size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string::npos) {
    const std::size_t start = pos;
    pos += name.size();
    if (start > 0 && is_ident_char(line[start - 1])) continue;
    std::size_t after = pos;
    if (prefix) {
      while (after < line.size() && is_ident_char(line[after])) ++after;
    } else if (after < line.size() && is_ident_char(line[after])) {
      continue;
    }
    while (after < line.size() && line[after] == ' ') ++after;
    if (after >= line.size() || line[after] != '(') continue;
    std::string before = trim(line.substr(0, start));
    if (before.size() >= 2 && before.compare(before.size() - 2, 2, "::") == 0) {
      before.resize(before.size() - 2);
    }
    if (before.empty()) continue;
    const char last = before.back();
    if (is_ident_char(last) || last == '*' || last == '&' || last == '>') {
      return true;
    }
  }
  return false;
}

bool has_lock_comment(const std::vector<std::string>& raw, std::size_t idx) {
  auto mentions_discipline = [](const std::string& s) {
    return s.find("Guards") != std::string::npos ||
           s.find("guards") != std::string::npos ||
           s.find("Serializes") != std::string::npos ||
           s.find("serializes") != std::string::npos;
  };
  if (mentions_discipline(raw[idx])) return true;
  // Look back through the contiguous comment block above the declaration.
  for (std::size_t back = 1; back <= 12 && back <= idx; ++back) {
    std::string t = trim(raw[idx - back]);
    if (t.rfind("//", 0) != 0 && t.rfind("*", 0) != 0 &&
        t.rfind("/*", 0) != 0) {
      break;
    }
    if (mentions_discipline(t)) return true;
  }
  return false;
}

void scan_file(const fs::path& file, const std::string& rel,
               std::vector<Finding>& findings) {
  std::ifstream in(file);
  if (!in) return;
  std::vector<std::string> raw;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    raw.push_back(line);
  }
  const std::vector<std::string> code = code_view(raw);

  auto add = [&](std::size_t idx, const char* rule, std::string msg) {
    findings.push_back(Finding{rel, idx + 1, rule, std::move(msg)});
  };

  const bool is_clock_impl =
      rel == "common/clock.hpp" || rel == "common/clock.cpp";
  // The reactor owns every socket syscall in the tree; even the rest of
  // net/ (tcp.cpp adapters, channel transport) must stay I/O-free.
  const bool is_reactor_impl = rel == "net/reactor.cpp";
  // The one home of the scheduling pass and its helpers.
  const bool is_control = rel.rfind("control/", 0) == 0;

  for (std::size_t i = 0; i < code.size(); ++i) {
    const std::string& c = code[i];

    // mutex-comment: a mutex *member/global declaration* must say what it
    // guards. Covers both raw std::mutex (no '(' in a declaration) and
    // vine::Mutex, whose declarations carry a {Rank::...} initializer.
    {
      bool std_decl = false, vine_decl = false;
      std::string t = trim(c);
      if (c.find("std::mutex") != std::string::npos) {
        std_decl = !t.empty() && t.back() == ';' &&
                   t.find('(') == std::string::npos;
      }
      std::size_t mpos = 0;
      if (find_token(c, "Mutex", &mpos)) {
        vine_decl = !t.empty() && t.back() == ';' &&
                    c.find('{', mpos) != std::string::npos &&
                    c.find("Rank") != std::string::npos;
      }
      if ((std_decl || vine_decl) && !has_lock_comment(raw, i)) {
        add(i, "mutex-comment",
            "mutex member without a lock-discipline comment "
            "(say what it guards)");
      }
    }

    // clock: wall/monotonic clock reads must flow through common/clock so
    // tests can use virtual time.
    if (!is_clock_impl) {
      if (c.find("system_clock") != std::string::npos) {
        add(i, "clock",
            "std::chrono::system_clock used directly; route through "
            "common/clock");
      }
      if (c.find("steady_clock::now") != std::string::npos) {
        add(i, "clock",
            "steady_clock::now() used directly; route through common/clock");
      }
      std::size_t pos = 0;
      if (find_token(c, "time", &pos)) {
        std::size_t after = pos + 4;
        if (after < c.size() && c[after] == '(') {
          add(i, "clock", "time() used directly; route through common/clock");
        }
      }
    }

    // rand: libc PRNG is banned; use common/rng (seedable, reproducible).
    for (const char* fn : {"rand", "srand"}) {
      std::size_t pos = 0;
      if (find_token(c, fn, &pos)) {
        std::size_t after = pos + std::string(fn).size();
        if (after < c.size() && c[after] == '(') {
          add(i, "rand",
              std::string(fn) + "() is banned; use common/rng instead");
        }
      }
    }

    // new-delete: raw ownership is banned; the private-ctor factory idiom
    // wraps the result in a smart pointer on the same line.
    {
      std::size_t pos = 0;
      if (find_token(c, "new", &pos) &&
          c.find("unique_ptr<") == std::string::npos &&
          c.find("shared_ptr<") == std::string::npos &&
          c.find("make_unique") == std::string::npos &&
          c.find("make_shared") == std::string::npos) {
        add(i, "new-delete",
            "raw new without smart-pointer ownership on the same line");
      }
      if (find_token(c, "delete", &pos)) {
        bool deleted_member = pos >= 2 && c[pos - 1] == ' ' && c[pos - 2] == '=';
        if (!deleted_member) {
          add(i, "new-delete", "raw delete; use RAII ownership");
        }
      }
    }

    // catch-all: swallowing every exception hides programming errors; a
    // catch (...) must rethrow within a few lines.
    {
      std::size_t pos = c.find("catch");
      bool catch_all = false;
      if (pos != std::string::npos) {
        std::size_t p = pos + 5;
        while (p < c.size() && std::isspace(static_cast<unsigned char>(c[p]))) ++p;
        if (p < c.size() && c[p] == '(') {
          std::string inside = c.substr(p);
          if (inside.find("...") != std::string::npos &&
              inside.find("...") < inside.find(')')) {
            catch_all = true;
          }
        }
      }
      if (catch_all) {
        bool rethrows = false;
        for (std::size_t j = i; j < code.size() && j <= i + 6; ++j) {
          if (find_token(code[j], "throw")) {
            rethrows = true;
            break;
          }
        }
        if (!rethrows) {
          add(i, "catch-all", "catch (...) without rethrow swallows errors");
        }
      }
    }

    // raw-io: wire reads must flow through the net layer's Endpoint, whose
    // recv() carries the idle/mid-frame timeout and shutdown discipline a
    // naked syscall bypasses (a silent peer would wedge the calling thread
    // forever, invisible to the heartbeat/eviction machinery).
    if (!is_reactor_impl) {
      for (const char* fn : {"::recv", "::read"}) {
        std::size_t pos = c.find(fn);
        if (pos != std::string::npos &&
            (pos == 0 || !is_ident_char(c[pos - 1]))) {
          std::size_t after = pos + std::string(fn).size();
          if (after < c.size() && c[after] == '(') {
            add(i, "raw-io",
                std::string(fn) +
                    "() outside net/reactor.cpp; use Endpoint::recv with "
                    "its timeout discipline");
          }
        }
      }
    }

    // event-poll: readiness multiplexing outside the reactor means a
    // second event loop owning sockets the reactor cannot see — blocking
    // threads the deadline scan cannot kill and fds its teardown cannot
    // close. All of it belongs in net/reactor.cpp.
    if (!is_reactor_impl) {
      for (const char* fn : {"::poll", "::select", "epoll_create",
                             "epoll_ctl", "epoll_wait"}) {
        std::size_t pos = c.find(fn);
        if (pos != std::string::npos &&
            (pos == 0 || !is_ident_char(c[pos - 1]))) {
          std::size_t after = pos + std::string(fn).size();
          if (after < c.size() && (c[after] == '(' || c[after] == '1')) {
            add(i, "event-poll",
                std::string(fn) +
                    " outside net/reactor.cpp; socket multiplexing belongs "
                    "to the reactor");
          }
        }
      }
    }

    // raw-fork: forking a multithreaded process copies its whole address
    // space (page tables and all) and hands the child a snapshot of locks
    // other threads held, so only async-signal-safe calls are safe until
    // exec. Start child processes with posix_spawn instead.
    {
      std::size_t pos = 0;
      if (find_token(c, "fork", &pos)) {
        std::size_t after = pos + 4;
        if (after < c.size() && c[after] == '(') {
          add(i, "raw-fork",
              "fork() in the multithreaded runtime; spawn children with "
              "posix_spawn");
        }
      }
    }

    // manual-lock: bare .lock()/.unlock() on a mutex-ish receiver. Any
    // early return or exception between the pair leaks the lock; use
    // MutexLock/UniqueLock (or std::lock_guard on foreign mutexes). The
    // guard types themselves call through to the raw pair and are
    // allowlisted where they live.
    for (const char* fn : {"lock", "unlock"}) {
      std::size_t pos = 0;
      std::size_t search = 0;
      while ((pos = c.find(fn, search)) != std::string::npos) {
        search = pos + 1;
        std::size_t after = pos + std::string(fn).size();
        if (after >= c.size() || c[after] != '(') continue;
        if (pos >= 1 && is_ident_char(c[pos - 1])) continue;  // try_lock etc.
        bool member_call =
            (pos >= 1 && c[pos - 1] == '.') ||
            (pos >= 2 && c[pos - 2] == '-' && c[pos - 1] == '>');
        if (!member_call) continue;
        // Guard-object re-lock (UniqueLock lk; ... lk.lock()) is still a
        // manual protocol: flag it too and let the allowlist justify real
        // uses. But skip declarations like `void lock()` (preceded by a
        // type) — those appear only in the wrapper and are allowlisted.
        add(i, "manual-lock",
            std::string(".") + fn +
                "() outside an RAII guard; use MutexLock/UniqueLock");
        break;
      }
    }

    // detached-thread: a detached thread cannot be joined at shutdown, so
    // it races destruction of everything it touches. All vine threads are
    // tracked and joined (see Worker::threads_mutex_ discipline).
    {
      std::size_t pos = 0;
      if (find_token(c, "detach", &pos)) {
        std::size_t after = pos + 6;
        bool member_call =
            (pos >= 1 && c[pos - 1] == '.') ||
            (pos >= 2 && c[pos - 2] == '-' && c[pos - 1] == '>');
        if (member_call && after < c.size() && c[after] == '(') {
          add(i, "detached-thread",
              "std::thread::detach() is banned; track the thread and join it "
              "at shutdown");
        }
      }
    }

    // control-fork: Manager and ClusterSim once each carried a copy of the
    // scheduling pass and of its bookkeeping, and the copies drifted apart
    // unseen. The pass, the lookahead and replication issue, lost-temp
    // recovery, the accounting of what hosts report and the factory's
    // signals are defined once, in control::Core; hosts only call them.
    if (!is_control) {
      for (const char* fn : {"schedule_pass", "build_dag_view", "issue_prefetches",
                             "cancel_stale_prefetches", "issue_replications",
                             "recover_lost_", "transfer_closed", "task_done",
                             "object_announced", "object_dropped", "library_ready",
                             "workflow_ended", "factory_signals", "retirable"}) {
        if (defines_function(c, fn)) {
          add(i, "control-fork",
              std::string(fn) +
                  (fn[std::string(fn).size() - 1] == '_' ? "*" : "") +
                  " defined outside control/; the scheduling pass and its "
                  "bookkeeping live in control::Core");
          break;
        }
      }
    }

    // errno-unchecked: strto* reports overflow only via errno; a call with
    // no errno mention within +-3 lines silently accepts clamped values.
    for (const char* fn :
         {"strtol", "strtoll", "strtoul", "strtoull", "strtod", "strtof"}) {
      std::size_t pos = 0;
      if (!find_token(c, fn, &pos)) continue;
      std::size_t after = pos + std::string(fn).size();
      if (after >= c.size() || c[after] != '(') continue;
      bool checked = false;
      std::size_t lo = i >= 3 ? i - 3 : 0;
      std::size_t hi = std::min(code.size() - 1, i + 3);
      for (std::size_t j = lo; j <= hi; ++j) {
        if (code[j].find("errno") != std::string::npos) {
          checked = true;
          break;
        }
      }
      if (!checked) {
        add(i, "errno-unchecked",
            std::string(fn) + "() without a nearby errno check");
      }
      break;  // one finding per line is enough
    }
  }
}

std::vector<AllowEntry> load_allowlist(const fs::path& file,
                                       bool* parse_ok) {
  std::vector<AllowEntry> entries;
  *parse_ok = true;
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "vine_lint: cannot open allowlist %s\n",
                 file.string().c_str());
    *parse_ok = false;
    return entries;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    // rule|path_suffix|line_substring|justification
    std::vector<std::string> parts;
    std::stringstream ss(t);
    std::string part;
    while (std::getline(ss, part, '|')) parts.push_back(trim(part));
    if (parts.size() != 4 || parts[3].empty()) {
      std::fprintf(stderr,
                   "vine_lint: allowlist line %zu malformed (need "
                   "rule|path_suffix|line_substring|justification)\n",
                   lineno);
      *parse_ok = false;
      continue;
    }
    entries.push_back(AllowEntry{parts[0], parts[1], parts[2], parts[3]});
  }
  return entries;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_arg;
  std::string allowlist_arg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--allowlist" && i + 1 < argc) {
      allowlist_arg = argv[++i];
    } else if (root_arg.empty()) {
      root_arg = a;
    } else {
      std::fprintf(stderr, "usage: vine_lint <src-root> [--allowlist <file>]\n");
      return 2;
    }
  }
  if (root_arg.empty()) {
    std::fprintf(stderr, "usage: vine_lint <src-root> [--allowlist <file>]\n");
    return 2;
  }

  fs::path root(root_arg);
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "vine_lint: %s is not a directory\n",
                 root.string().c_str());
    return 2;
  }

  std::vector<Finding> findings;
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    scan_file(f, fs::relative(f, root).generic_string(), findings);
  }

  bool allow_ok = true;
  std::vector<AllowEntry> allow;
  if (!allowlist_arg.empty()) {
    allow = load_allowlist(allowlist_arg, &allow_ok);
  }

  std::size_t open_count = 0;
  for (Finding& f : findings) {
    // Fetch the raw line text for substring matching against the allowlist.
    std::ifstream in(root / f.path);
    std::string raw_line;
    for (std::size_t n = 0; n < f.line && std::getline(in, raw_line); ++n) {}
    for (const AllowEntry& e : allow) {
      if (e.rule == f.rule && ends_with(f.path, e.path_suffix) &&
          (e.line_substring.empty() ||
           raw_line.find(e.line_substring) != std::string::npos)) {
        f.allowed = true;
        e.used = true;
        break;
      }
    }
    if (!f.allowed) {
      std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
      ++open_count;
    }
  }

  for (const AllowEntry& e : allow) {
    if (!e.used) {
      std::printf("allowlist: unused entry %s|%s|%s (remove it)\n",
                  e.rule.c_str(), e.path_suffix.c_str(),
                  e.line_substring.c_str());
      ++open_count;
    }
  }

  if (open_count == 0 && allow_ok) {
    std::printf("vine_lint: %zu files scanned, %zu findings allowlisted, "
                "0 open\n",
                files.size(), findings.size());
    return 0;
  }
  std::printf("vine_lint: %zu open finding(s)\n", open_count);
  return 1;
}
