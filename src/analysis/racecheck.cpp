#include "analysis/racecheck.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_set>

#include "analysis/checks.h"
#include "analysis/extractor.h"
#include "analysis/lexer.h"
#include "analysis/typescan.h"

namespace sack::analysis {
namespace {

namespace fs = std::filesystem;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::vector<std::string> split_qual(const std::string& s) {
  std::vector<std::string> out;
  std::size_t b = 0;
  while (true) {
    std::size_t e = s.find("::", b);
    if (e == std::string::npos) {
      out.push_back(s.substr(b));
      return out;
    }
    out.push_back(s.substr(b, e - b));
    b = e + 2;
  }
}

Finding make(Severity sev, std::string cls, std::string file, int line,
             std::string message, std::string entry = "",
             std::string hook = "") {
  Finding f;
  f.severity = sev;
  f.cls = std::move(cls);
  f.file = std::move(file);
  f.line = line;
  f.message = std::move(message);
  f.entry = std::move(entry);
  f.hook = std::move(hook);
  return f;
}

const std::unordered_set<std::string>& mutator_methods() {
  static const std::unordered_set<std::string> m = {
      "push_back", "pop_back", "insert",  "erase", "clear",
      "resize",    "emplace",  "emplace_back", "assign", "store"};
  return m;
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

struct Checker {
  const ConcurrencyManifest& m;
  const std::string& manifest_path;
  const Corpus& corpus;
  const std::vector<ClassDecl>& classes;
  const std::vector<std::pair<std::string, std::string>>& sources;
  std::vector<Finding>& findings;
  RacecheckStats& stats;

  // Reverse call index: unqualified callee name -> callers.
  std::map<std::string, std::vector<const FunctionDef*>> callers;
  // Memoized "which unlocked root reaches this function" per (fn, mutex).
  std::map<std::pair<const FunctionDef*, std::string>, std::string> root_cache;

  void run() {
    build_caller_index();
    for (const auto& spec : m.guarded) check_guarded(spec);
    for (const auto& spec : m.rcu) check_rcu(spec);
    check_atomics();
    check_fault_sites();
  }

  // --- shared plumbing ----------------------------------------------------

  void build_caller_index() {
    for (const auto& sf : corpus.files)
      for (const auto& fn : sf.functions)
        for (const auto& c : fn.calls) callers[c.callee].push_back(&fn);
  }

  const ClassDecl* find_class(const std::string& name) const {
    for (const auto& cd : classes)
      if (cd.name == name) return &cd;
    return nullptr;
  }

  bool is_lockfree_type(const std::string& type) const {
    for (const auto& t : m.lockfree_types)
      if (type.find(t) != std::string::npos) return true;
    return false;
  }

  bool is_exempt_context(const FunctionDef& fn) const {
    for (const auto& p : m.exempt_contexts)
      if (starts_with(fn.qualified, p) || starts_with(fn.name, p)) return true;
    return false;
  }

  static bool is_ctor_of(const FunctionDef& fn,
                         const std::vector<std::string>& components) {
    for (const auto& c : components)
      if (fn.name == c || fn.name == "~" + c) return true;
    return false;
  }

  // Does `fn` hold `mutex` — via an RAII lock naming it, a direct .lock(),
  // or a SACK_REQUIRES/SACK_ACQUIRE annotation between `)` and `{`?
  bool holds_lock(const FunctionDef& fn, const std::string& mutex) const {
    const std::vector<Token>* tp = corpus.tokens_of(&fn);
    if (!tp) return false;
    const std::vector<Token>& t = *tp;

    std::size_t lo = fn.body_begin >= 24 ? fn.body_begin - 24 : 0;
    for (std::size_t k = lo; k + 1 < fn.body_begin; ++k) {
      if (t[k].kind != TokKind::ident) continue;
      const std::string& s = t[k].text;
      if (s != "SACK_REQUIRES" && s != "SACK_REQUIRES_SHARED" &&
          s != "SACK_ACQUIRE" && s != "SACK_ACQUIRE_SHARED")
        continue;
      if (!t[k + 1].is("(")) continue;
      for (std::size_t j = k + 2; j < fn.body_begin && !t[j].is(")"); ++j)
        if (t[j].ident_is(mutex)) return true;
    }

    for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
      if (t[i].kind != TokKind::ident) continue;
      // Direct acquisition: `mu_.lock()` / `mu_.lock_shared()`.
      if (t[i].text == mutex && i + 3 < fn.body_end &&
          (t[i + 1].is(".") || t[i + 1].is("->")) &&
          (t[i + 2].ident_is("lock") || t[i + 2].ident_is("lock_shared")) &&
          t[i + 3].is("("))
        return true;
      // RAII guard: `util::MutexLock l(s.mu)` — lock type, then a `(` within
      // a few tokens (template args + variable name), naming the mutex.
      bool is_lock_type = false;
      for (const auto& lt : m.lock_types)
        if (t[i].text == lt) is_lock_type = true;
      if (!is_lock_type) continue;
      for (std::size_t j = i + 1; j < fn.body_end && j <= i + 8; ++j) {
        if (!t[j].is("(")) continue;
        for (std::size_t a = j + 1; a < fn.body_end && !t[a].is(")"); ++a)
          if (t[a].ident_is(mutex)) return true;
        break;
      }
    }
    return false;
  }

  // Returns the qualified name of an unlocked, non-exempt call-graph root
  // that reaches `fn`, or "" when every chain bottoms out in a lock-holding
  // or exempt context. Cycles and over-depth resolve safe (no false alarms).
  std::string offending_root(const FunctionDef& fn, const std::string& mutex,
                             const std::vector<std::string>& ctor_components,
                             std::set<const FunctionDef*>& visiting,
                             int depth) {
    if (depth > 48) return "";
    auto key = std::make_pair(&fn, mutex);
    auto it = root_cache.find(key);
    if (it != root_cache.end()) return it->second;
    if (!visiting.insert(&fn).second) return "";

    std::string result;
    auto cit = callers.find(fn.name);
    if (cit == callers.end() || cit->second.empty()) {
      if (!is_exempt_context(fn) && !is_ctor_of(fn, ctor_components))
        result = fn.qualified;
    } else {
      std::set<const FunctionDef*> seen;
      for (const FunctionDef* g : cit->second) {
        if (g == &fn || !seen.insert(g).second) continue;
        if (holds_lock(*g, mutex)) continue;
        if (is_exempt_context(*g) || is_ctor_of(*g, ctor_components)) continue;
        std::string r =
            offending_root(*g, mutex, ctor_components, visiting, depth + 1);
        if (!r.empty()) {
          result = r;
          break;
        }
      }
    }
    visiting.erase(&fn);
    root_cache[key] = result;
    return result;
  }

  // --- pass 1: lockset / annotation drift ---------------------------------

  void check_guarded(const GuardedSpec& spec) {
    const ClassDecl* cd = find_class(spec.class_name);
    if (!cd) {
      findings.push_back(make(
          Severity::error, "manifest-error", manifest_path, spec.decl_line,
          "[guarded." + spec.tag + "] references unknown class '" +
              spec.class_name + "'"));
      return;
    }
    for (const auto& mu : spec.mutexes) {
      bool found = false;
      for (const auto& f : cd->fields)
        if (f.name == mu && f.is_mutex) found = true;
      if (!found)
        findings.push_back(make(
            Severity::error, "manifest-error", manifest_path, spec.decl_line,
            "class '" + spec.class_name + "' has no lock field '" + mu + "'"));
    }
    for (const auto& ex : spec.exempt) {
      bool found = false;
      for (const auto& f : cd->fields)
        if (f.name == ex.name) found = true;
      if (!found)
        findings.push_back(make(
            Severity::error, "manifest-error", manifest_path, ex.line,
            "exemption references unknown field '" + ex.name + "' of '" +
                spec.class_name + "'"));
    }

    std::vector<std::pair<const FieldDecl*, std::string>> guarded;  // f, mutex
    for (const auto& f : cd->fields) {
      if (f.is_static || f.is_mutex) continue;
      if (f.is_const && !f.is_mutable) continue;
      if (!f.guarded_by.empty()) {
        // The annotation names the lock; drift if it isn't a declared one.
        std::string lock = f.guarded_by;
        std::size_t last = lock.rfind(' ');
        if (last != std::string::npos) lock = lock.substr(last + 1);
        if (!spec.mutexes.empty() &&
            std::find(spec.mutexes.begin(), spec.mutexes.end(), lock) ==
                spec.mutexes.end()) {
          findings.push_back(make(
              Severity::error, "annotation-drift", cd->file, f.line,
              "field '" + f.name + "' of '" + spec.class_name +
                  "' is guarded by '" + lock +
                  "', which the manifest does not declare as a lock of this "
                  "class",
              "", f.name));
          continue;
        }
        guarded.emplace_back(&f, lock);
        ++stats.guarded_fields;
        continue;
      }
      if (is_lockfree_type(f.type)) continue;
      bool exempted = !spec.exempt_rest.empty();
      for (const auto& ex : spec.exempt)
        if (ex.name == f.name) exempted = true;
      if (exempted) continue;
      findings.push_back(make(
          Severity::error, "unannotated-field", cd->file, f.line,
          "mutable field '" + f.name + "' of '" + spec.class_name +
              "' has no SACK_GUARDED_BY annotation and no recorded exemption",
          "", f.name));
    }

    check_unlocked_access(spec, *cd, guarded);
  }

  bool is_accessor(const GuardedSpec& spec, const std::string& tail,
                   const FunctionDef& fn) const {
    for (const auto& p : spec.accessors) {
      if (p == "*") return true;
      if (starts_with(fn.qualified, p)) return true;
    }
    if (starts_with(fn.qualified, spec.class_name + "::")) return true;
    if (starts_with(fn.qualified, tail + "::")) return true;
    for (const auto& h : spec.helpers)
      if (fn.name == h || fn.qualified == h) return true;
    return false;
  }

  void check_unlocked_access(
      const GuardedSpec& spec, const ClassDecl& cd,
      const std::vector<std::pair<const FieldDecl*, std::string>>& guarded) {
    if (guarded.empty()) return;
    std::vector<std::string> components = split_qual(spec.class_name);
    std::string tail = components.back();

    for (const auto& sf : corpus.files) {
      for (const auto& fn : sf.functions) {
        if (!is_accessor(spec, tail, fn)) continue;
        for (const auto& [field, mutex] : guarded) {
          int line = mention_line(sf, fn, field->name);
          if (line == 0) continue;
          if (holds_lock(fn, mutex)) continue;
          if (is_ctor_of(fn, components) || is_exempt_context(fn)) continue;
          std::set<const FunctionDef*> visiting;
          std::string root =
              offending_root(fn, mutex, components, visiting, 0);
          if (root.empty()) continue;
          findings.push_back(make(
              Severity::error, "unlocked-access", sf.path, line,
              "field '" + field->name + "' of '" + spec.class_name +
                  "' (guarded by '" + mutex + "') is accessed in '" +
                  fn.qualified + "' without holding '" + mutex +
                  "', reachable from unlocked root '" + root + "'",
              fn.qualified, field->name));
        }
      }
    }
  }

  // First line in fn's body where `field` is mentioned as a member access.
  // `_`-suffixed names (the tree's member convention) match bare; others
  // must follow `.`/`->` so locals and type names don't alias.
  int mention_line(const SourceFile& sf, const FunctionDef& fn,
                   const std::string& field) const {
    const std::vector<Token>& t = sf.tokens;
    bool bare_ok = !field.empty() && field.back() == '_';
    for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
      if (t[i].kind != TokKind::ident || t[i].text != field) continue;
      bool after_member = i > 0 && (t[i - 1].is(".") || t[i - 1].is("->"));
      if (i > 0 && t[i - 1].is("::")) continue;
      if (!after_member && !bare_ok) continue;
      if (i + 1 < t.size() && t[i + 1].is("(")) continue;  // method call
      return t[i].line;
    }
    return 0;
  }

  // --- pass 2: RCU snapshot discipline ------------------------------------

  void check_rcu(const RcuSpec& spec) {
    const ClassDecl* cd = find_class(spec.owner);
    if (!cd) {
      findings.push_back(make(
          Severity::error, "manifest-error", manifest_path, spec.decl_line,
          "[rcu." + spec.tag + "] references unknown class '" + spec.owner +
              "'"));
      return;
    }
    bool cell_found = false;
    for (const auto& f : cd->fields)
      if (f.name == spec.cell) {
        cell_found = true;
        if (f.type.find("RcuPtr") == std::string::npos)
          findings.push_back(make(
              Severity::error, "manifest-error", manifest_path,
              spec.decl_line,
              "[rcu." + spec.tag + "] cell '" + spec.cell + "' of '" +
                  spec.owner + "' is not an RcuPtr (type: " + f.type + ")"));
      }
    if (!cell_found) {
      findings.push_back(make(
          Severity::error, "manifest-error", manifest_path, spec.decl_line,
          "[rcu." + spec.tag + "] references unknown cell '" + spec.cell +
              "' of '" + spec.owner + "'"));
      return;
    }
    ++stats.rcu_cells;

    for (const auto& sf : corpus.files)
      for (const auto& fn : sf.functions) check_rcu_in(spec, sf, fn);
  }

  static bool name_listed(const std::vector<ReasonedName>& list,
                          const FunctionDef& fn) {
    for (const auto& rn : list)
      if (rn.name == fn.name || rn.name == fn.qualified) return true;
    return false;
  }

  void check_rcu_in(const RcuSpec& spec, const SourceFile& sf,
                    const FunctionDef& fn) {
    const std::vector<Token>& t = sf.tokens;
    // key -> lines of snapshot acquisitions in this body
    std::map<std::string, std::vector<int>> loads;
    std::set<std::string> locals;   // shared_ptr snapshot locals
    std::set<std::string> derived;  // raw pointers derived from a snapshot

    auto chain_begin = [&](std::size_t i) {
      // First token of the receiver chain ending at ident index i.
      std::size_t s = i;
      while (s >= 2 && (t[s - 1].is(".") || t[s - 1].is("->")) &&
             t[s - 2].kind == TokKind::ident)
        s -= 2;
      return s;
    };
    auto bind_target = [&](std::size_t cs) -> std::string {
      // `V = <chain>...` — V must be a simple local, not a member chain.
      if (cs >= 2 && t[cs - 1].is("=") && t[cs - 2].kind == TokKind::ident &&
          !(cs >= 3 && (t[cs - 3].is(".") || t[cs - 3].is("->"))))
        return t[cs - 2].text;
      return "";
    };

    // Scan for cell.load() sites and loader calls.
    for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
      if (t[i].kind != TokKind::ident || t[i].text != spec.cell) continue;
      if (i > 0 && t[i - 1].is("::")) continue;
      if (i + 3 >= t.size() || !(t[i + 1].is(".") || t[i + 1].is("->")) ||
          !t[i + 2].ident_is("load") || !t[i + 3].is("("))
        continue;
      std::string key = "this";
      if (i > 0 && (t[i - 1].is(".") || t[i - 1].is("->")) && i >= 2 &&
          t[i - 2].kind == TokKind::ident)
        key = t[i - 2].text;
      loads[key].push_back(t[i].line);

      std::size_t cs = chain_begin(i);
      std::string v = bind_target(cs);
      if (!v.empty()) locals.insert(v);

      // Direct chained mutation: `cell.load()->items.push_back(...)` etc.
      std::size_t close = i + 3;
      int depth = 0;
      for (; close < fn.body_end && close < t.size(); ++close) {
        if (t[close].is("(")) ++depth;
        else if (t[close].is(")") && --depth == 0) break;
      }
      if (spec.immutable && close + 1 < t.size() && t[close + 1].is("->"))
        flag_chain_mutation(sf, fn, close + 1, spec);
    }
    for (const auto& c : fn.calls) {
      bool is_loader = false;
      for (const auto& l : spec.loaders)
        if (c.callee == l) is_loader = true;
      if (!is_loader) continue;
      loads["ldr:" + c.receiver + ":" + c.callee].push_back(c.line);
      std::size_t cs = chain_begin(c.pos);
      std::string v = bind_target(cs);
      if (!v.empty()) locals.insert(v);
    }

    if (!name_listed(spec.exempt_double_load, fn)) {
      for (const auto& [key, lines] : loads) {
        if (lines.size() < 2) continue;
        findings.push_back(make(
            Severity::error, "rcu-double-load", sf.path, lines[1],
            "'" + fn.qualified + "' takes " + std::to_string(lines.size()) +
                " snapshots of RcuPtr '" + spec.cell + "' (first at line " +
                std::to_string(lines[0]) +
                ") in one decision scope — the verdict can mix generations",
            fn.qualified, spec.cell));
      }
    }

    if (locals.empty()) return;
    bool escape_exempt = name_listed(spec.exempt_escape, fn);

    // Second sweep: escapes and mutations through the snapshot locals.
    for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size(); ++i) {
      // `return <expr>;`
      if (t[i].ident_is("return") && !escape_exempt) {
        std::size_t semi = i + 1;
        while (semi < fn.body_end && !t[semi].is(";")) ++semi;
        if (expr_derives_raw(t, i + 1, semi, locals, derived)) {
          findings.push_back(make(
              Severity::error, "rcu-escape", sf.path, t[i].line,
              "'" + fn.qualified + "' returns a raw pointer derived from a '" +
                  spec.cell +
                  "' snapshot — it dangles once the snapshot retires",
              fn.qualified, spec.cell));
        }
        i = semi;
        continue;
      }
      // `LHS = RHS;`
      if (t[i].is("=") && i > fn.body_begin &&
          t[i - 1].kind == TokKind::ident) {
        std::size_t semi = i + 1;
        while (semi < fn.body_end && !t[semi].is(";")) ++semi;
        bool member_lhs =
            (!t[i - 1].text.empty() && t[i - 1].text.back() == '_') ||
            (i >= 2 && (t[i - 2].is(".") || t[i - 2].is("->")));
        if (member_lhs) {
          if (!escape_exempt &&
              expr_derives_raw(t, i + 1, semi, locals, derived)) {
            findings.push_back(make(
                Severity::error, "rcu-escape", sf.path, t[i].line,
                "'" + fn.qualified + "' stores a raw pointer derived from a '" +
                    spec.cell +
                    "' snapshot into '" + t[i - 1].text +
                    "' — it outlives the snapshot",
                fn.qualified, spec.cell));
          }
        } else if (expr_derives_raw(t, i + 1, semi, locals, derived)) {
          derived.insert(t[i - 1].text);  // one-level raw-local tracking
        }
        i = semi;
        continue;
      }
      // Statement-initial mutation through a snapshot: `V->x = ...`,
      // `V->items.push_back(...)`, `*V = ...`.
      if (!spec.immutable) continue;
      bool stmt_start = i == fn.body_begin || t[i - 1].is(";") ||
                        t[i - 1].is("{") || t[i - 1].is("}");
      if (!stmt_start) continue;
      std::size_t v = i;
      bool deref = false;
      if (t[v].is("*") && v + 1 < fn.body_end) {
        deref = true;
        ++v;
      }
      if (t[v].kind != TokKind::ident) continue;
      if (!locals.count(t[v].text) && !derived.count(t[v].text)) continue;
      bool through = derived.count(t[v].text) > 0 || deref;
      if (v + 1 < fn.body_end && t[v + 1].is("->")) through = true;
      if (!through) continue;
      if (flag_chain_mutation(sf, fn, v + 1, spec)) i = v + 1;
      if (deref && v + 1 < fn.body_end && t[v + 1].is("=")) {
        findings.push_back(make(
            Severity::error, "rcu-mutation", sf.path, t[v].line,
            "'" + fn.qualified + "' writes through a '" + spec.cell +
                "' snapshot declared immutable",
            fn.qualified, spec.cell));
      }
    }
  }

  // Starting at a `->` token, walks the member chain; flags an assignment or
  // mutator-method call at its end. Returns true if a finding was emitted.
  bool flag_chain_mutation(const SourceFile& sf, const FunctionDef& fn,
                           std::size_t arrow, const RcuSpec& spec) {
    const std::vector<Token>& t = sf.tokens;
    std::size_t j = arrow;
    std::string last_ident;
    while (j < fn.body_end && (t[j].is("->") || t[j].is(".")) &&
           j + 1 < fn.body_end && t[j + 1].kind == TokKind::ident) {
      last_ident = t[j + 1].text;
      j += 2;
    }
    if (last_ident.empty()) return false;
    static const std::unordered_set<std::string> compound = {
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
        "++", "--"};
    bool mutation = false;
    if (j < fn.body_end && compound.count(t[j].text) &&
        t[j].kind == TokKind::punct)
      mutation = true;
    if (j < fn.body_end && t[j].is("(") && mutator_methods().count(last_ident))
      mutation = true;
    if (!mutation) return false;
    findings.push_back(make(
        Severity::error, "rcu-mutation", sf.path, t[arrow].line,
        "'" + fn.qualified + "' mutates ('" + last_ident +
            "') through a '" + spec.cell + "' snapshot declared immutable",
        fn.qualified, spec.cell));
    return true;
  }

  // Does [b, e) contain a raw-pointer derivation from a snapshot local —
  // `V.get()`, `V->...data()/c_str()`, `&V->field`, or a tracked raw local?
  static bool expr_derives_raw(const std::vector<Token>& t, std::size_t b,
                               std::size_t e, const std::set<std::string>& locals,
                               const std::set<std::string>& derived) {
    if (e <= b) return false;
    // Bare `return p;` / `x_ = p;` of an already-derived raw local.
    if (e - b == 1 && t[b].kind == TokKind::ident && derived.count(t[b].text))
      return true;
    bool amp = t[b].is("&");
    for (std::size_t i = b; i < e; ++i) {
      if (t[i].kind != TokKind::ident) continue;
      if (!locals.count(t[i].text)) continue;
      if (amp) return true;  // &V->field — address into the snapshot
      for (std::size_t j = i + 1; j + 2 < e; ++j) {
        if (!(t[j].is(".") || t[j].is("->"))) break;
        const std::string& mname = t[j + 1].text;
        if ((mname == "get" || mname == "data" || mname == "c_str") &&
            t[j + 2].is("("))
          return true;
        j += 1;  // step over the member ident; loop ++ steps over `.`
      }
    }
    return false;
  }

  // --- pass 3: atomics lint ----------------------------------------------

  void check_atomics() {
    for (const auto& sf : corpus.files) {
      for (const auto& fn : sf.functions) {
        const std::vector<Token>& t = sf.tokens;
        for (std::size_t i = fn.body_begin; i < fn.body_end && i < t.size();
             ++i) {
          if (t[i].kind != TokKind::ident ||
              (t[i].text != "store" && t[i].text != "exchange"))
            continue;
          if (i < 2 || !(t[i - 1].is(".") || t[i - 1].is("->"))) continue;
          if (i + 1 >= t.size() || !t[i + 1].is("(")) continue;
          if (t[i - 2].kind != TokKind::ident) continue;
          const std::string& recv = t[i - 2].text;
          bool relaxed = false;
          int depth = 0;
          for (std::size_t j = i + 1; j < fn.body_end && j < t.size(); ++j) {
            if (t[j].is("(")) ++depth;
            else if (t[j].is(")") && --depth == 0) break;
            // Only the store's own ordering argument counts — a nested
            // call's relaxed load (depth > 1) is someone else's ordering.
            if (depth == 1 && t[j].ident_is("memory_order_relaxed"))
              relaxed = true;
          }
          if (!relaxed) continue;
          bool allowed = false;
          for (const auto& rn : m.relaxed_ok)
            if (rn.name == recv) allowed = true;
          if (allowed) continue;
          findings.push_back(make(
              Severity::error, "relaxed-publication", sf.path, t[i].line,
              "relaxed-ordering " + t[i].text + " to '" + recv + "' in '" +
                  fn.qualified +
                  "' is not on the [atomics] allowlist — a publication flag "
                  "needs release/acquire",
              fn.qualified, recv));
        }
      }
    }
  }

  // --- pass 4: fault-site registry ---------------------------------------

  void check_fault_sites() {
    if (m.fault_registry.empty()) return;
    const std::string* registry_text = nullptr;
    for (const auto& [path, text] : sources)
      if (path == m.fault_registry || ends_with(path, m.fault_registry))
        registry_text = &text;
    if (!registry_text) {
      findings.push_back(make(
          Severity::error, "manifest-error", manifest_path, 0,
          "fault-site registry '" + m.fault_registry +
              "' is not among the scanned sources"));
      return;
    }
    std::vector<FaultProbe> registered = scan_fault_registry(*registry_text);
    if (registered.empty()) {
      findings.push_back(make(
          Severity::error, "manifest-error", manifest_path, 0,
          "fault-site registry '" + m.fault_registry +
              "' contains no kBuiltinSites catalogue"));
      return;
    }
    stats.fault_sites_registered = registered.size();

    std::set<std::string> known;
    for (const auto& r : registered) known.insert(r.site);
    auto external = [&](const std::string& s) {
      for (const auto& rn : m.fault_external)
        if (rn.name == s) return true;
      return false;
    };

    std::set<std::string> probed;
    for (const auto& [path, text] : sources) {
      for (const auto& p : scan_fault_probes(text)) {
        ++stats.fault_probes;
        probed.insert(p.site);
        if (!known.count(p.site) && !external(p.site))
          findings.push_back(make(
              Severity::error, "unknown-fault-site", path, p.line,
              "fault site '" + p.site +
                  "' is not in the central registry (" + m.fault_registry +
                  ") and not declared external",
              "", p.site));
      }
    }
    for (const auto& r : registered) {
      if (probed.count(r.site) || external(r.site)) continue;
      findings.push_back(make(
          Severity::error, "unprobed-fault-site", m.fault_registry, r.line,
          "registered fault site '" + r.site +
              "' is never probed in the scanned sources — registry drift",
          "", r.site));
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Raw-text fault scanning
// ---------------------------------------------------------------------------

namespace {

// Comment-aware cursor over raw source text.
struct RawCursor {
  const std::string& s;
  std::size_t i = 0;
  int line = 1;

  bool at_end() const { return i >= s.size(); }
  char cur() const { return s[i]; }

  void advance() {
    if (s[i] == '\n') ++line;
    ++i;
  }

  // Skips comments and whitespace; leaves the cursor on code.
  void skip_noncode() {
    while (i < s.size()) {
      char c = s[i];
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
        continue;
      }
      if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
        while (i < s.size() && s[i] != '\n') ++i;
        continue;
      }
      if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
        i += 2;
        while (i + 1 < s.size() && !(s[i] == '*' && s[i + 1] == '/')) advance();
        i = i + 1 < s.size() ? i + 2 : s.size();
        continue;
      }
      return;
    }
  }
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Reads the "..." at the cursor (which must be on the opening quote).
bool read_string(RawCursor& rc, std::string& out) {
  if (rc.at_end() || rc.cur() != '"') return false;
  rc.advance();
  out.clear();
  while (!rc.at_end() && rc.cur() != '"') {
    if (rc.cur() == '\\') rc.advance();
    if (!rc.at_end()) {
      out.push_back(rc.cur());
      rc.advance();
    }
  }
  if (!rc.at_end()) rc.advance();
  return true;
}

}  // namespace

std::vector<FaultProbe> scan_fault_probes(const std::string& text) {
  std::vector<FaultProbe> out;
  RawCursor rc{text};
  while (!rc.at_end()) {
    rc.skip_noncode();
    if (rc.at_end()) break;
    char c = rc.cur();
    if (c == '"') {  // stray string literal: consume so quotes stay paired
      std::string dummy;
      read_string(rc, dummy);
      continue;
    }
    if (!ident_char(c) || std::isdigit(static_cast<unsigned char>(c))) {
      rc.advance();
      continue;
    }
    std::size_t start = rc.i;
    while (!rc.at_end() && ident_char(rc.cur())) rc.advance();
    std::string word = text.substr(start, rc.i - start);
    if (word != "fire" && word != "fail_errno" && word != "register_site")
      continue;
    int call_line = rc.line;
    rc.skip_noncode();
    if (rc.at_end() || rc.cur() != '(') continue;
    rc.advance();
    rc.skip_noncode();  // the probe string may sit on the next line
    std::string site;
    if (!rc.at_end() && rc.cur() == '"' && read_string(rc, site) &&
        !site.empty())
      out.push_back({site, call_line});
  }
  return out;
}

std::vector<FaultProbe> scan_fault_registry(const std::string& text) {
  std::vector<FaultProbe> out;
  std::size_t anchor = text.find("kBuiltinSites");
  if (anchor == std::string::npos) return out;
  RawCursor rc{text};
  // Position the cursor (with an accurate line count) at the catalogue.
  while (rc.i < anchor) rc.advance();
  // Entries are `{"name", "description"}` — the first string of each brace
  // group is the site name. The catalogue ends at the closing `};`.
  int depth = 0;
  bool seen_open = false;
  while (!rc.at_end()) {
    rc.skip_noncode();
    if (rc.at_end()) break;
    char c = rc.cur();
    if (c == '{') {
      ++depth;
      seen_open = true;
      rc.advance();
      rc.skip_noncode();
      if (depth >= 2 && !rc.at_end() && rc.cur() == '"') {
        FaultProbe p;
        p.line = rc.line;
        if (read_string(rc, p.site) && !p.site.empty()) out.push_back(p);
      }
      continue;
    }
    if (c == '"') {
      std::string dummy;
      read_string(rc, dummy);
      continue;
    }
    if (c == '}') {
      rc.advance();
      if (seen_open && --depth <= 0) break;
      continue;
    }
    rc.advance();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

RacecheckResult run_racecheck_on_sources(
    const std::string& manifest_text, const std::string& manifest_path,
    const std::vector<std::pair<std::string, std::string>>& sources) {
  RacecheckResult result;
  auto t0 = std::chrono::steady_clock::now();

  ConcurrencyParse cp = parse_concurrency_manifest(manifest_text);
  if (!cp.ok()) {
    // Diagnostics, not crashes: each parse problem is a finding with
    // manifest file:line provenance, and the checks don't run on a
    // half-parsed contract.
    for (const auto& d : cp.diags)
      result.findings.push_back(make(Severity::error, "manifest-error",
                                     manifest_path, d.line, d.message));
    result.stats.parse_ms = ms_since(t0);
    return result;
  }

  HookTable empty_table;
  std::vector<SourceFile> files;
  std::vector<ClassDecl> classes;
  files.reserve(sources.size());
  for (const auto& [path, text] : sources) {
    std::vector<Token> toks = lex(text);
    for (const auto& cd : scan_types(path, toks)) classes.push_back(cd);
    files.push_back(extract(path, toks, empty_table));
  }
  Corpus corpus = build_corpus(std::move(empty_table), std::move(files));
  result.stats.files = sources.size();
  result.stats.classes = classes.size();
  for (const auto& sf : corpus.files)
    result.stats.functions += sf.functions.size();
  result.stats.parse_ms = ms_since(t0);

  auto t1 = std::chrono::steady_clock::now();
  Checker checker{cp.manifest, manifest_path, corpus,
                  classes,     sources,       result.findings,
                  result.stats};
  checker.run();

  // Two [rcu.*] specs may share a cell name (one per class); passes over
  // all functions then report the same site twice.
  std::set<std::string> seen;
  std::vector<Finding> unique;
  unique.reserve(result.findings.size());
  for (auto& f : result.findings) {
    std::string key = f.cls + '\x1f' + f.file + '\x1f' +
                      std::to_string(f.line) + '\x1f' + f.message;
    if (seen.insert(key).second) unique.push_back(std::move(f));
  }
  result.findings = std::move(unique);
  result.stats.check_ms = ms_since(t1);
  return result;
}

RacecheckResult run_racecheck(const std::string& root,
                              const std::string& manifest_path) {
  RacecheckResult result;

  auto read_file = [](const fs::path& p, std::string& out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
  };

  std::string manifest_text;
  if (!read_file(manifest_path, manifest_text)) {
    result.fatal = "cannot read manifest '" + manifest_path + "'";
    return result;
  }
  ConcurrencyParse cp = parse_concurrency_manifest(manifest_text);
  if (cp.manifest.sources.empty() && cp.ok()) {
    result.fatal = "manifest lists no sources";
    return result;
  }

  std::vector<std::pair<std::string, std::string>> sources;
  std::error_code ec;
  for (const auto& dir : cp.manifest.sources) {
    fs::path base = fs::path(root) / dir;
    if (!fs::is_directory(base, ec)) {
      result.fatal =
          "source directory '" + base.generic_string() + "' does not exist";
      return result;
    }
    std::vector<fs::path> paths;
    for (auto it = fs::recursive_directory_iterator(base, ec);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file(ec)) continue;
      std::string name = it->path().generic_string();
      if (ends_with(name, ".h") || ends_with(name, ".cpp") ||
          ends_with(name, ".cc") || ends_with(name, ".hpp"))
        paths.push_back(it->path());
    }
    std::sort(paths.begin(), paths.end());
    for (const auto& p : paths) {
      std::string text;
      if (!read_file(p, text)) continue;
      std::string rel = fs::relative(p, root, ec).generic_string();
      if (ec || rel.rfind("..", 0) == 0) rel = p.generic_string();
      sources.emplace_back(std::move(rel), std::move(text));
    }
  }
  return run_racecheck_on_sources(manifest_text, manifest_path, sources);
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::vector<const Finding*> sorted(const std::vector<Finding>& findings) {
  std::vector<const Finding*> v;
  v.reserve(findings.size());
  for (const auto& f : findings) v.push_back(&f);
  std::stable_sort(v.begin(), v.end(), [](const Finding* a, const Finding* b) {
    if (a->severity != b->severity) return a->severity == Severity::error;
    if (a->file != b->file) return a->file < b->file;
    return a->line < b->line;
  });
  return v;
}

}  // namespace

std::string render_racecheck_text(const RacecheckResult& r) {
  std::ostringstream out;
  for (const Finding* f : sorted(r.findings)) {
    out << f->file << ':' << f->line << ": "
        << (f->severity == Severity::error ? "error" : "warning") << ": ["
        << f->cls << "] " << f->message << '\n';
  }
  out << "racecheck: " << count_errors(r.findings) << " error(s), "
      << count_warnings(r.findings) << " warning(s) — " << r.stats.files
      << " files, " << r.stats.functions << " functions, " << r.stats.classes
      << " classes, " << r.stats.guarded_fields << " guarded fields, "
      << r.stats.rcu_cells << " rcu cells, "
      << r.stats.fault_sites_registered << " fault sites\n";
  return out.str();
}

std::string render_racecheck_json(const RacecheckResult& r) {
  std::ostringstream out;
  out << "{\n  \"findings\": [";
  bool first = true;
  for (const Finding* f : sorted(r.findings)) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"severity\": \""
        << (f->severity == Severity::error ? "error" : "warning")
        << "\", \"class\": \"" << json_escape(f->cls) << "\", \"file\": \""
        << json_escape(f->file) << "\", \"line\": " << f->line
        << ", \"function\": \"" << json_escape(f->entry)
        << "\", \"subject\": \"" << json_escape(f->hook)
        << "\", \"message\": \"" << json_escape(f->message) << "\"}";
  }
  out << (first ? "]" : "\n  ]") << ",\n  \"stats\": {\"files\": "
      << r.stats.files << ", \"functions\": " << r.stats.functions
      << ", \"classes\": " << r.stats.classes
      << ", \"guarded_fields\": " << r.stats.guarded_fields
      << ", \"rcu_cells\": " << r.stats.rcu_cells
      << ", \"fault_sites_registered\": " << r.stats.fault_sites_registered
      << ", \"fault_probes\": " << r.stats.fault_probes
      << ", \"errors\": " << count_errors(r.findings)
      << ", \"warnings\": " << count_warnings(r.findings)
      << ", \"parse_ms\": " << r.stats.parse_ms
      << ", \"check_ms\": " << r.stats.check_ms << "}\n}\n";
  return out.str();
}

}  // namespace sack::analysis
