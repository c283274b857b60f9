#include "common/failpoint.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <random>

namespace xnf {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

enum class TriggerMode { kNth, kEvery, kProb, kAlways };

struct Site {
  TriggerMode mode = TriggerMode::kAlways;
  uint64_t n = 1;          // kNth / kEvery parameter
  double p = 0.0;          // kProb parameter
  std::mt19937_64 rng;     // kProb: per-site stream, seeded at Enable time
  std::string trigger;     // original trigger text, for Describe()
  uint64_t hits = 0;
  uint64_t fires = 0;
};

// Registry state. A plain mutex is fine: Check() is only reached when at
// least one site is armed, i.e. under test.
std::mutex g_mu;
std::map<std::string, Site>& Sites() {
  static auto* sites = new std::map<std::string, Site>();
  return *sites;
}

thread_local int t_suppress_depth = 0;

bool ParseTrigger(const std::string& trigger, Site* site) {
  site->trigger = trigger;
  if (trigger == "always") {
    site->mode = TriggerMode::kAlways;
    return true;
  }
  size_t open = trigger.find('(');
  if (open == std::string::npos || trigger.back() != ')') return false;
  std::string name = trigger.substr(0, open);
  std::string args = trigger.substr(open + 1, trigger.size() - open - 2);
  if (name == "nth" || name == "every") {
    site->mode = name == "nth" ? TriggerMode::kNth : TriggerMode::kEvery;
    char* end = nullptr;
    unsigned long long v = std::strtoull(args.c_str(), &end, 10);
    if (end == args.c_str() || *end != '\0' || v == 0) return false;
    site->n = v;
    return true;
  }
  if (name == "prob") {
    site->mode = TriggerMode::kProb;
    size_t comma = args.find(',');
    if (comma == std::string::npos) return false;
    std::string p_str = args.substr(0, comma);
    std::string seed_str = args.substr(comma + 1);
    char* end = nullptr;
    double p = std::strtod(p_str.c_str(), &end);
    if (end == p_str.c_str() || *end != '\0' || p < 0.0 || p > 1.0)
      return false;
    unsigned long long seed = std::strtoull(seed_str.c_str(), &end, 10);
    if (end == seed_str.c_str() || *end != '\0') return false;
    site->p = p;
    site->rng.seed(seed);
    return true;
  }
  return false;
}

}  // namespace

std::atomic<int> Failpoints::armed_count_{0};
std::atomic<uint64_t> Failpoints::total_fires_{0};

const std::vector<const char*>& Failpoints::KnownSites() {
  static const std::vector<const char*> kSites = {
      "bufferpool.evict",     //
      "bufferpool.read",      //
      "checkpoint.begin",     //
      "checkpoint.manifest",  //
      "checkpoint.sync",      //
      "cocache.fill",         //
      "column.append",        //
      "column.read",          //
      "column.write",         //
      "dml.apply.delete",     //
      "dml.apply.insert",     //
      "dml.apply.update",     //
      "heap.append",          //
      "heap.read",            //
      "heap.write",           //
      "index.erase",          //
      "index.insert",         //
      "page.flush",           //
      "threadpool.task",      //
      "wal.append",           //
      "wal.fsync",            //
      "xnf.edge.query",       //
      "xnf.node.query",       //
  };
  return kSites;
}

bool Failpoints::IsKnownSite(const std::string& site) {
  const auto& known = KnownSites();
  return std::any_of(known.begin(), known.end(),
                     [&](const char* s) { return site == s; });
}

Status Failpoints::Enable(const std::string& site,
                          const std::string& trigger) {
  if (!IsKnownSite(site)) {
    return Status::InvalidArgument("unknown failpoint site '" + site + "'");
  }
  Site parsed;
  if (!ParseTrigger(trigger, &parsed)) {
    return Status::InvalidArgument(
        "bad failpoint trigger '" + trigger +
        "' (want nth(N), every(N), prob(P,SEED), or always)");
  }
  std::lock_guard<std::mutex> lock(g_mu);
  auto [it, inserted] = Sites().insert_or_assign(site, std::move(parsed));
  (void)it;
  if (inserted) armed_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

namespace {

// Splits a spec on commas at paren depth zero, so "prob(0.3,7)" stays one
// part while still separating "a=nth(1),b=always".
std::vector<std::string> SplitSpec(const std::string& spec) {
  std::vector<std::string> out;
  std::string part;
  int depth = 0;
  for (char c : spec) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(Trim(part));
      part.clear();
    } else {
      part.push_back(c);
    }
  }
  out.push_back(Trim(part));
  return out;
}

}  // namespace

Status Failpoints::EnableSpec(const std::string& spec) {
  for (const std::string& part : SplitSpec(spec)) {
    if (part.empty()) continue;
    size_t eq = part.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad failpoint spec '" + part +
                                     "' (want site=trigger)");
    }
    XNF_RETURN_IF_ERROR(
        Enable(Trim(part.substr(0, eq)), Trim(part.substr(eq + 1))));
  }
  return Status::Ok();
}

bool Failpoints::Disable(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (Sites().erase(site) == 0) return false;
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void Failpoints::DisableAll() {
  std::lock_guard<std::mutex> lock(g_mu);
  armed_count_.fetch_sub(static_cast<int>(Sites().size()),
                         std::memory_order_relaxed);
  Sites().clear();
}

Status Failpoints::Check(const char* site) {
  if (t_suppress_depth > 0) return Status::Ok();
  std::lock_guard<std::mutex> lock(g_mu);
  auto it = Sites().find(site);
  if (it == Sites().end()) return Status::Ok();
  Site& s = it->second;
  ++s.hits;
  bool fire = false;
  switch (s.mode) {
    case TriggerMode::kNth:
      fire = s.hits == s.n;
      break;
    case TriggerMode::kEvery:
      fire = s.hits % s.n == 0;
      break;
    case TriggerMode::kProb:
      fire = std::bernoulli_distribution(s.p)(s.rng);
      break;
    case TriggerMode::kAlways:
      fire = true;
      break;
  }
  if (!fire) return Status::Ok();
  ++s.fires;
  total_fires_.fetch_add(1, std::memory_order_relaxed);
  return Status::FaultInjected("failpoint '" + std::string(site) +
                               "' fired on hit " + std::to_string(s.hits));
}

uint64_t Failpoints::hits(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mu);
  auto it = Sites().find(site);
  return it == Sites().end() ? 0 : it->second.hits;
}

uint64_t Failpoints::fires(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mu);
  auto it = Sites().find(site);
  return it == Sites().end() ? 0 : it->second.fires;
}

std::vector<std::string> Failpoints::Describe() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<std::string> out;
  out.reserve(Sites().size());
  for (const auto& [name, s] : Sites()) {
    out.push_back(name + " " + s.trigger + " hits=" + std::to_string(s.hits) +
                  " fires=" + std::to_string(s.fires));
  }
  return out;
}

bool Failpoints::suppressed() { return t_suppress_depth > 0; }

Failpoints::Suppressor::Suppressor() { ++t_suppress_depth; }
Failpoints::Suppressor::~Suppressor() { --t_suppress_depth; }

}  // namespace xnf
