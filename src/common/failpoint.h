#ifndef XNF_COMMON_FAILPOINT_H_
#define XNF_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace xnf {

// Deterministic fault injection (see DESIGN.md, "Failure semantics").
//
// A *failpoint* is a named site on an error seam (buffer-pool page read,
// index insert, thread-pool task dispatch, ...). Sites are compiled in
// permanently but cost a single relaxed atomic load + predicted branch when
// no failpoint is armed; tests and the soak harness arm sites with a
// trigger and the site then returns an injected kFaultInjected Status,
// exercising the production error path exactly as a real failure would.
//
// Triggers:
//   nth(N)       fire exactly once, on the Nth hit of the site (N >= 1)
//   every(N)     fire on every Nth hit (N >= 1)
//   prob(P,SEED) fire each hit with probability P, from a per-site PRNG
//                seeded with SEED — a given (P, SEED) pair yields the same
//                fire pattern on every run
//   always       fire on every hit
//
// Spec strings ("site=trigger[,site=trigger...]") come from three places:
// Database::Options::failpoints, the SQLXNF_FAILPOINTS environment
// variable, and the shell's `.failpoint` command. The registry is
// process-global (sites live in library code far from any Database), so
// tests must DisableAll() when done.
//
// Rollback and compensation code runs under a Suppressor: failpoints never
// fire on a thread while one is alive. This encodes the recovery contract —
// undo paths are written to be infallible, so injecting faults into them
// would only test an impossible state.
class Failpoints {
 public:
  // Arms `site` with a trigger ("nth(3)", "every(2)", "prob(0.1,42)",
  // "always"). Unknown sites and malformed triggers are errors.
  static Status Enable(const std::string& site, const std::string& trigger);

  // Arms a comma-separated "site=trigger" list; empty string is a no-op.
  static Status EnableSpec(const std::string& spec);

  // Disarms one site (false if it was not armed) / all sites.
  static bool Disable(const std::string& site);
  static void DisableAll();

  // True iff any site is armed. The disabled-path cost of every failpoint.
  static bool armed() {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  // Called by XNF_FAILPOINT when armed: counts a hit against `site` and
  // returns the injected error if its trigger fires. Suppressed threads
  // never count hits and never fire.
  static Status Check(const char* site);

  // Total hits counted against `site` since it was armed (0 if not armed).
  static uint64_t hits(const std::string& site);
  // Times `site` actually fired since it was armed.
  static uint64_t fires(const std::string& site);
  // Process-lifetime total of fires across all sites; survives
  // Disable/DisableAll (arming state is reset, the trip history is not).
  // Sampled by the failpoint.trips metrics gauge.
  static uint64_t total_fires() {
    return total_fires_.load(std::memory_order_relaxed);
  }

  // One "site trigger hits=H fires=F" line per armed site, sorted by name.
  static std::vector<std::string> Describe();

  // The catalog of sites wired into the engine, sorted by name.
  static const std::vector<const char*>& KnownSites();
  static bool IsKnownSite(const std::string& site);

  // True iff a Suppressor is alive on the calling thread. ThreadPool reads
  // it in RunAll so worker threads run the batch under the caller's
  // suppression.
  static bool suppressed();

  // RAII: failpoints never fire on this thread while an instance is alive.
  // Used by rollback/compensation paths and by test-state verification so
  // probe reads do not perturb trigger schedules.
  class Suppressor {
   public:
    Suppressor();
    ~Suppressor();
    Suppressor(const Suppressor&) = delete;
    Suppressor& operator=(const Suppressor&) = delete;
  };

 private:
  static std::atomic<int> armed_count_;
  static std::atomic<uint64_t> total_fires_;
};

}  // namespace xnf

// Injection site. Expands to one relaxed load + branch when nothing is
// armed; returns the injected Status (convertible to any Result<T>) from
// the enclosing function when the site's trigger fires.
#define XNF_FAILPOINT(site)                                 \
  do {                                                      \
    if (::xnf::Failpoints::armed()) {                       \
      ::xnf::Status fp_status = ::xnf::Failpoints::Check(site); \
      if (!fp_status.ok()) return fp_status;                \
    }                                                       \
  } while (0)

#endif  // XNF_COMMON_FAILPOINT_H_
