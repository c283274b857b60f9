#ifndef XNF_PERFBENCH_WORKLOADS_H_
#define XNF_PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace xnfbench {

// What a workload reports for the result stamp.
struct RunInfo {
  int dop = 0;          // effective Database::threads()
  int clients = 1;      // closed-loop clients
  std::string options;  // non-default Database::Options, "" if none
};

// Each runs set-up, the measured phase(s) and the correctness checks, and
// fills `report` with the end-to-end (untraced) or per-layer (traced)
// metrics.
RunInfo RunWsDesign(const Config& config, Report* report);
RunInfo RunCoBulk(const Config& config, Report* report);
RunInfo RunSqlShared(const Config& config, Report* report);

}  // namespace xnfbench

#endif  // XNF_PERFBENCH_WORKLOADS_H_
