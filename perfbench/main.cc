// The xnfbench program. One process runs one workload:
//
//   xnfbench --workload ws_design|co_bulk|sql_shared --seed N --seconds S
//            --trace 0|1 [--commit ID] [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 measures an
// untraced and a traced half and reports the per-layer metrics. The last
// stdout line is the JSON result; README.md documents every metric.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "xnfbench: %s\nusage: xnfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--commit ID] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  xnfbench::Config config;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      config.workload = value();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      config.seconds = std::atoi(value().c_str());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      config.trace = value() == "1";
    } else if (std::strcmp(argv[i], "--commit") == 0) {
      commit = value();
    } else if (std::strcmp(argv[i], "--work-dir") == 0) {
      config.work_dir = value();
    } else {
      Usage("unknown argument");
    }
  }
  if (config.seconds < 1) Usage("--seconds must be >= 1");

  xnfbench::Report report;
  xnfbench::RunInfo info;
  if (config.workload == "ws_design") {
    info = xnfbench::RunWsDesign(config, &report);
  } else if (config.workload == "co_bulk") {
    info = xnfbench::RunCoBulk(config, &report);
  } else if (config.workload == "sql_shared") {
    info = xnfbench::RunSqlShared(config, &report);
  } else {
    Usage("unknown workload");
  }

  // The stamp: everything needed to compare this record across commits.
  std::string stamp =
      "{\"workload\": " + JsonString(config.workload) +
      ", \"seed\": " + std::to_string(config.seed) +
      ", \"seconds\": " + std::to_string(config.seconds) +
      ", \"trace\": " + (config.trace ? "1" : "0") +
      ", \"commit\": " + JsonString(commit) +
      ", \"build_type\": " + JsonString(XNFBENCH_BUILD_TYPE) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"threads\": " + std::to_string(info.dop) +
      ", \"clients\": " + std::to_string(info.clients) +
      ", \"options\": " + JsonString(info.options) + "}";
  report.Print(stamp);
  return 0;
}
