#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "exec/dml.h"

namespace xnfbench {

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
  if (rank < 1) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

xnf::Database::Options BaseOptions() {
  xnf::Database::Options options;
  options.threads = 1;
  return options;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  notes_.push_back("INCORRECT: " + why);
}

void Report::AddUnitMetrics(const std::vector<double>& done_s,
                            const Samples& latency, double seconds) {
  const size_t windows = static_cast<size_t>(seconds);
  std::vector<double> count(windows, 0.0);
  for (double t : done_s) {
    if (t >= 0 && t < windows) count[static_cast<size_t>(t)] += 1;
  }
  std::vector<size_t> by_count(windows);
  std::iota(by_count.begin(), by_count.end(), 0);
  std::stable_sort(by_count.begin(), by_count.end(),
                   [&](size_t a, size_t b) { return count[a] > count[b]; });
  const size_t kept = std::max<size_t>(1, windows / 4);
  std::vector<bool> fast(windows, false);
  double units = 0;
  for (size_t w = 0; w < kept; ++w) {
    fast[by_count[w]] = true;
    units += count[by_count[w]];
  }
  Samples fast_latency;
  for (size_t k = 0; k < done_s.size(); ++k) {
    const double t = done_s[k];
    if (t >= 0 && t < windows && fast[static_cast<size_t>(t)]) {
      fast_latency.Add(latency.values()[k]);
    }
  }
  Add("ops_per_s", units / kept, "1/s");
  Add("unit_p50_us", fast_latency.Median(), "us");
  Add("unit_p90_us", fast_latency.Percentile(90), "us");
  std::string note = "units per one-second window:";
  for (double c : count) note += " " + std::to_string(static_cast<int>(c));
  Note(note + "; the fastest " + std::to_string(kept) + " are measured");
  NoteLatency("unit, fastest windows", fast_latency);
  NoteLatency("unit, whole run", latency);
}

void Report::NoteLatency(const std::string& what, const Samples& s) {
  std::string note = what + ": n=" + std::to_string(s.count()) +
                     " p50=" + std::to_string(s.Median()) +
                     "us p90=" + std::to_string(s.Percentile(90)) + "us";
  if (s.HasP99()) note += " p99=" + std::to_string(s.Percentile(99)) + "us";
  Note(note + " max=" + std::to_string(s.Percentile(100)) + "us");
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(const std::string& stamp_json) const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  std::printf("stamp %s\n", stamp_json.c_str());
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics_[i].first << "\": {\"value\": "
        << JsonNumber(metrics_[i].second.first) << ", \"unit\": \""
        << metrics_[i].second.second << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

MetricsSnapshot MetricsSnapshot::Take(const xnf::MetricsRegistry* registry) {
  MetricsSnapshot snap;
  if (registry == nullptr) return snap;
  for (const auto& s : registry->Snapshot()) {
    if (s.kind == "counter" || s.kind == "gauge") {
      snap.values_[s.name] = s.value;
    } else if (s.kind == "histogram_count") {
      snap.values_[s.name + "#count"] = s.value;
    } else if (s.kind == "histogram_sum") {
      snap.values_[s.name + "#sum"] = s.value;
    }
  }
  return snap;
}

int64_t MetricsSnapshot::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::SumMatching(const std::string& prefix,
                                     const std::string& suffix) const {
  int64_t total = 0;
  for (const auto& [name, value] : values_) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

MetricsSnapshot MetricsSnapshot::operator-(
    const MetricsSnapshot& before) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : values_) {
    delta.values_[name] = value - before.Get(name);
  }
  return delta;
}

void AggregatingTraceSink::BeginSpan(const std::string& name,
                                     const std::string& /*detail*/) {
  std::lock_guard<std::mutex> lock(mu_);
  stacks_[std::this_thread::get_id()].push_back(Frame{name, 0});
}

void AggregatingTraceSink::EndSpan(uint64_t duration_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Frame>& stack = stacks_[std::this_thread::get_id()];
  if (stack.empty()) return;
  Frame frame = std::move(stack.back());
  stack.pop_back();
  const std::string parent = stack.empty() ? "" : stack.back().name;
  if (!stack.empty()) stack.back().child_ns += duration_ns;
  Totals& t = totals_[{parent, frame.name}];
  ++t.count;
  t.total_ns += duration_ns;
  // A child measured across the parent's own sink calls can overrun it by
  // a few ns; clamp rather than wrap.
  t.self_ns += duration_ns > frame.child_ns ? duration_ns - frame.child_ns : 0;
}

std::map<std::pair<std::string, std::string>, AggregatingTraceSink::Totals>
AggregatingTraceSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

uint64_t AggregatingTraceSink::SelfNs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, t] : totals_) {
    if (key.second == name) total += t.self_ns;
  }
  return total;
}

uint64_t AggregatingTraceSink::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, t] : totals_) {
    if (key.second == name) total += t.count;
  }
  return total;
}

double AddTraceTable(const AggregatingTraceSink& sink, double units,
                     const std::vector<std::string>& root_spans,
                     Report* report) {
  const auto totals = sink.Snapshot();
  uint64_t all_self = 0;
  for (const auto& [key, t] : totals) all_self += t.self_ns;
  std::vector<std::pair<uint64_t, std::string>> rows;
  uint64_t unattributed = 0;
  for (const auto& [key, t] : totals) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-22s %-22s %10llu %12.2f %6.1f%%",
                  key.first.empty() ? "-" : key.first.c_str(),
                  key.second.c_str(),
                  static_cast<unsigned long long>(t.count),
                  t.self_ns / 1e3 / units,
                  all_self > 0 ? 100.0 * t.self_ns / all_self : 0.0);
    rows.push_back({t.self_ns, line});
    const bool root = std::find(root_spans.begin(), root_spans.end(),
                                key.second) != root_spans.end();
    if (root || key.second == "statement") unattributed += t.self_ns;
  }
  std::sort(rows.rbegin(), rows.rend());
  report->Note("where the time goes (traced, self time per unit of work):");
  report->Note("parent                 span                        count"
               "   self_us/op  share");
  for (const auto& row : rows) report->Note(row.second);
  char line[160];
  std::snprintf(line, sizeof(line),
                "unattributed (statement dispatcher + unit root self time): "
                "%.2f us/op (%.1f%%)",
                unattributed / 1e3 / units,
                all_self > 0 ? 100.0 * unattributed / all_self : 0.0);
  report->Note(line);
  return unattributed / 1e3 / units;
}

void AddSpanLayerMetrics(const AggregatingTraceSink& sink, double units,
                         bool xnf, Report* report) {
  struct Layer {
    const char* metric;
    std::vector<const char*> spans;
  };
  std::vector<Layer> layers = {
      {"sql.parse_us", {"parse"}},
      {"qgm.build_us", {"qgm-build"}},
      {"qgm.rewrite_us", {"rewrite", "rewrite-pass", "constant-fold"}},
      {"plan.plan_us", {"plan"}},
      {"exec.execute_us", {"execute"}},
  };
  if (xnf) {
    layers.push_back({"xnf.resolve_us", {"resolve"}});
    layers.push_back({"xnf.nodes_us", {"materialize-nodes"}});
    layers.push_back({"xnf.cse_temps_us", {"cse-temps"}});
    layers.push_back({"xnf.edges_us", {"materialize-edges"}});
    layers.push_back({"xnf.reachability_us", {"reachability"}});
  }
  for (const Layer& layer : layers) {
    uint64_t ns = 0, count = 0;
    for (const char* span : layer.spans) {
      ns += sink.SelfNs(span);
      count += sink.Count(span);
    }
    if (count > 0) report->Add(layer.metric, ns / 1e3 / units, "us");
  }
}

namespace {

// Rows the storage layer handed out: point reads plus whole heap pages and
// column row groups scanned (64 rows each at the default page size).
double RowsExamined(const MetricsSnapshot& delta) {
  constexpr double kRowsPerPage = 64;  // Options::tuples_per_page default
  return static_cast<double>(delta.Get("storage.heap.reads")) +
         kRowsPerPage * (delta.Get("storage.heap.scan_pages") +
                         delta.Get("storage.column.group_reads"));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void AddEngineMetrics(const MetricsSnapshot& m, double ops,
                      double rows_returned, Report* report) {
  report->Add("api.stmt_self_us",
              Ratio(m.SumMatching("stmt.latency_us.", "#sum"),
                    m.SumMatching("stmt.latency_us.", "#count")),
              "us");
  report->Add("exec.rows_examined_per_row_returned",
              Ratio(RowsExamined(m), rows_returned), "ratio");
  for (const char* kind : {"heap", "index", "column"}) {
    report->Add(std::string("storage.bp_accesses_per_op.") + kind,
                Ratio(m.Get(std::string("bufferpool.") + kind + ".accesses"),
                      ops),
                "count");
  }
  report->Add("storage.bp_faults_per_op",
              Ratio(m.Get("bufferpool.faults"), ops), "count");
  report->Add("storage.bp_evictions",
              Ratio(m.Get("bufferpool.evictions"), ops), "count");
  report->Add("storage.heap_scan_pages_per_op",
              Ratio(m.Get("storage.heap.scan_pages"), ops), "count");
  report->Add("storage.column_segment_views_per_op",
              Ratio(m.Get("storage.column.segment_views"), ops), "count");
}

BulkLoader::BulkLoader(xnf::Database* db, const std::string& table)
    : catalog_(db->catalog()), table_(db->catalog()->GetTable(table)) {
  if (table_ == nullptr) SetupCheck(xnf::Status::NotFound(table), "bulk load");
}

void BulkLoader::Add(xnf::Row row) {
  xnf::exec::DmlExecutor dml(catalog_);
  SetupCheck(dml.InsertRow(table_, std::move(row)).status(),
             "bulk load into " + table_->name);
}

void AddTraceSummary(const AggregatingTraceSink& sink, double plain_rate,
                     double traced_units, double traced_wall_s, bool xnf,
                     const std::vector<std::string>& root_spans,
                     Report* report) {
  AddSpanLayerMetrics(sink, traced_units, xnf, report);
  report->Add("bench.unattributed_us",
              AddTraceTable(sink, traced_units, root_spans, report), "us");
  const double traced_rate = traced_units / traced_wall_s;
  report->Add("bench.trace_overhead_share", 1.0 - traced_rate / plain_rate,
              "ratio");
  report->Note("tracing overhead: untraced " + std::to_string(plain_rate) +
               " units/s, traced " + std::to_string(traced_rate) +
               " units/s");
}

int64_t AsInt64(const xnf::Value& v) {
  if (v.is_int()) return v.AsInt();
  if (v.is_double()) return std::llround(v.AsDouble());
  return 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

void SetupCheck(const xnf::Status& status, const std::string& what) {
  if (!status.ok()) {
    std::fprintf(stderr, "xnfbench: set-up failed (%s): %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace xnfbench
