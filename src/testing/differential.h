#ifndef XNF_TESTING_DIFFERENTIAL_H_
#define XNF_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "testing/generator.h"

namespace xnf::testing {

// One engine configuration of the differential matrix. Configurations with
// the same (use_indexes, use_rewrite) pair must produce bit-identical row
// sequences: the executed plan is the same, and parallelism and CSE are
// implementation strategies that may not change observable order. Across
// groups only multiset equality (plus ORDER BY sortedness) is required.
struct EngineConfig {
  int threads = 1;
  bool use_cse = true;  // XNF edge queries over CSE temps vs inline
  bool use_indexes = true;
  bool use_rewrite = true;
  // Default storage layout for tables created without a USING clause. NOT
  // part of PlanGroup: the storage engine (and with it the columnar kernel
  // scan and the column batches it hands to joins and aggregation) must
  // not change observable results, so a columnar engine must agree
  // bit-identically with the row engines of its plan group.
  bool column_storage = false;
  // Durability axis: the engine gets a temp data_dir and is destroyed and
  // reopened after every statement (outside transactions), so each
  // statement's result must survive a WAL replay or checkpoint restore.
  // NOT part of PlanGroup: recovery must be invisible to query results.
  bool durable = false;
  // With durable: checkpoint on every close (recovery = snapshot restore)
  // vs never (recovery = full WAL replay over the run so far).
  bool durable_checkpoint = false;

  // Group key for the bit-identical comparison.
  int PlanGroup() const { return (use_indexes ? 2 : 0) | (use_rewrite ? 1 : 0); }
  std::string Label() const;
};

// The default matrix: every (use_indexes, use_rewrite) plan group, crossed
// with serial/parallel execution, CSE on/off, row/columnar default storage
// (at least one columnar member per plan group), and durable
// reopen-per-statement engines.
std::vector<EngineConfig> DefaultMatrix();

// A detected divergence: which statement (index into the script), what the
// disagreement was, and between which parties.
struct Divergence {
  int statement = -1;          // -1 = end-of-script table-state check
  std::string statement_text;  // empty for end-of-script checks
  std::string description;
};

// Runs one script through the reference interpreter and every engine
// configuration, comparing statement-by-statement and the final base-table
// state. Returns the first divergence, or nullopt if all parties agree.
std::optional<Divergence> RunScript(const std::vector<std::string>& statements,
                                    const std::vector<EngineConfig>& configs);

// Greedily removes statements while the script still diverges. The result
// is 1-minimal: removing any single remaining statement makes the
// divergence disappear.
std::vector<std::string> MinimizeScript(
    const std::vector<std::string>& statements,
    const std::vector<EngineConfig>& configs);

struct FuzzReport {
  uint64_t seed = 0;
  bool ok = true;
  Divergence divergence;                // when !ok
  std::vector<std::string> minimized;   // minimized reproducer (when !ok)
  std::string artifact_path;            // written artifact file, if any
};

// Generates the case for `seed`, runs it, and on divergence minimizes the
// script and (if the SQLXNF_FUZZ_ARTIFACT environment variable names a file)
// writes a replayable artifact: the seed, the divergence, and the minimized
// statements.
FuzzReport RunSeed(uint64_t seed, const GenOptions& gen = GenOptions(),
                   const std::vector<EngineConfig>& configs = DefaultMatrix());

// Renders an artifact body (also used by the fuzz_runner binary).
std::string RenderArtifact(const FuzzReport& report);

}  // namespace xnf::testing

#endif  // XNF_TESTING_DIFFERENTIAL_H_
