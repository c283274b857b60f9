#ifndef XNF_TESTING_SESSIONS_H_
#define XNF_TESTING_SESSIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace xnf::testing {

// One step of an interleaved multi-session script. Steps are structured
// (not raw SQL) so the minimizer can delete arbitrary subsets and the
// harness can still interpret the survivors: every step renders to SQL via
// Sql() and carries enough metadata for the client-side visibility model.
//
// The generated grammar is policed for exact predictability:
//   - Every table is (a INT PRIMARY KEY, b INT, c INT).
//   - Session s owns primary keys [s*1000, s*1000+999]; INSERT and DELETE
//     only ever target the issuing session's own range, so a key's physical
//     existence always equals its snapshot visibility for the owner and the
//     INSERT/DELETE outcome is computable client-side.
//   - Cross-session contention comes from kUpdate steps aimed at another
//     session's range: first-committer-wins turns the racy ones into
//     serialization errors (skipped — the engine's status is ground truth
//     for conflicts), and the non-racy ones must match the model exactly.
//   - All DML is row-local with constant expressions (WHERE a = <pk>), so a
//     commit-order serial replay on a second engine reproduces the exact
//     committed state.
//   - Reads cover every indexed access path under concurrent writers: the
//     primary-key point lookup, the duplicate-returning lookup on b once a
//     kCreateIndex step has indexed it, and an index nested-loop join into
//     m1's primary key (a prologue row's c * 1000 + b is its own key).
struct SessionStep {
  enum class Kind {
    kBegin,
    kCommit,
    kRollback,
    kInsert,       // INSERT INTO <table> VALUES (<pk>, <v1>, <v2>)
    kUpdate,       // UPDATE <table> SET b = <v1>, c = <v2> WHERE a = <pk>
    kDelete,       // DELETE FROM <table> WHERE a = <pk>
    kSelectPoint,  // SELECT b, c FROM <table> WHERE a = <pk>
    kSelectCount,  // SELECT COUNT(*) FROM <table>
    kSelectAll,    // SELECT a, b, c FROM <table>
    kSelectByB,    // SELECT a, c FROM <table> WHERE b = <v1>
    kSelectJoin,   // SELECT m0.a, m1.a, m1.b, m1.c FROM m0 JOIN m1
                   //   ON m0.c * 1000 + m0.b = m1.a
    kCreateIndex,  // CREATE INDEX idx_<table>_<pk> ON <table> (b)
  };

  int session = 1;  // 1-based; each id maps to one Database session
  Kind kind = Kind::kSelectCount;
  std::string table;
  int64_t pk = 0;  // doubles as the uniquifier for kCreateIndex names
  int64_t v1 = 0;
  int64_t v2 = 0;

  std::string Sql() const;
};

struct SessionGenOptions {
  int sessions = 3;  // concurrent sessions (clamped to [2, 4])
  int steps = 40;    // interleaved steps after the fixed prologue
};

// Deterministically generates an interleaved script from a seed (splitmix64,
// same everywhere). The schema/data prologue is fixed and not part of the
// returned steps, so the minimizer never destroys the tables.
std::vector<SessionStep> GenerateSessionCase(
    uint64_t seed, const SessionGenOptions& options = SessionGenOptions());

struct SessionDivergence {
  int step = -1;          // -1 = end-of-script state check
  std::string step_text;  // rendered SQL, empty for end-of-script checks
  std::string description;
};

// Runs one interleaved script against the engine (with the given default
// storage layout) and checks it three ways:
//   - every SELECT against a client-side snapshot-visibility model
//     (snapshot at BEGIN + the transaction's own writes);
//   - every out-of-transaction SELECT and the final per-table state against
//     a commit-order serial replay on a second engine (committed
//     transactions' statements applied at their COMMIT point, rolled-back
//     transactions discarded);
//   - every in-transaction SELECT re-executed just before the transaction
//     ends (snapshot stability: the result may only change if the session
//     itself wrote the table in between).
// Returns the first divergence, or nullopt.
std::optional<SessionDivergence> RunSessionScript(
    const std::vector<SessionStep>& steps, bool column_storage);

// ddmin over interleaved steps: chunked passes then single-step passes until
// the surviving script is 1-minimal for the divergence.
std::vector<SessionStep> MinimizeSessionScript(
    const std::vector<SessionStep>& steps, bool column_storage);

struct SessionFuzzReport {
  uint64_t seed = 0;
  bool ok = true;
  std::string layout;  // "row" or "column": which engine layout diverged
  SessionDivergence divergence;        // when !ok
  std::vector<SessionStep> minimized;  // when !ok
  std::string artifact_path;
};

// Generates the case for `seed`, runs it against both storage layouts, and
// on divergence minimizes the script and (if SQLXNF_FUZZ_ARTIFACT names a
// file) appends a replayable artifact.
SessionFuzzReport RunSessionSeed(
    uint64_t seed, const SessionGenOptions& options = SessionGenOptions());

std::string RenderSessionArtifact(const SessionFuzzReport& report);

}  // namespace xnf::testing

#endif  // XNF_TESTING_SESSIONS_H_
