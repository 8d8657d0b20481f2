// DeltaEngine: incremental change propagation through chronicle-algebra
// expressions (Theorems 4.1 and 4.2).
//
// Given one append event (everything inserted under one fresh sequence
// number), the engine computes the delta of any CA expression by one
// recursive pass over the operator tree, using ONLY:
//   * the appended tuples themselves, and
//   * current relation versions (via index lookups for CA_⋈).
// Neither the base chronicles nor any intermediate chronicle view is read
// or materialized — this is what makes the cost independent of |C| and of
// the view size.
//
// Correctness rests on the monotonicity theorem (4.1): all delta rows of a
// tick carry the tick's (fresh) sequence number, so for every operator the
// delta of the output is a function of the deltas of the inputs alone. In
// particular Δ(E1 − E2) = ΔE1 − ΔE2 and Δ(E1 ⋈_SN E2) = ΔE1 ⋈ ΔE2.
//
// Semantics: a chronicle is a *set* of (SN, payload) rows. Within a tick,
// Scan / Project / Union therefore deduplicate; Difference is set
// difference. The baseline engine (baseline/naive_engine.h) implements the
// same semantics so the two can be compared row-for-row in tests.
//
// The engine refuses expressions outside CA (use ValidateChronicleAlgebra
// first; the engine re-checks defensively and returns InvalidArgument).
//
// Test-only: the maintenance path runs compiled exec::DeltaPlans. This
// tree-walking interpreter is kept as an independent oracle that the
// plan-equivalence fuzz and the property tests compare them against.

#ifndef CHRONICLE_TESTS_ORACLE_DELTA_ENGINE_H_
#define CHRONICLE_TESTS_ORACLE_DELTA_ENGINE_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "algebra/ca_expr.h"
#include "common/status.h"
#include "exec/delta_plan.h"
#include "storage/chronicle_group.h"

namespace chronicle {

// Per-tick memo of node deltas, keyed by expression node identity. Because
// CaExpr trees are shared-const DAGs, several views defined over common
// subexpressions (the same scan, the same guarded selection, ...) can reuse
// one DeltaCache within a tick and each subexpression's delta is computed
// exactly once. A cache is only valid for the single AppendEvent it was
// created for — callers reset it per tick.
class DeltaCache {
 public:
  void Clear() { memo_.clear(); }
  size_t size() const { return memo_.size(); }

  // Cache hits observed since construction.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  // Folds another cache's hit/miss counters into this one (per-thread
  // caches merged after a concurrent run).
  void MergeCounters(const DeltaCache& other) {
    hits_ += other.hits_;
    misses_ += other.misses_;
  }

 private:
  friend class DeltaEngine;
  std::unordered_map<const CaExpr*, std::vector<Tuple>> memo_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Thread safety: the engine is stateless and ComputeDelta is const — it
// reads only the event, the (shared-const) expression DAG, and the current
// relation versions through const lookups. Concurrent ComputeDelta calls
// are safe provided (a) each call uses its own DeltaCache (or none) — the
// cache is the ONLY state mutated during delta computation — and (b) no
// relation referenced by the plans is mutated concurrently.
class DeltaEngine {
 public:
  DeltaEngine() = default;

  // Computes the delta rows `expr` gains from `event`. All returned rows
  // carry event.sn. `stats` may be null. When `cache` is non-null it must
  // belong to this event's tick (share it across plans of one tick, clear
  // it between ticks) and must not be shared across threads.
  Result<std::vector<ChronicleRow>> ComputeDelta(const CaExpr& expr,
                                                 const AppendEvent& event,
                                                 DeltaStats* stats,
                                                 DeltaCache* cache) const;

  Result<std::vector<ChronicleRow>> ComputeDelta(const CaExpr& expr,
                                                 const AppendEvent& event,
                                                 DeltaStats* stats) const {
    return ComputeDelta(expr, event, stats, nullptr);
  }

  Result<std::vector<ChronicleRow>> ComputeDelta(const CaExpr& expr,
                                                 const AppendEvent& event) const {
    return ComputeDelta(expr, event, nullptr, nullptr);
  }

 private:
  // Recursive worker: computes (or fetches) the payload-tuple delta of
  // `expr` inside `cache` and returns a pointer to the cached vector.
  Result<const std::vector<Tuple>*> Delta(const CaExpr& expr,
                                          const AppendEvent& event,
                                          DeltaStats* stats,
                                          DeltaCache* cache) const;
};

}  // namespace chronicle

#endif  // CHRONICLE_TESTS_ORACLE_DELTA_ENGINE_H_
