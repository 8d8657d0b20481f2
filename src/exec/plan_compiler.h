// Lowering of chronicle-algebra DAGs into flat DeltaPlans.
//
// Compilation happens once, at view-registration time — never on the
// append path. Every maintained view is compiled here: persistent views
// (ViewManager::AddView), periodic view sets and sliding windows (their
// Make factories). The compiler walks the shared-const CaExpr DAG in post
// order, assigns each DISTINCT node one output slot, and emits one
// instruction per distinct node: a subexpression reachable through many
// parents (the same scan under every branch of a union fan) is compiled
// once and referenced by slot thereafter, so sharing is paid at compile
// time instead of memoized per tick.
//
// The compiler is the one error surface for plans outside chronicle
// algebra: the four Theorem 4.3 constructs are rejected here, with the
// same diagnostic the test-only interpreter oracle gives.

#ifndef CHRONICLE_EXEC_PLAN_COMPILER_H_
#define CHRONICLE_EXEC_PLAN_COMPILER_H_

#include "algebra/ca_expr.h"
#include "common/status.h"
#include "exec/delta_plan.h"

namespace chronicle {
namespace exec {

class PlanCompiler {
 public:
  // Compiles `root` (which the plan retains, keeping the DAG alive) into
  // an executable DeltaPlan. Fails with InvalidArgument on any operator
  // outside chronicle algebra (Theorem 4.3).
  static Result<DeltaPlanPtr> Compile(CaExprPtr root);
};

// Convenience wrapper.
inline Result<DeltaPlanPtr> CompileDeltaPlan(CaExprPtr root) {
  return PlanCompiler::Compile(std::move(root));
}

}  // namespace exec
}  // namespace chronicle

#endif  // CHRONICLE_EXEC_PLAN_COMPILER_H_
