#include "exec/plan_compiler.h"

#include <string>
#include <unordered_map>

namespace chronicle {
namespace exec {

namespace {

Result<PlanOp> LowerOp(const CaExpr& node) {
  switch (node.op()) {
    case CaOp::kScan:
      return PlanOp::kScan;
    case CaOp::kSelect:
      return PlanOp::kSelect;
    case CaOp::kProject:
      return PlanOp::kProject;
    case CaOp::kSeqJoin:
      return PlanOp::kSeqJoin;
    case CaOp::kUnion:
      return PlanOp::kUnion;
    case CaOp::kDifference:
      return PlanOp::kDifference;
    case CaOp::kGroupBySeq:
      return PlanOp::kGroupBySeq;
    case CaOp::kRelCross:
      return PlanOp::kRelCross;
    case CaOp::kRelKeyJoin:
      return PlanOp::kRelKeyJoin;
    case CaOp::kRelBoundedJoin:
      return PlanOp::kRelBoundedJoin;
    case CaOp::kProjectDropSn:
    case CaOp::kGroupByNoSn:
    case CaOp::kChronicleCross:
    case CaOp::kSeqThetaJoin:
      // The same text as the interpreter oracle (tests/oracle): one
      // diagnostic surface.
      return Status::InvalidArgument(
          std::string("operator ") + CaOpToString(node.op()) +
          " is outside chronicle algebra and cannot be maintained "
          "incrementally without chronicle access (Theorem 4.3)");
  }
  return Status::Internal("unreachable CaOp");
}

// Recursive lowering: returns the slot holding `node`'s delta, emitting
// instructions for unseen nodes in post order.
Result<uint32_t> Lower(const CaExpr& node,
                       std::unordered_map<const CaExpr*, uint32_t>* slots,
                       std::vector<PlanInstr>* instrs, size_t* shared) {
  auto memo = slots->find(&node);
  if (memo != slots->end()) {
    ++*shared;  // DAG edge resolved without re-lowering the subtree
    return memo->second;
  }
  CHRONICLE_ASSIGN_OR_RETURN(PlanOp op, LowerOp(node));
  PlanInstr instr;
  instr.op = op;
  instr.node = &node;
  if (node.num_children() >= 1) {
    CHRONICLE_ASSIGN_OR_RETURN(instr.in0,
                               Lower(*node.child(0), slots, instrs, shared));
  }
  if (node.num_children() >= 2) {
    CHRONICLE_ASSIGN_OR_RETURN(instr.in1,
                               Lower(*node.child(1), slots, instrs, shared));
  }
  const uint32_t slot = static_cast<uint32_t>(instrs->size());
  instr.out = slot;
  instrs->push_back(instr);
  slots->emplace(&node, slot);
  return slot;
}

}  // namespace

Result<DeltaPlanPtr> PlanCompiler::Compile(CaExprPtr root) {
  if (root == nullptr) {
    return Status::InvalidArgument("cannot compile a null expression");
  }
  auto plan = std::shared_ptr<DeltaPlan>(new DeltaPlan());
  plan->root_ = std::move(root);
  std::unordered_map<const CaExpr*, uint32_t> slots;
  CHRONICLE_ASSIGN_OR_RETURN(
      plan->root_slot_,
      Lower(*plan->root_, &slots, &plan->instrs_,
            &plan->shared_subexpressions_));
  // Engine decision pass: each instruction that has a vector kernel and
  // whose shape qualifies (see exec/vector_kernels.h) gets its columnar
  // payload compiled once here; the rest stay on the row engine.
  plan->vec_infos_.resize(plan->instrs_.size());
  for (size_t i = 0; i < plan->instrs_.size(); ++i) {
    plan->vec_infos_[i] = PlanVectorInstr(*plan->instrs_[i].node);
    plan->instrs_[i].columnar = plan->vec_infos_[i] != nullptr;
  }
  return DeltaPlanPtr(plan);
}

}  // namespace exec
}  // namespace chronicle
