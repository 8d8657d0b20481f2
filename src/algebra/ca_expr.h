// Chronicle Algebra (CA) expression trees — Definition 4.1 of the paper.
//
// Every CA operator maps chronicles (of one chronicle group) to a chronicle
// in the same group. The sequencing attribute is never a payload column: it
// rides along structurally (types/tuple.h), so the legal operators preserve
// it by construction:
//
//   Scan        — a base chronicle
//   Select      — σ_p(C)
//   Project     — Π_{A...}(C), SN always kept
//   SeqJoin     — C1 ⋈_{C1.SN = C2.SN} C2 (same group)
//   Union       — C1 ∪ C2 (same type, same group)
//   Difference  — C1 − C2 (same type, same group)
//   GroupBySeq  — GROUPBY(C, GL ∋ SN, AL)
//   RelCross    — C × R (implicit temporal join: R's current version)
//   RelKeyJoin  — C ⋈_{C.a = R.key} R, at most one R-tuple per C-tuple (CA_⋈)
//
// The four constructs Theorem 4.3 excludes are also representable —
// ProjectDropSn, GroupByNoSn, ChronicleCross, SeqThetaJoin — so that
// algebra/validate.h can reject them with precise diagnostics and the
// baseline engine can demonstrate *why* they are excluded (their maintenance
// cost depends on |C|). The plan compiler (exec/plan_compiler.h) refuses
// to lower them.
//
// Nodes are immutable after construction and shared via shared_ptr<const>,
// so subexpressions can be reused across view definitions.

#ifndef CHRONICLE_ALGEBRA_CA_EXPR_H_
#define CHRONICLE_ALGEBRA_CA_EXPR_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "aggregates/aggregate.h"
#include "algebra/scalar_expr.h"
#include "common/status.h"
#include "storage/chronicle.h"
#include "storage/relation.h"
#include "types/schema.h"

namespace chronicle {

enum class CaOp : uint8_t {
  kScan = 0,
  kSelect,
  kProject,
  kSeqJoin,
  kUnion,
  kDifference,
  kGroupBySeq,
  kRelCross,
  kRelKeyJoin,
  kRelBoundedJoin,
  // --- outside chronicle algebra (Theorem 4.3) ---
  kProjectDropSn,   // would not yield a chronicle
  kGroupByNoSn,     // would not yield a chronicle
  kChronicleCross,  // maintenance cost depends on |C|
  kSeqThetaJoin,    // non-equijoin on SN: cost depends on |C|
};

const char* CaOpToString(CaOp op);

class CaExpr {
 public:
  using Ptr = std::shared_ptr<const CaExpr>;

  // --- legal CA constructors (Definition 4.1) ---

  // Base chronicle. `schema` is the payload schema of the chronicle.
  static Result<Ptr> Scan(ChronicleId id, std::string name, Schema schema);
  // Overload taking the chronicle object directly.
  static Result<Ptr> Scan(const Chronicle& chronicle);

  // σ_p(child). The predicate is bound against the child schema here.
  static Result<Ptr> Select(Ptr child, ScalarExprPtr predicate);

  // Π_{columns}(child); the SN is kept implicitly.
  static Result<Ptr> Project(Ptr child, std::vector<std::string> columns);

  // child1 ⋈_{SN} child2; payload schemas are concatenated (right-side
  // collisions prefixed with `right_prefix`, default "r").
  static Result<Ptr> SeqJoin(Ptr left, Ptr right,
                             std::string right_prefix = "r");

  // Set union / difference; operands must have identical payload schemas.
  static Result<Ptr> Union(Ptr left, Ptr right);
  static Result<Ptr> Difference(Ptr left, Ptr right);

  // GROUPBY with the SN implicitly in the grouping list: groups are formed
  // *within* each sequence number.
  static Result<Ptr> GroupBySeq(Ptr child, std::vector<std::string> group_columns,
                                std::vector<AggSpec> aggregates);

  // child × relation, with the model's implicit temporal join: the cross
  // product always uses the relation's current version. `relation` must
  // outlive the expression (relations are owned by the database).
  static Result<Ptr> RelCross(Ptr child, const Relation* relation);

  // child ⋈ relation on `chronicle_column` = relation key (CA_⋈): at most
  // one relation tuple joins each chronicle tuple. Inner join semantics.
  static Result<Ptr> RelKeyJoin(Ptr child, const Relation* relation,
                                const std::string& chronicle_column);

  // The general CA_⋈ admission rule of Definition 4.2: an equijoin with "a
  // guarantee (based on the schema and integrity constraints) that at most
  // a constant number of relation tuples join with each chronicle tuple".
  // `max_matches` declares that constant; the relation must have a
  // secondary index on `relation_column` so each lookup is one probe. The
  // guarantee is an integrity constraint: maintenance fails with
  // FailedPrecondition if a chronicle tuple ever matches more rows.
  static Result<Ptr> RelBoundedJoin(Ptr child, const Relation* relation,
                                    const std::string& chronicle_column,
                                    const std::string& relation_column,
                                    size_t max_matches);

  // --- Theorem 4.3 counterexample constructors (rejected by validation) ---

  static Result<Ptr> ProjectDropSn(Ptr child, std::vector<std::string> columns);
  static Result<Ptr> GroupByNoSn(Ptr child, std::vector<std::string> group_columns,
                                 std::vector<AggSpec> aggregates);
  static Result<Ptr> ChronicleCross(Ptr left, Ptr right,
                                    std::string right_prefix = "r");
  // theta must not be kEq (that would be SeqJoin).
  static Result<Ptr> SeqThetaJoin(Ptr left, Ptr right, CompareOp theta,
                                  std::string right_prefix = "r");

  // --- inspection ---

  CaOp op() const { return op_; }
  const Schema& schema() const { return schema_; }
  const std::string& label() const { return label_; }

  size_t num_children() const { return children_.size(); }
  const Ptr& child(size_t i) const { return children_[i]; }

  ChronicleId chronicle_id() const { return chronicle_id_; }      // kScan
  const ScalarExpr* predicate() const { return predicate_.get(); }  // kSelect
  const std::vector<size_t>& projection() const { return projection_; }
  const std::vector<size_t>& group_columns() const { return group_columns_; }
  const std::vector<AggSpec>& aggregates() const { return aggregates_; }
  const Relation* relation() const { return relation_; }
  // kRelKeyJoin / kRelBoundedJoin: child column on the chronicle side.
  size_t join_column() const { return join_column_; }
  // kRelBoundedJoin: relation-side column and declared match bound.
  size_t relation_column() const { return relation_column_; }
  size_t max_matches() const { return max_matches_; }
  CompareOp theta() const { return theta_; }  // kSeqThetaJoin

  // All base chronicles this expression reads.
  void CollectBaseChronicles(std::set<ChronicleId>* out) const;
  // All relations this expression joins against.
  void CollectRelations(std::set<const Relation*>* out) const;

  // Operator-tree rendering for diagnostics, one node per line.
  std::string ToString() const;

 private:
  explicit CaExpr(CaOp op) : op_(op) {}

  void ToStringRec(int indent, std::string* out) const;

  CaOp op_;
  Schema schema_;
  std::string label_;
  std::vector<Ptr> children_;

  ChronicleId chronicle_id_ = 0;
  ScalarExprPtr predicate_;
  std::vector<size_t> projection_;
  std::vector<size_t> group_columns_;
  std::vector<AggSpec> aggregates_;
  const Relation* relation_ = nullptr;
  size_t join_column_ = 0;
  size_t relation_column_ = 0;
  size_t max_matches_ = 0;
  CompareOp theta_ = CompareOp::kEq;
};

using CaExprPtr = CaExpr::Ptr;

}  // namespace chronicle

#endif  // CHRONICLE_ALGEBRA_CA_EXPR_H_
