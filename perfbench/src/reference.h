// Reference checks shared by the workloads: render a view's contents as
// sorted rows, compare two renderings, and recompute the GroupBy
// SUM/COUNT views directly from the generated rows.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"
#include "types/tuple.h"

namespace perfbench {

enum class ViewKind { kPersistent, kSliding, kPeriodic };

struct ViewRef {
  std::string name;
  ViewKind kind = ViewKind::kPersistent;
};

// Sorted rows of one view of an unsharded engine. Sliding views render
// their current window; periodic views render every live instance with
// the interval index prepended.
std::vector<chronicle::Tuple> DumpView(const chronicle::ChronicleDatabase& db,
                                       const ViewRef& view);

// Empty when equal; otherwise a one-line description of the first
// difference.
std::string DiffRows(const std::vector<chronicle::Tuple>& got,
                     const std::vector<chronicle::Tuple>& want);

// Plain recompute of `SELECT key, SUM(minutes), COUNT(*) ... GROUP BY key`
// over generated ticks, for a key column and an integer minutes column.
class SumCountRecompute {
 public:
  SumCountRecompute(size_t key_column, size_t minutes_column)
      : key_(key_column), minutes_(minutes_column) {}

  // Folds in one tick.
  void Add(const std::vector<chronicle::Tuple>& tick);
  // Compares against view rows shaped (key, sum, count, ...).
  std::string Diff(const std::vector<chronicle::Tuple>& view_rows) const;

 private:
  size_t key_;
  size_t minutes_;
  std::map<chronicle::Value, std::pair<int64_t, int64_t>> groups_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
