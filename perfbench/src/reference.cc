#include "reference.h"

#include <algorithm>

#include "harness.h"
#include "periodic/periodic_view.h"
#include "periodic/sliding_window.h"
#include "views/persistent_view.h"

namespace perfbench {

using chronicle::Tuple;
using chronicle::Value;

std::vector<Tuple> DumpView(const chronicle::ChronicleDatabase& db,
                            const ViewRef& view) {
  std::vector<Tuple> rows;
  switch (view.kind) {
    case ViewKind::kPersistent:
      rows = Unwrap(db.ScanView(view.name), "ScanView");
      break;
    case ViewKind::kSliding: {
      const chronicle::SlidingWindowView* sliding =
          Unwrap(db.GetSlidingView(view.name), "GetSlidingView");
      Check(sliding->ScanWindow([&](const Tuple& row) { rows.push_back(row); }),
            "ScanWindow");
      break;
    }
    case ViewKind::kPeriodic: {
      const chronicle::PeriodicViewSet* set =
          Unwrap(db.GetPeriodicView(view.name), "GetPeriodicView");
      set->VisitInstances(
          [&](int64_t interval, const chronicle::PersistentView& instance) {
            Check(instance.Scan([&](const Tuple& row) {
                    Tuple out{Value(interval)};
                    out.insert(out.end(), row.begin(), row.end());
                    rows.push_back(std::move(out));
                  }),
                  "periodic Scan");
          });
      break;
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return chronicle::TupleCompare(a, b) < 0;
  });
  return rows;
}

std::string DiffRows(const std::vector<Tuple>& got,
                     const std::vector<Tuple>& want) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (chronicle::TupleCompare(got[i], want[i]) != 0) {
      return "row " + std::to_string(i) + ": got " +
             chronicle::TupleToString(got[i]) + ", want " +
             chronicle::TupleToString(want[i]);
    }
  }
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " rows, want " +
           std::to_string(want.size());
  }
  return "";
}

void SumCountRecompute::Add(const std::vector<Tuple>& tick) {
  // A tick is a set: identical rows appended under one sequence number are
  // one chronicle tuple, so the views count them once.
  std::vector<const Tuple*> rows;
  rows.reserve(tick.size());
  for (const Tuple& row : tick) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const Tuple* a, const Tuple* b) {
    return chronicle::TupleCompare(*a, *b) < 0;
  });
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [](const Tuple* a, const Tuple* b) {
                           return chronicle::TupleCompare(*a, *b) == 0;
                         }),
             rows.end());
  for (const Tuple* row_ptr : rows) {
    const Tuple& row = *row_ptr;
    auto& [sum, count] = groups_[row[key_]];
    sum += row[minutes_].int64();
    count += 1;
  }
}

std::string SumCountRecompute::Diff(const std::vector<Tuple>& view_rows) const {
  if (view_rows.size() != groups_.size()) {
    return "recompute: " + std::to_string(view_rows.size()) +
           " groups in the view, " + std::to_string(groups_.size()) +
           " in the rows";
  }
  for (const Tuple& row : view_rows) {
    auto it = groups_.find(row[0]);
    if (it == groups_.end() || !(row[1] == Value(it->second.first)) ||
        !(row[2] == Value(it->second.second))) {
      return "recompute: view row " + chronicle::TupleToString(row) +
             " disagrees with the generated rows" +
             (it == groups_.end()
                  ? std::string(" (no such group)")
                  : " (sum " + std::to_string(it->second.first) + ", count " +
                        std::to_string(it->second.second) + ")");
    }
  }
  return "";
}

}  // namespace perfbench
