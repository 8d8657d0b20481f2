// SlidingWindowView: the cyclic-buffer optimization for overlapping
// periodic views (paper §5.1).
//
// For the paper's example — "a periodic view for every day that computes
// the total number of shares of a stock sold during the 30 days preceding
// that day" — the naive PeriodicViewSet updates every one of the ~30
// overlapping instances on each append. Because the aggregates are
// decomposable, it suffices to "keep the total number of shares sold for
// each of the last 30 days separately, and derive the view as the sum of
// these 30 numbers. Moving from one periodic view to the next one involves
// shifting a cyclic buffer".
//
// This class keeps one partial-aggregate table per pane (pane width =
// slide) in a ring of `num_panes` (window / slide) slots. Each append
// touches exactly ONE pane — O(1) view updates per append regardless of
// the overlap factor — and a window query merges the ring's panes on
// demand. Ring slots are reused as the window moves, so space is bounded
// by the window content ("the space for the periodic view can be reused").
//
// Equivalence with the naive formulation (tested in periodic tests):
//   QueryWindow(key) after a tick at chronon t equals the naive instance
//   k = current_pane − num_panes + 1 of
//   SlidingCalendar{origin, window = num_panes·pane_width, slide = pane_width}.

#ifndef CHRONICLE_PERIODIC_SLIDING_WINDOW_H_
#define CHRONICLE_PERIODIC_SLIDING_WINDOW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/delta_plan.h"
#include "periodic/calendar.h"
#include "storage/keyed_table.h"
#include "views/summary_spec.h"

namespace chronicle {

class SlidingWindowView {
 public:
  // `plan` is compiled here (exec::CompileDeltaPlan); a plan outside
  // chronicle algebra fails with the compiler's error. `spec` must be a
  // GroupBy summarization (decomposable aggregates); pane_width > 0,
  // num_panes > 0.
  static Result<std::unique_ptr<SlidingWindowView>> Make(
      std::string name, CaExprPtr plan, SummarySpec spec, Chronon origin,
      Chronon pane_width, int64_t num_panes,
      IndexMode index_mode = IndexMode::kHash);

  const std::string& name() const { return name_; }
  const CaExprPtr& plan() const { return plan_; }
  Chronon window() const { return pane_width_ * num_panes_; }
  Chronon pane_width() const { return pane_width_; }
  int64_t num_panes() const { return num_panes_; }

  // Folds one append into the pane containing event.chronon. Events before
  // `origin` are ignored; chronons must not regress (group discipline).
  Status ProcessAppend(const AppendEvent& event);

  // Finalized row (key columns + aggregates) for `key` over the window
  // ending with the current pane; NotFound if the key appears in no live
  // pane.
  Result<Tuple> QueryWindow(const Tuple& key) const;

  // Applies `fn` to the finalized row of every key present in the current
  // window.
  Status ScanWindow(const std::function<void(const Tuple&)>& fn) const;

  // Absolute index of the most recent pane written (-1 before any data).
  int64_t current_pane() const { return current_pane_; }

  size_t MemoryFootprint() const;

  // --- checkpoint hooks (src/checkpoint) ---

  // Visits every live pane group: (absolute pane index, key, states).
  void VisitPanes(const std::function<void(int64_t, const Tuple&,
                                           const std::vector<AggState>&)>& fn)
      const;
  // Reinstates one pane group. Only legal before any append was processed.
  Status RestorePaneGroup(int64_t pane_index, Tuple key,
                          std::vector<AggState> states);
  // Reinstates the ring position.
  void RestoreCurrentPane(int64_t pane) { current_pane_ = pane; }

 private:
  struct Pane {
    int64_t pane_index = -1;  // absolute pane number occupying this slot
    KeyedTable<std::vector<AggState>> groups{IndexMode::kHash};
  };

  SlidingWindowView(std::string name, CaExprPtr plan, SummarySpec spec,
                    Chronon origin, Chronon pane_width, int64_t num_panes,
                    IndexMode index_mode);

  // Merges the states for `key` across all panes of the current window;
  // false if the key is in no pane.
  bool MergeKey(const Tuple& key, std::vector<AggState>* merged) const;
  Tuple FinalizeRow(const Tuple& key, const std::vector<AggState>& states) const;

  std::string name_;
  CaExprPtr plan_;
  SummarySpec spec_;
  Chronon origin_;
  Chronon pane_width_;
  int64_t num_panes_;
  IndexMode index_mode_;
  exec::DeltaPlanPtr compiled_;
  exec::PlanScratch scratch_;  // reused across ticks (clear, don't free)

  std::vector<Pane> ring_;
  int64_t current_pane_ = -1;
};

}  // namespace chronicle

#endif  // CHRONICLE_PERIODIC_SLIDING_WINDOW_H_
