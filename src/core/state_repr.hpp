// State representation (paper Sec. 4.3, Table 4).
//
// The merged homogeneous sequence K_rep is pivoted into a wide table: one
// column per signal type (and extension w_id), one row per state change,
// missing cells forward-filled with the signal's last value. Each row is
// then "the state of all signal instances at a time" and feeds Data Mining
// directly (association rules, transition graphs, anomaly detection).
//
// Forward fill is run-length encoding by another name, so the pipeline
// keeps the table as a change log (StateLog) and expands rows only in the
// sinks: the CSV writer walks one cursor per column, everything else asks
// for a dense projection with to_table(). See DESIGN.md "State change
// log".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/engine.hpp"
#include "dataflow/table.hpp"

namespace ivt::core {

struct StateRepresentationOptions {
  /// Collapse elements sharing one timestamp into a single state row.
  bool merge_same_timestamp = true;
  /// Keep extension elements (w columns) in the representation.
  bool include_extensions = true;
  /// Extension elements are momentary events: when true (default) an
  /// extension cell is only set on the row where it occurred instead of
  /// being forward-filled like signal states.
  bool momentary_extensions = true;
};

/// The state representation as a dictionary-coded change log. Logically
/// it is the table build_state_representation returns — "t" (Int64), then
/// one String column per signal in order of first chronological
/// appearance, one row per state change — stored as:
///   - times(): the state-row time axis, non-decreasing;
///   - per signal column, a dictionary of its distinct cell strings and a
///     list of (row, code) changes, ascending by row, at most one per row.
/// A cell holds the dictionary entry of the column's last change at or
/// before its row; kEmpty (also the value before the first change) is a
/// null cell, which is how momentary extension cells reset.
class StateLog {
 public:
  /// Change code meaning "the cell is empty (null) from this row on".
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();

  struct Change {
    std::uint32_t row = 0;
    std::uint32_t code = kEmpty;
  };
  struct Column {
    std::vector<std::string> dictionary;
    std::vector<Change> changes;
  };
  /// Half-open range [begin, end) of state rows.
  struct RowRange {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  [[nodiscard]] std::size_t num_rows() const { return times_.size(); }
  [[nodiscard]] const std::vector<std::int64_t>& times() const {
    return times_;
  }
  /// Signal column names ("t" excluded), in column order.
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] const std::vector<Column>& columns() const {
    return columns_;
  }
  /// The dense table's schema: "t" then names().
  [[nodiscard]] dataflow::Schema schema() const;
  /// The dense schema's column names: "t" then names().
  [[nodiscard]] std::vector<std::string> all_columns() const;
  /// True for "t" and every signal column (the dense schema's names).
  [[nodiscard]] bool contains(std::string_view name) const;

  /// Rows whose time lies in [lo, hi] (binary search on the time axis).
  [[nodiscard]] RowRange rows_between(std::int64_t lo, std::int64_t hi) const;

  /// Dense projection, partitioned as the pipeline's engine partitions
  /// its tables. to_table() is the whole representation; to_table(names)
  /// equals dataflow::project(to_table(), names) and throws the same
  /// errors::Error(Spec) on an unknown name.
  [[nodiscard]] dataflow::Table to_table() const;
  [[nodiscard]] dataflow::Table to_table(
      const std::vector<std::string>& columns) const;

  /// Write rows `rows` of the named columns as CSV; byte-identical to
  /// dataflow::write_csv of the same rows of to_table(columns). Each
  /// dictionary entry is quoted once, then rows are emitted by advancing
  /// one cursor per column.
  void write_csv(std::ostream& out, const std::vector<std::string>& columns,
                 RowRange rows) const;
  /// The whole representation; same bytes as write_csv(to_table()).
  void write_csv(std::ostream& out) const;

  /// Resident size for cache accounting: the time axis, the change lists,
  /// the dictionary and name strings, and the per-column vectors. Sizes,
  /// not capacities, so the figure is deterministic.
  [[nodiscard]] std::size_t approx_bytes() const;

  /// Implicit on purpose: code written against the state as a dense
  /// Table (such as perfbench/probe's serve reference) keeps compiling
  /// and gets to_table().
  operator dataflow::Table() const { return to_table(); }

 private:
  friend StateLog build_state_log(dataflow::Engine& engine,
                                  const dataflow::Table& krep,
                                  const StateRepresentationOptions& options);

  /// Schema index (0 = "t", i = names_[i - 1]) of each requested column;
  /// throws like Schema::select on unknown or duplicate names.
  [[nodiscard]] std::vector<std::size_t> resolve(
      const std::vector<std::string>& columns) const;

  std::vector<std::int64_t> times_;
  std::vector<std::string> names_;
  std::vector<Column> columns_;
  /// Partition count of to_table(): the building engine's default.
  std::size_t partitions_ = 1;
};

/// Build the change log of a krep_schema table: one stable sort of K_rep
/// by t, then one pass. Input order breaks timestamp ties.
StateLog build_state_log(dataflow::Engine& engine, const dataflow::Table& krep,
                         const StateRepresentationOptions& options = {});

/// Pivot a krep_schema table into the wide state representation. Column
/// order: "t" first, then signal types in order of first (chronological)
/// appearance. Input is sorted by time internally. Same as
/// build_state_log(...).to_table().
dataflow::Table build_state_representation(
    dataflow::Engine& engine, const dataflow::Table& krep,
    const StateRepresentationOptions& options = {});

}  // namespace ivt::core
