// Independent reference for the state representation (paper Sec. 4.3,
// Table 4): the literal row-wise forward fill over a time-sorted K_rep,
// building the dense wide table cell by cell. The product keeps the state
// as a change log (core::StateLog); tests compare the log's sinks against
// this table, so a bug in the log cannot hide behind a mode-vs-mode diff.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/schemas.hpp"
#include "core/state_repr.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/ops.hpp"
#include "dataflow/table.hpp"

namespace ivt::testoracle {

inline dataflow::Table dense_state_representation(
    dataflow::Engine& engine, const dataflow::Table& krep,
    const core::StateRepresentationOptions& options = {}) {
  using dataflow::Field;
  using dataflow::Schema;
  using dataflow::Table;
  using dataflow::ValueType;

  const Table sorted = dataflow::sort_by(engine, krep, {{"t", true}},
                                         "state_repr_sort");
  const std::size_t t_col = sorted.schema().require("t");
  const std::size_t sid_col = sorted.schema().require("s_id");
  const std::size_t value_col = sorted.schema().require("value");
  const std::size_t kind_col = sorted.schema().require("element_kind");

  // Pass 1: column order = first appearance.
  std::vector<std::string> columns;
  std::unordered_map<std::string, std::size_t> column_of;
  sorted.for_each_row([&](const dataflow::RowView& row) {
    const std::string& kind = row.string_at(kind_col);
    if (!options.include_extensions && kind == core::kElementExtension) return;
    const std::string& s_id = row.string_at(sid_col);
    if (column_of.emplace(s_id, columns.size()).second) {
      columns.push_back(s_id);
    }
  });

  std::vector<Field> fields;
  fields.push_back(Field{"t", ValueType::Int64});
  for (const std::string& name : columns) {
    fields.push_back(Field{name, ValueType::String});
  }
  const Schema out_schema{std::move(fields)};
  dataflow::TableBuilder builder(out_schema, 0);

  // Pass 2: forward-fill scan. `current` holds the last value per column;
  // extension columns are reset after each emitted row when momentary.
  std::vector<dataflow::Value> current(columns.size());
  std::vector<bool> is_extension_col(columns.size(), false);
  std::vector<bool> touched(columns.size(), false);

  std::int64_t pending_t = 0;
  bool has_pending = false;

  auto emit_row = [&]() {
    if (!has_pending) return;
    std::vector<dataflow::Value> row;
    row.reserve(1 + current.size());
    row.emplace_back(pending_t);
    for (const dataflow::Value& v : current) row.push_back(v);
    builder.append_row(std::move(row));
    if (options.momentary_extensions) {
      for (std::size_t c = 0; c < current.size(); ++c) {
        if (is_extension_col[c] && touched[c]) {
          current[c] = dataflow::Value{};
          touched[c] = false;
        }
      }
    }
    has_pending = false;
  };

  sorted.for_each_row([&](const dataflow::RowView& row) {
    const std::string& kind = row.string_at(kind_col);
    if (!options.include_extensions && kind == core::kElementExtension) return;
    const std::int64_t t = row.int64_at(t_col);
    if (has_pending && (!options.merge_same_timestamp || t != pending_t)) {
      emit_row();
    }
    const std::size_t c = column_of.at(row.string_at(sid_col));
    current[c] = dataflow::Value{row.string_at(value_col)};
    if (kind == core::kElementExtension) {
      is_extension_col[c] = true;
      touched[c] = true;
    }
    pending_t = t;
    has_pending = true;
  });
  emit_row();

  return builder.build().repartitioned(engine.default_partitions());
}

}  // namespace ivt::testoracle
