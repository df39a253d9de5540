#include "core/state_repr.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <unordered_map>

#include "core/schemas.hpp"
#include "dataflow/csv.hpp"
#include "errors/error.hpp"

namespace ivt::core {

namespace {

using Change = StateLog::Change;

/// Forward cursor over one column's changes, positioned at `row`:
/// advance(r) returns the cell code at row r, for r = row, row + 1, ...
/// A default-constructed cursor reads kEmpty everywhere.
class Cursor {
 public:
  Cursor() = default;
  Cursor(const StateLog::Column& column, std::size_t row)
      : next_(std::lower_bound(column.changes.begin(), column.changes.end(),
                               row,
                               [](const Change& c, std::size_t r) {
                                 return c.row < r;
                               })),
        end_(column.changes.end()),
        code_(next_ == column.changes.begin() ? StateLog::kEmpty
                                               : std::prev(next_)->code) {}

  std::uint32_t advance(std::size_t row) {
    if (next_ != end_ && next_->row == row) code_ = (next_++)->code;
    return code_;
  }

 private:
  std::vector<Change>::const_iterator next_{};
  std::vector<Change>::const_iterator end_{};
  std::uint32_t code_ = StateLog::kEmpty;
};

}  // namespace

dataflow::Schema StateLog::schema() const {
  std::vector<dataflow::Field> fields;
  fields.reserve(1 + names_.size());
  fields.push_back(dataflow::Field{"t", dataflow::ValueType::Int64});
  for (const std::string& name : names_) {
    fields.push_back(dataflow::Field{name, dataflow::ValueType::String});
  }
  return dataflow::Schema{std::move(fields)};
}

bool StateLog::contains(std::string_view name) const {
  return name == "t" ||
         std::find(names_.begin(), names_.end(), name) != names_.end();
}

std::vector<std::size_t> StateLog::resolve(
    const std::vector<std::string>& columns) const {
  const dataflow::Schema full = schema();
  // Selecting first gives dataflow::project's errors: unknown and
  // duplicate names are Spec errors.
  (void)full.select(columns);
  std::vector<std::size_t> out;
  out.reserve(columns.size());
  for (const std::string& name : columns) out.push_back(full.require(name));
  return out;
}

StateLog::RowRange StateLog::rows_between(std::int64_t lo,
                                          std::int64_t hi) const {
  const auto begin = std::lower_bound(times_.begin(), times_.end(), lo);
  const auto end = std::upper_bound(begin, times_.end(), hi);
  return {static_cast<std::size_t>(begin - times_.begin()),
          static_cast<std::size_t>(end - times_.begin())};
}

std::vector<std::string> StateLog::all_columns() const {
  std::vector<std::string> all{"t"};
  all.insert(all.end(), names_.begin(), names_.end());
  return all;
}

dataflow::Table StateLog::to_table() const { return to_table(all_columns()); }

dataflow::Table StateLog::to_table(
    const std::vector<std::string>& columns) const {
  const std::vector<std::size_t> index = resolve(columns);
  dataflow::Table table(schema().select(columns));
  // Partition boundaries of Table::repartitioned(partitions_): equal
  // slices of ceil(rows / partitions), one empty partition when empty.
  const std::size_t n = num_rows();
  const std::size_t per =
      std::max<std::size_t>(1, (n + partitions_ - 1) / partitions_);
  std::size_t begin = 0;
  do {
    const std::size_t end = std::min(n, begin + per);
    dataflow::Partition part = dataflow::Table::make_partition(table.schema());
    for (std::size_t k = 0; k < index.size(); ++k) {
      dataflow::Column& dst = part.columns[k];
      dst.reserve(end - begin);
      if (index[k] == 0) {
        for (std::size_t r = begin; r < end; ++r) dst.append_int64(times_[r]);
        continue;
      }
      const Column& src = columns_[index[k] - 1];
      Cursor cursor(src, begin);
      for (std::size_t r = begin; r < end; ++r) {
        const std::uint32_t code = cursor.advance(r);
        if (code == kEmpty) {
          dst.append_null();
        } else {
          dst.append_string(src.dictionary[code]);
        }
      }
    }
    table.add_partition(std::move(part));
    begin = end;
  } while (begin < n);
  return table;
}

void StateLog::write_csv(std::ostream& out,
                         const std::vector<std::string>& columns,
                         RowRange rows) const {
  constexpr char kSep = dataflow::CsvOptions{}.separator;
  const std::vector<std::size_t> index = resolve(columns);
  // Like a dense partition, a selection without columns has no rows.
  rows.end = index.empty() ? 0 : std::min(rows.end, num_rows());
  rows.begin = std::min(rows.begin, rows.end);

  std::string buf;
  for (std::size_t k = 0; k < columns.size(); ++k) {
    if (k > 0) buf += kSep;
    dataflow::append_csv_cell(buf, columns[k], kSep);
  }
  buf += '\n';

  // Per selected column: its cursor and its dictionary, quoted once.
  struct Selected {
    bool is_time;
    Cursor cursor;
    std::vector<std::string> cells;
  };
  std::vector<Selected> selected;
  selected.reserve(index.size());
  for (const std::size_t i : index) {
    if (i == 0) {
      selected.push_back(Selected{true, Cursor(), {}});
      continue;
    }
    const Column& src = columns_[i - 1];
    std::vector<std::string> cells(src.dictionary.size());
    for (std::size_t d = 0; d < cells.size(); ++d) {
      dataflow::append_csv_cell(cells[d], src.dictionary[d], kSep);
    }
    selected.push_back(
        Selected{false, Cursor(src, rows.begin), std::move(cells)});
  }

  char num[24];
  for (std::size_t r = rows.begin; r < rows.end; ++r) {
    for (std::size_t k = 0; k < selected.size(); ++k) {
      if (k > 0) buf += kSep;
      Selected& s = selected[k];
      if (s.is_time) {
        const auto res = std::to_chars(num, num + sizeof(num), times_[r]);
        buf.append(num, res.ptr);
        continue;
      }
      const std::uint32_t code = s.cursor.advance(r);
      if (code != kEmpty) buf += s.cells[code];
    }
    buf += '\n';
    if (buf.size() >= 1U << 20U) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void StateLog::write_csv(std::ostream& out) const {
  write_csv(out, all_columns(), RowRange{0, num_rows()});
}

std::size_t StateLog::approx_bytes() const {
  std::size_t bytes = times_.size() * sizeof(std::int64_t) +
                      columns_.size() * sizeof(Column);
  for (const std::string& name : names_) bytes += sizeof(name) + name.size();
  for (const Column& column : columns_) {
    bytes += column.changes.size() * sizeof(Change);
    for (const std::string& cell : column.dictionary) {
      bytes += sizeof(cell) + cell.size();
    }
  }
  return bytes;
}

StateLog build_state_log(dataflow::Engine& engine, const dataflow::Table& krep,
                         const StateRepresentationOptions& options) {
  const dataflow::Schema& schema = krep.schema();
  const std::size_t t_col = schema.require("t");
  const std::size_t sid_col = schema.require("s_id");
  const std::size_t value_col = schema.require("value");
  const std::size_t kind_col = schema.require("element_kind");

  StateLog log;
  log.partitions_ = std::max<std::size_t>(1, engine.default_partitions());
  if (krep.num_rows() >= StateLog::kEmpty) {
    IVT_THROW(errors::Category::Resource,
              "state representation: K_rep has " +
                  std::to_string(krep.num_rows()) +
                  " rows, above the change log's 32-bit row index");
  }

  // The order dataflow::sort_by(krep, {{"t", true}}) gives: null times
  // first (read as 0, like Column::int64_at), then ascending t, input
  // order breaking ties.
  struct Ref {
    bool has_t;
    std::int64_t t;
    std::uint32_t partition;
    std::uint32_t row;
  };
  std::vector<Ref> refs;
  refs.reserve(krep.num_rows());
  for (std::size_t p = 0; p < krep.num_partitions(); ++p) {
    const dataflow::Partition& part = krep.partition(p);
    const dataflow::Column& t = part.columns[t_col];
    const dataflow::Column& kind = part.columns[kind_col];
    for (std::size_t r = 0; r < part.num_rows(); ++r) {
      if (!options.include_extensions && kind.string_at(r) == kElementExtension) {
        continue;
      }
      refs.push_back(Ref{!t.is_null(r), t.int64_at(r),
                         static_cast<std::uint32_t>(p),
                         static_cast<std::uint32_t>(r)});
    }
  }
  std::stable_sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.has_t != b.has_t) return !a.has_t;
    return a.t < b.t;
  });

  // One pass: a new state row per distinct t (per element when not
  // merging); each element sets its column's cell for the current row.
  // Cell text is keyed by views into K_rep, which outlives the build.
  std::unordered_map<std::string_view, std::uint32_t> column_of;
  std::vector<std::unordered_map<std::string_view, std::uint32_t>> codes;
  std::vector<std::uint32_t> touched;  // extension cells set in this row
  std::vector<bool> is_touched;
  log.times_.reserve(refs.size());

  const auto set_cell = [&log](std::uint32_t c, std::uint32_t row,
                               std::uint32_t code) {
    std::vector<Change>& changes = log.columns_[c].changes;
    if (!changes.empty() && changes.back().row == row) {
      changes.back().code = code;
    } else if (changes.empty() ? code != StateLog::kEmpty
                               : changes.back().code != code) {
      changes.push_back(Change{row, code});
    }
  };

  for (const Ref& ref : refs) {
    const dataflow::Partition& part = krep.partition(ref.partition);
    if (log.times_.empty() || !options.merge_same_timestamp ||
        ref.t != log.times_.back()) {
      const auto row = static_cast<std::uint32_t>(log.times_.size());
      log.times_.push_back(ref.t);
      // Momentary extension cells of the previous row end here.
      for (const std::uint32_t c : touched) {
        set_cell(c, row, StateLog::kEmpty);
        is_touched[c] = false;
      }
      touched.clear();
    }
    const auto row = static_cast<std::uint32_t>(log.times_.size() - 1);

    const std::string& s_id = part.columns[sid_col].string_at(ref.row);
    const auto [col_it, new_column] = column_of.try_emplace(
        s_id, static_cast<std::uint32_t>(log.names_.size()));
    if (new_column) {
      log.names_.push_back(s_id);
      log.columns_.emplace_back();
      codes.emplace_back();
      is_touched.push_back(false);
    }
    const std::uint32_t c = col_it->second;

    StateLog::Column& column = log.columns_[c];
    const std::string& value = part.columns[value_col].string_at(ref.row);
    const auto [code_it, new_code] = codes[c].try_emplace(
        value, static_cast<std::uint32_t>(column.dictionary.size()));
    if (new_code) column.dictionary.push_back(value);
    set_cell(c, row, code_it->second);

    if (options.momentary_extensions && !is_touched[c] &&
        part.columns[kind_col].string_at(ref.row) == kElementExtension) {
      is_touched[c] = true;
      touched.push_back(c);
    }
  }
  log.times_.shrink_to_fit();
  for (StateLog::Column& column : log.columns_) column.changes.shrink_to_fit();
  return log;
}

dataflow::Table build_state_representation(
    dataflow::Engine& engine, const dataflow::Table& krep,
    const StateRepresentationOptions& options) {
  return build_state_log(engine, krep, options).to_table();
}

}  // namespace ivt::core
