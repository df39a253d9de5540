#include "dataflow/csv.hpp"

#include "errors/error.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ivt::dataflow {

namespace {

/// Split one logical CSV record (handles quoted fields; `in` may span
/// multiple physical lines). Returns false at EOF with no data.
bool read_record(std::istream& in, char sep, std::vector<std::string>& out) {
  out.clear();
  std::string field;
  bool in_quotes = false;
  bool any = false;
  int ch;
  while ((ch = in.get()) != EOF) {
    any = true;
    const char c = static_cast<char>(ch);
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get();
          field += '"';
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      out.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      break;
    } else if (c == '\r') {
      // swallow; \r\n handled by the following \n
    } else {
      field += c;
    }
  }
  if (!any) return false;
  out.push_back(std::move(field));
  return true;
}

Value parse_cell(const std::string& s, ValueType type, std::size_t line) {
  if (s.empty()) return Value{};
  switch (type) {
    case ValueType::Null:
      return Value{};
    case ValueType::Int64: {
      std::int64_t v = 0;
      const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
      if (ec != std::errc{} || ptr != s.data() + s.size()) {
        IVT_THROW(errors::Category::Format, "csv line " + std::to_string(line) +
                                 ": bad int64 cell '" + s + "'");
      }
      return Value{v};
    }
    case ValueType::Float64: {
      try {
        std::size_t pos = 0;
        const double v = std::stod(s, &pos);
        if (pos != s.size()) IVT_THROW(errors::Category::Format, s);
        return Value{v};
      } catch (const std::exception&) {
        IVT_THROW(errors::Category::Format, "csv line " + std::to_string(line) +
                                 ": bad float64 cell '" + s + "'");
      }
    }
    case ValueType::String:
      return Value{s};
  }
  return Value{};
}

}  // namespace

void append_csv_cell(std::string& buf, std::string_view s, char sep) {
  if (s.find_first_of(std::string_view("\"\n\r")) == std::string_view::npos &&
      s.find(sep) == std::string_view::npos) {
    buf.append(s);
    return;
  }
  buf += '"';
  for (char c : s) {
    if (c == '"') buf += '"';
    buf += c;
  }
  buf += '"';
}

void write_csv(const Table& table, std::ostream& out,
               const CsvOptions& options) {
  const Schema& schema = table.schema();
  std::string buf;
  if (options.header) {
    for (std::size_t c = 0; c < schema.size(); ++c) {
      if (c > 0) buf += options.separator;
      append_csv_cell(buf, schema.field(c).name, options.separator);
    }
    buf += '\n';
  }
  char num[64];
  for (const Partition& p : table.partitions()) {
    const std::size_t rows = p.num_rows();
    buf.reserve(buf.size() + rows * 16);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < schema.size(); ++c) {
        if (c > 0) buf += options.separator;
        const Column& col = p.columns[c];
        if (col.is_null(r)) continue;
        switch (col.type()) {
          case ValueType::Null:
            break;
          case ValueType::Int64:
            buf.append(num, static_cast<std::size_t>(std::snprintf(
                                num, sizeof(num), "%lld",
                                static_cast<long long>(col.int64_at(r)))));
            break;
          case ValueType::Float64:
            buf.append(num, static_cast<std::size_t>(std::snprintf(
                                num, sizeof(num), "%.9g",
                                col.float64_at(r))));
            break;
          case ValueType::String:
            append_csv_cell(buf, col.string_at(r), options.separator);
            break;
        }
      }
      buf += '\n';
      if (buf.size() >= 1 << 20) {
        out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
      }
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_csv_file(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) IVT_THROW(errors::Category::Io, "cannot open for write: " + path);
  write_csv(table, out, options);
  if (!out) IVT_THROW(errors::Category::Io, "write failed: " + path);
}

Table read_csv(std::istream& in, const Schema& schema,
               const CsvOptions& options, std::size_t target_partition_rows) {
  std::vector<std::string> record;
  std::size_t line = 0;
  if (options.header) {
    ++line;
    if (!read_record(in, options.separator, record)) {
      return Table(schema);
    }
    if (record.size() != schema.size()) {
      IVT_THROW(errors::Category::Format, "csv header width " +
                               std::to_string(record.size()) +
                               " does not match schema width " +
                               std::to_string(schema.size()));
    }
    for (std::size_t c = 0; c < schema.size(); ++c) {
      if (record[c] != schema.field(c).name) {
        IVT_THROW(errors::Category::Format, "csv header mismatch at column " +
                                 std::to_string(c) + ": got '" + record[c] +
                                 "', expected '" + schema.field(c).name + "'");
      }
    }
  }
  TableBuilder builder(schema, target_partition_rows);
  while (read_record(in, options.separator, record)) {
    ++line;
    if (record.size() == 1 && record[0].empty()) continue;  // blank line
    if (record.size() != schema.size()) {
      IVT_THROW(errors::Category::Format, "csv line " + std::to_string(line) +
                               ": width " + std::to_string(record.size()) +
                               " does not match schema width " +
                               std::to_string(schema.size()));
    }
    std::vector<Value> row;
    row.reserve(schema.size());
    for (std::size_t c = 0; c < schema.size(); ++c) {
      row.push_back(parse_cell(record[c], schema.field(c).type, line));
    }
    builder.append_row(std::move(row));
  }
  return builder.build();
}

Table read_csv_file(const std::string& path, const Schema& schema,
                    const CsvOptions& options,
                    std::size_t target_partition_rows) {
  std::ifstream in(path, std::ios::binary);
  if (!in) IVT_THROW(errors::Category::Io, "cannot open for read: " + path);
  return read_csv(in, schema, options, target_partition_rows);
}

}  // namespace ivt::dataflow
